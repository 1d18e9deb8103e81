#include "results/binary_reader.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "crypto/crc32.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"

namespace wlansim {
namespace {

uint32_t BodyCrc(const std::string& body) {
  return Crc32({reinterpret_cast<const uint8_t*>(body.data()), body.size()});
}

void SkipChunk(ByteReader& reader) {
  reader.GetU8();  // encoding tag
  reader.GetRange(reader.GetVarint());
}

void SkipBinsBlock(ByteReader& reader) {
  reader.GetRange(reader.GetVarint());
}

void SkipDistColumns(ByteReader& reader, size_t n_dists) {
  for (size_t d = 0; d < n_dists; ++d) {
    for (int c = 0; c < 6; ++c) {
      SkipChunk(reader);
    }
    SkipBinsBlock(reader);
  }
}

// Walks the group's extents in order: per_extent(reader, rows) must consume
// exactly one extent's bytes.
void WalkExtents(const BinaryGroup& group,
                 const std::function<void(ByteReader&, size_t)>& per_extent) {
  ByteReader reader(group.body.data() + group.extents_offset,
                    group.body.size() - group.extents_offset);
  uint64_t rows_left = group.header.n_rows;
  while (rows_left > 0) {
    const size_t rows = static_cast<size_t>(std::min<uint64_t>(kExtentRows, rows_left));
    per_extent(reader, rows);
    rows_left -= rows;
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("corrupt binary results file: trailing bytes after the last extent");
  }
}

// Exact per-point aggregates of one group, column at a time.
std::vector<MetricAggregate> ExactGroupAggregates(const BinaryGroup& group) {
  std::vector<MetricAggregate> aggregates;
  aggregates.reserve(group.header.scalar_names.size());
  for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
    std::vector<double> column;
    ReadScalarColumn(group, c, &column);
    aggregates.push_back(ExactAggregate(group.header.scalar_names[c], std::move(column)));
  }
  return aggregates;
}

// Replays the group's scalar rows to `consumer` as ReplicationRecords in
// replication order — the record sequence the original run delivered.
void ReplayRecords(const BinaryGroup& group, ResultConsumer& consumer) {
  ReplicationRecord record;
  VisitScalarRows(group, [&](uint64_t row, const std::vector<double>& values) {
    record.replication = row;
    record.metrics.clear();
    for (size_t c = 0; c < values.size(); ++c) {
      record.metrics.emplace(group.header.scalar_names[c], values[c]);
    }
    consumer.OnRecord(record);
  });
}

// Replays the online (Welford + P-square) aggregation over the group's rows
// — the same record sequence the original streamed sweep fed its
// OnlineAggregator, so the estimates are identical.
std::vector<MetricAggregate> OnlineGroupAggregates(const BinaryGroup& group) {
  OnlineAggregator aggregator;
  ReplayRecords(group, aggregator);
  return aggregator.Aggregates();
}

void RequireSameSchema(const BinaryFileHeader& a, const BinaryFileHeader& b,
                       const std::string& path) {
  if (a.kind != b.kind || a.scenario != b.scenario || a.base_seed != b.base_seed ||
      a.replications != b.replications || a.streamed != b.streamed ||
      a.param_keys != b.param_keys) {
    throw std::runtime_error("'" + path +
                             "' does not match the first input's campaign header "
                             "(scenario/seed/replications/streamed/param keys must agree)");
  }
}

}  // namespace

BinaryResultsFile ParseBinaryResults(const std::string& bytes) {
  ByteReader reader(bytes);
  BinaryResultsFile file;
  file.header = DecodeFileHeader(reader);
  file.groups.reserve(file.header.n_groups);
  for (uint64_t g = 0; g < file.header.n_groups; ++g) {
    if (reader.GetU32() != kBinaryGroupMagic) {
      throw std::runtime_error("corrupt binary results file: bad group magic at group " +
                               std::to_string(g));
    }
    const uint64_t body_len = reader.GetU64();
    const size_t body_start = reader.pos();
    reader.GetRange(body_len);  // bounds check + advance
    BinaryGroup group;
    group.body = bytes.substr(body_start, body_len);
    const uint32_t stored_crc = reader.GetU32();
    if (BodyCrc(group.body) != stored_crc) {
      throw std::runtime_error("corrupt binary results file: group " + std::to_string(g) +
                               " CRC mismatch (damaged or rewritten bytes)");
    }
    ByteReader body_reader(group.body);
    group.header = DecodeGroupHeader(body_reader);
    group.extents_offset = body_reader.pos();
    if (group.header.param_values.size() != file.header.param_keys.size()) {
      throw std::runtime_error("corrupt binary results file: group " + std::to_string(g) +
                               " carries " + std::to_string(group.header.param_values.size()) +
                               " parameter values for " +
                               std::to_string(file.header.param_keys.size()) + " keys");
    }
    file.groups.push_back(std::move(group));
  }
  if (reader.remaining() != 0) {
    throw std::runtime_error("corrupt binary results file: trailing bytes after the last group");
  }
  return file;
}

BinaryResultsFile ReadBinaryResultsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "'");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return ParseBinaryResults(bytes);
}

void ReadScalarColumn(const BinaryGroup& group, size_t column, std::vector<double>* out) {
  if (column >= group.header.scalar_names.size()) {
    throw std::out_of_range("scalar column " + std::to_string(column) + " outside schema of " +
                            std::to_string(group.header.scalar_names.size()));
  }
  out->clear();
  out->reserve(group.header.n_rows);
  std::vector<double> extent_values;
  WalkExtents(group, [&](ByteReader& reader, size_t rows) {
    for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
      if (c == column) {
        DecodeScalarChunk(reader, rows, &extent_values);
        out->insert(out->end(), extent_values.begin(), extent_values.end());
      } else {
        SkipChunk(reader);
      }
    }
    SkipDistColumns(reader, group.header.dist_names.size());
  });
}

void ReadDistColumn(const BinaryGroup& group, size_t dist,
                    std::vector<DistributionSnapshot>* out) {
  if (dist >= group.header.dist_names.size()) {
    throw std::out_of_range("distribution column " + std::to_string(dist) +
                            " outside schema of " +
                            std::to_string(group.header.dist_names.size()));
  }
  const DistGeometry& geometry = group.header.dist_geometries[dist];
  out->clear();
  out->reserve(group.header.n_rows);
  std::vector<uint64_t> underflow, overflow, total;
  std::vector<double> min, max, mean;
  WalkExtents(group, [&](ByteReader& reader, size_t rows) {
    for (size_t c = 0; c < group.header.scalar_names.size(); ++c) {
      SkipChunk(reader);
    }
    for (size_t d = 0; d < group.header.dist_names.size(); ++d) {
      if (d != dist) {
        for (int c = 0; c < 6; ++c) {
          SkipChunk(reader);
        }
        SkipBinsBlock(reader);
        continue;
      }
      DecodeU64Chunk(reader, rows, &underflow);
      DecodeU64Chunk(reader, rows, &overflow);
      DecodeU64Chunk(reader, rows, &total);
      DecodeScalarChunk(reader, rows, &min);
      DecodeScalarChunk(reader, rows, &max);
      DecodeScalarChunk(reader, rows, &mean);
      ByteReader bins = reader.GetRange(reader.GetVarint());
      for (size_t r = 0; r < rows; ++r) {
        DistributionSnapshot snapshot;
        snapshot.lo = geometry.lo;
        snapshot.bin_width = geometry.bin_width;
        DecodeBins(bins, geometry.n_bins, &snapshot.bins);
        snapshot.underflow = underflow[r];
        snapshot.overflow = overflow[r];
        snapshot.total = total[r];
        snapshot.min = min[r];
        snapshot.max = max[r];
        snapshot.mean = mean[r];
        out->push_back(std::move(snapshot));
      }
      if (bins.remaining() != 0) {
        throw std::runtime_error(
            "corrupt binary results file: histogram bin block longer than its rows");
      }
    }
  });
}

void VisitScalarRows(const BinaryGroup& group,
                     const std::function<void(uint64_t, const std::vector<double>&)>& visit) {
  const size_t n_scalars = group.header.scalar_names.size();
  std::vector<std::vector<double>> columns(n_scalars);
  std::vector<double> values(n_scalars);
  uint64_t row_base = 0;
  WalkExtents(group, [&](ByteReader& reader, size_t rows) {
    for (size_t c = 0; c < n_scalars; ++c) {
      DecodeScalarChunk(reader, rows, &columns[c]);
    }
    SkipDistColumns(reader, group.header.dist_names.size());
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < n_scalars; ++c) {
        values[c] = columns[c][r];
      }
      visit(row_base + r, values);
    }
    row_base += rows;
  });
}

std::string InspectBinary(const BinaryResultsFile& file) {
  const bool sweep = file.header.kind == BinaryFileKind::kSweep;
  std::string text = "wlansim binary results, format version " +
                     std::to_string(kBinaryFormatVersion) + "\n";
  text += "kind: " + std::string(sweep ? "sweep" : "campaign") + "\n";
  text += "scenario: " + file.header.scenario + "\n";
  text += "base_seed: " + std::to_string(file.header.base_seed) + "\n";
  text += "replications: " + std::to_string(file.header.replications) +
          (sweep ? " per grid point" : "") + "\n";
  text += "aggregation: " + std::string(file.header.streamed ? "online (streamed)" : "exact") +
          "\n";
  if (sweep) {
    std::string keys;
    for (const std::string& key : file.header.param_keys) {
      keys += (keys.empty() ? "" : ", ") + key;
    }
    text += "param keys: " + (keys.empty() ? "(none)" : keys) + "\n";
  }
  text += "groups: " + std::to_string(file.groups.size()) + "\n";
  if (!file.groups.empty()) {
    const BinaryGroupHeader& schema = file.groups.front().header;
    std::string scalars;
    for (const std::string& name : schema.scalar_names) {
      scalars += (scalars.empty() ? "" : ", ") + name;
    }
    std::string dists;
    for (const std::string& name : schema.dist_names) {
      dists += (dists.empty() ? "" : ", ") + name;
    }
    text += "scalar columns (" + std::to_string(schema.scalar_names.size()) + "): " +
            (scalars.empty() ? "(none)" : scalars) + "\n";
    text += "distribution columns (" + std::to_string(schema.dist_names.size()) + "): " +
            (dists.empty() ? "(none)" : dists) + "\n";
  }
  const size_t shown = std::min<size_t>(file.groups.size(), 20);
  for (size_t g = 0; g < shown; ++g) {
    const BinaryGroupHeader& header = file.groups[g].header;
    text += "group " + std::to_string(g) + ": point_index=" +
            std::to_string(header.point_index) + " seed=" + std::to_string(header.point_seed) +
            " rows=" + std::to_string(header.n_rows);
    for (size_t k = 0; k < header.param_values.size(); ++k) {
      text += " " + file.header.param_keys[k] + "=" + header.param_values[k];
    }
    text += "\n";
  }
  if (file.groups.size() > shown) {
    text += "... (" + std::to_string(file.groups.size() - shown) + " more groups)\n";
  }
  return text;
}

void MergeBinaryFiles(const std::vector<std::string>& input_paths, std::ostream& out) {
  if (input_paths.empty()) {
    throw std::runtime_error("merge needs at least one input file");
  }
  std::vector<BinaryResultsFile> files;
  files.reserve(input_paths.size());
  for (const std::string& path : input_paths) {
    files.push_back(ReadBinaryResultsFile(path));
    if (files.back().header.kind != BinaryFileKind::kSweep) {
      throw std::runtime_error("'" + path +
                               "' is a campaign file; merge joins sweep shards "
                               "(a campaign already has its single group)");
    }
    RequireSameSchema(files.front().header, files.back().header, path);
  }
  // Shard merge is pure reordering: groups are byte-copied in ascending
  // grid-point order under a header whose group count is the sum, which is
  // exactly what an unsharded run would have written.
  std::map<uint64_t, const BinaryGroup*> by_point;
  for (const BinaryResultsFile& file : files) {
    for (const BinaryGroup& group : file.groups) {
      if (!by_point.emplace(group.header.point_index, &group).second) {
        throw std::runtime_error("duplicate grid point " +
                                 std::to_string(group.header.point_index) +
                                 " across the input shards");
      }
    }
  }
  BinaryFileHeader header = files.front().header;
  header.n_groups = by_point.size();
  std::string bytes;
  EncodeFileHeader(bytes, header);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  for (const auto& [point_index, group] : by_point) {
    std::string framed;
    framed.reserve(group->body.size() + 16);
    PutU32(framed, kBinaryGroupMagic);
    PutU64(framed, group->body.size());
    framed += group->body;
    PutU32(framed, BodyCrc(group->body));
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("binary results write failed");
  }
}

std::string ExportBinaryCsv(const BinaryResultsFile& file) {
  if (file.header.kind == BinaryFileKind::kCampaign) {
    if (file.groups.size() != 1) {
      throw std::runtime_error("corrupt binary results file: campaign file with " +
                               std::to_string(file.groups.size()) + " groups");
    }
    // The run's own per-replication CSV writer, fed the stored records.
    std::ostringstream csv;
    StreamingCsvWriter writer(csv);
    ReplayRecords(file.groups.front(), writer);
    return csv.str();
  }
  std::string csv = ResultSink::SweepLongCsvHeader(file.header.param_keys, file.header.streamed);
  for (const BinaryGroup& group : file.groups) {
    const std::vector<MetricAggregate> aggregates =
        file.header.streamed ? OnlineGroupAggregates(group) : ExactGroupAggregates(group);
    csv += ResultSink::SweepLongCsvRows(group.header.param_values, aggregates);
  }
  return csv;
}

std::string AggregateBinary(const std::vector<BinaryResultsFile>& files) {
  std::vector<const BinaryResultsFile*> borrowed;
  borrowed.reserve(files.size());
  for (const BinaryResultsFile& file : files) {
    borrowed.push_back(&file);
  }
  return AggregateBinary(borrowed);
}

std::string AggregateBinary(const std::vector<const BinaryResultsFile*>& files) {
  if (files.empty()) {
    throw std::runtime_error("aggregate needs at least one input file");
  }
  const BinaryFileHeader& reference = files.front()->header;
  for (const BinaryResultsFile* file : files) {
    if (file->header.kind != reference.kind || file->header.scenario != reference.scenario ||
        file->header.param_keys != reference.param_keys) {
      throw std::runtime_error(
          "aggregate inputs must share kind, scenario, and sweep parameter keys");
    }
  }
  if (reference.kind == BinaryFileKind::kCampaign) {
    // One sample set: the files' columns concatenated in argument order.
    const std::vector<std::string>& names = files.front()->groups.front().header.scalar_names;
    for (const BinaryResultsFile* file : files) {
      if (file->groups.size() != 1 || file->groups.front().header.scalar_names != names) {
        throw std::runtime_error("aggregate inputs must share their scalar column schema");
      }
    }
    std::vector<MetricAggregate> aggregates;
    aggregates.reserve(names.size());
    std::vector<double> file_column;
    for (size_t c = 0; c < names.size(); ++c) {
      std::vector<double> column;
      for (const BinaryResultsFile* file : files) {
        ReadScalarColumn(file->groups.front(), c, &file_column);
        column.insert(column.end(), file_column.begin(), file_column.end());
      }
      aggregates.push_back(ExactAggregate(names[c], std::move(column)));
    }
    return ResultSink::AggregatesToCsv(aggregates);
  }
  // Sweep: one block of rows per grid point, ascending, shards disjoint.
  std::map<uint64_t, const BinaryGroup*> by_point;
  for (const BinaryResultsFile* file : files) {
    for (const BinaryGroup& group : file->groups) {
      if (!by_point.emplace(group.header.point_index, &group).second) {
        throw std::runtime_error("duplicate grid point " +
                                 std::to_string(group.header.point_index) +
                                 " across the inputs");
      }
    }
  }
  std::string csv = ResultSink::SweepLongCsvHeader(reference.param_keys, false);
  for (const auto& [point_index, group] : by_point) {
    csv += ResultSink::SweepLongCsvRows(group->header.param_values, ExactGroupAggregates(*group));
  }
  return csv;
}

}  // namespace wlansim
