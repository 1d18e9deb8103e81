// WLSR binary results format tests: primitive/chunk codec round-trips, the
// schema header round-trip, writer determinism across worker counts, shard
// merge byte-identity against the unsharded file, CSV export byte-identity
// against the streamed text writers (campaign and sweep),
// histogram (DistributionSnapshot) fidelity, schema-drift rejection, and
// corrupted/truncated-file rejection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "results/binary_format.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/campaign.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/sweep.h"
#include "tests/support/result_helpers.h"

namespace wlansim {
namespace {

// --- primitive + chunk codecs --------------------------------------------------

TEST(BinaryCodec, VarintRoundTripsAcrossWidths) {
  for (const uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128}, uint64_t{300},
        uint64_t{1} << 32, std::numeric_limits<uint64_t>::max()}) {
    std::string out;
    PutVarint(out, v);
    ByteReader in(out);
    EXPECT_EQ(in.GetVarint(), v);
    EXPECT_EQ(in.remaining(), 0u);
  }
}

TEST(BinaryCodec, ZigzagIsAnInvolutionOnExtremes) {
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

void RoundTripScalars(const std::vector<double>& values, ChunkEncoding expected) {
  std::string out;
  EncodeScalarChunk(out, values.data(), values.size());
  EXPECT_EQ(static_cast<ChunkEncoding>(static_cast<uint8_t>(out[0])), expected);
  ByteReader in(out);
  std::vector<double> decoded;
  DecodeScalarChunk(in, values.size(), &decoded);
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    // Bitwise, not numeric: the format must preserve -0.0 and NaN payloads.
    EXPECT_EQ(std::memcmp(&decoded[i], &values[i], sizeof(double)), 0) << "row " << i;
  }
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(BinaryCodec, ScalarChunkPicksConstantDeltaOrRaw) {
  RoundTripScalars({3.25, 3.25, 3.25, 3.25}, ChunkEncoding::kConstant);
  RoundTripScalars({1e7, 1e7 + 3, 1e7 - 12, 1e7 + 100}, ChunkEncoding::kIntDelta);
  RoundTripScalars({0.1, 0.2, 0.30000000000000004}, ChunkEncoding::kRaw64);
  RoundTripScalars({-0.0, 0.0, 5.0, -9007199254740992.0, 9007199254740992.0},
                   ChunkEncoding::kRaw64);  // -0.0 is not integral bitwise
}

TEST(BinaryCodec, U64ChunkIsExactForAllMagnitudes) {
  const std::vector<uint64_t> hard = {0, std::numeric_limits<uint64_t>::max(), 1,
                                      uint64_t{1} << 63, 12345};
  std::string out;
  EncodeU64Chunk(out, hard.data(), hard.size());
  ByteReader in(out);
  std::vector<uint64_t> decoded;
  DecodeU64Chunk(in, hard.size(), &decoded);
  EXPECT_EQ(decoded, hard);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(BinaryCodec, BinsRoundTripAndCompressZeroRuns) {
  std::vector<uint64_t> bins(64, 0);
  bins[10] = 7;
  bins[11] = 1;
  bins[40] = 123456;
  std::string out;
  EncodeBins(out, bins.data(), bins.size());
  EXPECT_LT(out.size(), 16u);  // three varints + two zero runs, not 64 values
  ByteReader in(out);
  std::vector<uint64_t> decoded;
  DecodeBins(in, bins.size(), &decoded);
  EXPECT_EQ(decoded, bins);
}

// --- schema header round-trip ---------------------------------------------------

TEST(BinaryHeaders, FileAndGroupHeadersRoundTrip) {
  BinaryFileHeader fh;
  fh.kind = BinaryFileKind::kSweep;
  fh.streamed = true;
  fh.n_groups = 6;
  fh.base_seed = 99;
  fh.replications = 1000;
  fh.scenario = "pipeline_probe";
  fh.param_keys = {"n_metrics", "samples"};
  std::string bytes;
  EncodeFileHeader(bytes, fh);
  ByteReader in(bytes);
  const BinaryFileHeader fh2 = DecodeFileHeader(in);
  EXPECT_EQ(fh2.kind, fh.kind);
  EXPECT_EQ(fh2.streamed, fh.streamed);
  EXPECT_EQ(fh2.n_groups, fh.n_groups);
  EXPECT_EQ(fh2.base_seed, fh.base_seed);
  EXPECT_EQ(fh2.replications, fh.replications);
  EXPECT_EQ(fh2.scenario, fh.scenario);
  EXPECT_EQ(fh2.param_keys, fh.param_keys);
  EXPECT_EQ(in.remaining(), 0u);

  BinaryGroupHeader gh;
  gh.point_index = 3;
  gh.point_seed = 777;
  gh.param_values = {"2", "8"};
  gh.n_rows = 1000;
  gh.scalar_names = {"count_0", "value_0"};
  gh.dist_names = {"latency_hist"};
  gh.dist_geometries = {{0.0, 25.0, 40}};
  std::string gbytes;
  EncodeGroupHeader(gbytes, gh);
  ByteReader gin(gbytes);
  const BinaryGroupHeader gh2 = DecodeGroupHeader(gin);
  EXPECT_EQ(gh2.point_index, gh.point_index);
  EXPECT_EQ(gh2.point_seed, gh.point_seed);
  EXPECT_EQ(gh2.param_values, gh.param_values);
  EXPECT_EQ(gh2.n_rows, gh.n_rows);
  EXPECT_EQ(gh2.scalar_names, gh.scalar_names);
  EXPECT_EQ(gh2.dist_names, gh.dist_names);
  ASSERT_EQ(gh2.dist_geometries.size(), 1u);
  EXPECT_EQ(gh2.dist_geometries[0].lo, 0.0);
  EXPECT_EQ(gh2.dist_geometries[0].bin_width, 25.0);
  EXPECT_EQ(gh2.dist_geometries[0].n_bins, 40u);
  EXPECT_EQ(gin.remaining(), 0u);

  // Scalar columns are a record's metric map in key order; export and the
  // online replay rebuild records from them, so any other order is damage.
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"value_0", "count_0"},
        std::vector<std::string>{"count_0", "count_0"}}) {
    gh.scalar_names = names;
    std::string bad;
    EncodeGroupHeader(bad, gh);
    ByteReader bad_in(bad);
    EXPECT_THROW(DecodeGroupHeader(bad_in), std::runtime_error);
  }
}

// --- end-to-end campaign/sweep fixtures ----------------------------------------

CampaignOptions ProbeCampaign(unsigned jobs, uint64_t reps) {
  CampaignOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = 99;
  options.replications = reps;
  options.jobs = jobs;
  options.params.Set("counters", "3");
  options.params.Set("hist", "true");
  options.params.Set("gauge", "true");
  return options;
}

// Runs a campaign with a binary writer attached; returns the file bytes.
std::string CampaignBinary(unsigned jobs, uint64_t reps, bool stream,
                           CampaignResult* result_out = nullptr) {
  std::ostringstream bin;
  BinaryCampaignWriter writer(bin, stream);
  CampaignOptions options = ProbeCampaign(jobs, reps);
  options.stream = stream;
  options.consumers.push_back(&writer);
  CampaignResult result = RunCampaign(options);
  if (result_out != nullptr) {
    *result_out = std::move(result);
  }
  return bin.str();
}

SweepOptions ProbeSweep(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.grid.AddAxis(ParseSweepAxis("n_metrics=1,2,3"));
  options.grid.AddAxis(ParseSweepAxis("samples=8,32"));
  options.base_seed = 5;
  options.replications = 6;
  options.jobs = jobs;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  return options;
}

std::string SweepBinary(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  std::ostringstream bin;
  BinarySweepWriter writer(bin);
  SweepOptions options = ProbeSweep(jobs, shard_index, shard_count);
  options.point_sinks.push_back(&writer);
  RunSweepCampaign(options);
  return bin.str();
}

TEST(BinaryWriter, CampaignBytesIdenticalAcrossWorkerCounts) {
  EXPECT_EQ(CampaignBinary(1, 64, false), CampaignBinary(8, 64, false));
}

TEST(BinaryWriter, SweepBytesIdenticalAcrossWorkerCounts) {
  EXPECT_EQ(SweepBinary(1, 0, 1), SweepBinary(8, 0, 1));
}

TEST(BinaryWriter, ShardMergeIsByteIdenticalToUnshardedFile) {
  const std::string full = SweepBinary(4, 0, 1);
  std::vector<std::string> shard_paths;
  for (unsigned shard = 0; shard < 3; ++shard) {
    const std::string path =
        testing::TempDir() + "wlsr_shard_" + std::to_string(shard) + ".bin";
    std::ofstream out(path, std::ios::binary);
    out << SweepBinary(4, shard, 3);
    ASSERT_TRUE(out.good());
    shard_paths.push_back(path);
  }
  std::ostringstream merged;
  MergeBinaryFiles(shard_paths, merged);
  EXPECT_EQ(merged.str(), full);
}

TEST(BinaryReader, CampaignExportMatchesCsvWritersByteForByte) {
  std::ostringstream streamed_csv;
  StreamingCsvWriter csv_writer(streamed_csv);
  std::ostringstream bin;
  BinaryCampaignWriter bin_writer(bin, /*streamed=*/false);
  CampaignOptions options = ProbeCampaign(8, 64);
  options.consumers.push_back(&csv_writer);
  options.consumers.push_back(&bin_writer);
  RunCampaign(options);

  EXPECT_EQ(ExportBinaryCsv(ParseBinaryResults(bin.str())), streamed_csv.str());
}

TEST(BinaryReader, ZeroRowCampaignExportsNothingLikeTheCsvWriter) {
  std::ostringstream streamed_csv;
  StreamingCsvWriter csv_writer(streamed_csv);
  std::ostringstream bin;
  BinaryCampaignWriter bin_writer(bin, /*streamed=*/false);
  CampaignOptions options = ProbeCampaign(2, 0);
  options.consumers.push_back(&csv_writer);
  options.consumers.push_back(&bin_writer);
  RunCampaign(options);

  EXPECT_EQ(streamed_csv.str(), "");
  EXPECT_EQ(ExportBinaryCsv(ParseBinaryResults(bin.str())), "");
}

TEST(BinaryReader, SweepExportMatchesLongCsvByteForByte) {
  std::ostringstream bin;
  BinarySweepWriter bin_writer(bin);
  SweepOptions options = ProbeSweep(4, 0, 1);
  options.point_sinks.push_back(&bin_writer);
  const std::string csv = SweepCsv(options);
  EXPECT_EQ(ExportBinaryCsv(ParseBinaryResults(bin.str())), csv);
}

TEST(BinaryReader, StreamedSweepExportReplaysOnlineAggregationByteForByte) {
  std::ostringstream bin;
  BinarySweepWriter bin_writer(bin);
  std::ostringstream streamed_csv;
  StreamingSweepCsvWriter csv_writer(streamed_csv);
  SweepOptions options = ProbeSweep(4, 0, 1);
  options.stream = true;
  options.point_sinks.push_back(&bin_writer);
  options.point_sinks.push_back(&csv_writer);
  RunSweepCampaign(options);
  EXPECT_EQ(ExportBinaryCsv(ParseBinaryResults(bin.str())), streamed_csv.str());
}

TEST(BinaryReader, StreamedCampaignExportReplaysOnlineRowsByteForByte) {
  // In stream mode nothing is buffered, yet the binary file still holds the
  // full record stream: export reproduces the streaming CSV exactly.
  std::ostringstream streamed_csv;
  StreamingCsvWriter csv_writer(streamed_csv);
  std::ostringstream bin;
  BinaryCampaignWriter bin_writer(bin, /*streamed=*/true);
  CampaignOptions options = ProbeCampaign(4, 128);
  options.stream = true;
  options.consumers.push_back(&csv_writer);
  options.consumers.push_back(&bin_writer);
  RunCampaign(options);
  EXPECT_EQ(ExportBinaryCsv(ParseBinaryResults(bin.str())), streamed_csv.str());
}

TEST(BinaryReader, HistogramSnapshotsSurviveTheRoundTrip) {
  RecordCollector memory;
  std::ostringstream bin;
  BinaryCampaignWriter bin_writer(bin, /*streamed=*/false);
  CampaignOptions options = ProbeCampaign(4, 48);
  options.consumers.push_back(&memory);
  options.consumers.push_back(&bin_writer);
  RunCampaign(options);

  const BinaryResultsFile file = ParseBinaryResults(bin.str());
  ASSERT_EQ(file.groups.size(), 1u);
  const BinaryGroupHeader& header = file.groups[0].header;
  ASSERT_EQ(header.dist_names.size(), 1u);
  EXPECT_EQ(header.dist_names[0], "latency_hist");

  std::vector<DistributionSnapshot> decoded;
  ReadDistColumn(file.groups[0], 0, &decoded);
  ASSERT_EQ(decoded.size(), memory.records.size());
  for (size_t i = 0; i < decoded.size(); ++i) {
    const DistributionSnapshot& want = memory.records[i].distributions.at("latency_hist");
    EXPECT_EQ(decoded[i].bins, want.bins) << "row " << i;
    EXPECT_EQ(decoded[i].underflow, want.underflow);
    EXPECT_EQ(decoded[i].overflow, want.overflow);
    EXPECT_EQ(decoded[i].total, want.total);
    EXPECT_DOUBLE_EQ(decoded[i].min, want.min);
    EXPECT_DOUBLE_EQ(decoded[i].max, want.max);
    EXPECT_DOUBLE_EQ(decoded[i].mean, want.mean);
    EXPECT_DOUBLE_EQ(decoded[i].lo, want.lo);
    EXPECT_DOUBLE_EQ(decoded[i].bin_width, want.bin_width);
  }
}

TEST(BinaryReader, AggregateMatchesExactCampaignAggregates) {
  CampaignResult result;
  const std::string bytes = CampaignBinary(4, 64, false, &result);
  EXPECT_EQ(AggregateBinary({ParseBinaryResults(bytes)}),
            ResultSink::AggregatesToCsv(result.aggregates, false));
}

// --- rejection paths ------------------------------------------------------------

TEST(BinaryReader, RejectsForeignAndDamagedFiles) {
  EXPECT_THROW(
      {
        try {
          ParseBinaryResults("replication,value_0\n0,0.5\n");
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("not a wlansim binary results file"),
                    std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  const std::string good = CampaignBinary(1, 32, false);

  // Cut off mid-group: every prefix must fail loudly, never mis-parse.
  EXPECT_THROW(
      {
        try {
          ParseBinaryResults(good.substr(0, good.size() - 7));
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);

  // Flip one body byte: the group CRC must catch it.
  std::string corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_THROW(ParseBinaryResults(corrupt), std::runtime_error);

  // Trailing garbage after the last group is damage too, not slack.
  EXPECT_THROW(ParseBinaryResults(good + "x"), std::runtime_error);
}

TEST(BinaryWriter, RejectsSchemaDriftLikeTheCsvWriter) {
  GroupEncoder encoder;
  ReplicationRecord first;
  first.replication = 0;
  first.metrics["a"] = 1.0;
  encoder.AddRecord(first);

  ReplicationRecord drifted;
  drifted.replication = 1;
  drifted.metrics["a"] = 2.0;
  drifted.metrics["extra"] = 3.0;
  EXPECT_THROW(encoder.AddRecord(drifted), std::runtime_error);
}

TEST(BinaryWriter, RejectsSecondCampaignLikeTheCsvWriter) {
  std::ostringstream bin;
  BinaryCampaignWriter writer(bin, /*streamed=*/false);
  CampaignOptions options = ProbeCampaign(2, 4);
  options.consumers.push_back(&writer);
  RunCampaign(options);
  EXPECT_THROW(RunCampaign(options), std::logic_error);
}

// --- streamed sweep CSV (reorder-buffered long-format streaming) ---------------

TEST(SweepStreamCsv, StreamedLongCsvMatchesRetainedPoints) {
  // Exact mode, streaming writer riding the point sinks: rows hit the
  // stream in grid order as points complete out of order across 8 workers,
  // and hold exactly the aggregates the sweep retains per point.
  SweepResult result;
  const std::string streamed = SweepCsv(ProbeSweep(8, 0, 1), &result);
  std::string expected = ResultSink::SweepLongCsvHeader(result.param_keys, result.streamed);
  for (const SweepPointResult& point : result.points) {
    std::vector<std::string> values;
    for (const auto& [key, value] : point.point) {
      values.push_back(value);
    }
    expected += ResultSink::SweepLongCsvRows(values, point.aggregates);
  }
  EXPECT_EQ(result.points.size(), 6u);
  EXPECT_EQ(streamed, expected);
}

TEST(SweepStreamCsv, WorksWithoutRetainedPoints) {
  // retain_points=false is the at-scale configuration: the sinks are the
  // only output. The streamed CSV must still be byte-identical to what a
  // retaining run produces.
  const std::string retained = SweepCsv(ProbeSweep(4, 0, 1));
  std::ostringstream streamed;
  StreamingSweepCsvWriter writer(streamed);
  SweepOptions options = ProbeSweep(4, 0, 1);
  options.point_sinks.push_back(&writer);
  options.retain_points = false;
  const SweepResult result = RunSweepCampaign(options);
  EXPECT_TRUE(result.points.empty());
  EXPECT_EQ(streamed.str(), retained);
}

}  // namespace
}  // namespace wlansim
