#include "query/engine.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "results/binary_reader.h"
#include "runner/result_sink.h"

namespace wlansim {
namespace {

std::vector<std::string> Tokenize(const std::string& query) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : query) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : list) {
    if (c == ',') {
      parts.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(std::move(current));
  for (const std::string& part : parts) {
    if (part.empty()) {
      throw std::runtime_error("malformed list '" + list + "' (empty element)");
    }
  }
  return parts;
}

struct Filter {
  std::vector<std::pair<size_t, std::string>> clauses;  // (param index, value)
};

size_t ParamIndex(const Collection& c, const std::string& key) {
  for (size_t k = 0; k < c.param_keys.size(); ++k) {
    if (c.param_keys[k] == key) {
      return k;
    }
  }
  throw std::runtime_error("unknown sweep parameter '" + key + "' in collection '" + c.name +
                           "'");
}

// Parses `key=value [AND key=value ...]` starting at tokens[pos], stopping
// at end of tokens or the GROUP keyword. Advances pos past what it consumed.
Filter ParseWhere(const Collection& c, const std::vector<std::string>& tokens, size_t& pos) {
  Filter filter;
  while (pos < tokens.size() && tokens[pos] != "GROUP") {
    if (!filter.clauses.empty()) {
      if (tokens[pos] != "AND") {
        throw std::runtime_error("malformed WHERE clause: expected AND before '" + tokens[pos] +
                                 "'");
      }
      ++pos;
      if (pos >= tokens.size()) {
        throw std::runtime_error("malformed WHERE clause: dangling AND");
      }
    }
    const std::string& clause = tokens[pos];
    const size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size()) {
      throw std::runtime_error("malformed WHERE clause '" + clause + "' (expected key=value)");
    }
    filter.clauses.emplace_back(ParamIndex(c, clause.substr(0, eq)), clause.substr(eq + 1));
    ++pos;
  }
  if (filter.clauses.empty()) {
    throw std::runtime_error("malformed WHERE clause: no conditions");
  }
  return filter;
}

bool Matches(const Filter& filter, const BinaryGroupHeader& header) {
  for (const auto& [index, value] : filter.clauses) {
    if (header.param_values[index] != value) {
      return false;
    }
  }
  return true;
}

const Collection& FindCollection(const Catalog& catalog, const std::string& name) {
  const Collection* c = catalog.Find(name);
  if (c == nullptr) {
    throw std::runtime_error("unknown collection '" + name + "'");
  }
  return *c;
}

// Validates a SELECT metric list against the collection's union schema.
// Returns an empty vector for "*" (caller expands it per bucket, so each
// grid point reports its own schema exactly as the offline aggregate does).
std::vector<std::string> ResolveMetrics(const Collection& c,
                                        const std::vector<std::string>& names) {
  if (names.size() == 1 && names.front() == "*") {
    return {};
  }
  for (const std::string& name : names) {
    if (!std::binary_search(c.scalar_names.begin(), c.scalar_names.end(), name)) {
      throw std::runtime_error("unknown metric '" + name + "' in collection '" + c.name + "'");
    }
  }
  return names;
}

// The scalar column index of `name` in one group's own schema; throws when
// the group does not carry the metric (sweep points may differ in schema).
size_t ColumnIndexIn(const GroupRef& ref, const std::string& name) {
  const std::vector<std::string>& names = ref.group().header.scalar_names;
  auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::runtime_error("metric '" + name + "' is not present at grid point " +
                             std::to_string(ref.group().header.point_index));
  }
  return static_cast<size_t>(it - names.begin());
}

// One exact aggregate per named metric over the members' columns pooled in
// member order, each pooled buffer moved into the fold.
std::vector<MetricAggregate> PooledAggregates(ExtentCache& cache,
                                              const std::vector<GroupRef>& members,
                                              const std::vector<std::string>& names) {
  size_t rows = 0;
  for (const GroupRef& ref : members) {
    rows += ref.group().header.n_rows;
  }
  std::vector<MetricAggregate> aggregates;
  aggregates.reserve(names.size());
  for (const std::string& name : names) {
    std::vector<double> pooled;
    pooled.reserve(rows);
    for (const GroupRef& ref : members) {
      const ColumnPtr values = cache.GetScalarColumn(ref, ColumnIndexIn(ref, name));
      pooled.insert(pooled.end(), values->begin(), values->end());
    }
    aggregates.push_back(ExactAggregate(name, std::move(pooled)));
  }
  return aggregates;
}

}  // namespace

std::string QueryEngine::Execute(const std::string& query) {
  const std::vector<std::string> tokens = Tokenize(query);
  if (tokens.empty()) {
    throw std::runtime_error("empty query");
  }
  const std::string& verb = tokens.front();

  if (verb == "LIST") {
    if (tokens.size() != 1) {
      throw std::runtime_error("LIST takes no arguments");
    }
    return catalog_->Describe();
  }

  if (verb == "SCHEMA") {
    if (tokens.size() != 2) {
      throw std::runtime_error("usage: SCHEMA <collection>");
    }
    return catalog_->DescribeSchema(tokens[1]);
  }

  if (verb == "AGGREGATE") {
    if (tokens.size() != 2) {
      throw std::runtime_error("usage: AGGREGATE <collection>");
    }
    // AGGREGATE is sugar for the full default SELECT; one code path, one
    // byte stream.
    return Execute("SELECT * FROM " + tokens[1]);
  }

  if (verb == "HIST") {
    if (tokens.size() < 3) {
      throw std::runtime_error("usage: HIST <collection> <dist-column> [WHERE ...]");
    }
    const Collection& c = FindCollection(*catalog_, tokens[1]);
    const std::string& dist_name = tokens[2];
    if (!std::binary_search(c.dist_names.begin(), c.dist_names.end(), dist_name)) {
      throw std::runtime_error("unknown distribution column '" + dist_name +
                               "' in collection '" + c.name + "'");
    }
    if (c.dist_geometry_conflicts.count(dist_name) != 0) {
      throw std::runtime_error("distribution column '" + dist_name +
                               "' has different bin geometries across the collection's groups; "
                               "their bins cannot be merged");
    }
    Filter filter;
    bool filtered = false;
    size_t pos = 3;
    if (pos < tokens.size()) {
      if (tokens[pos] != "WHERE") {
        throw std::runtime_error("unexpected token '" + tokens[pos] + "' after HIST column");
      }
      ++pos;
      filter = ParseWhere(c, tokens, pos);
      filtered = true;
      if (pos != tokens.size()) {
        throw std::runtime_error("unexpected token '" + tokens[pos] + "' after WHERE clause");
      }
    }

    // Merge the selected rows' snapshots in canonical row order: exact
    // integer sums for the counts, min/max over the rows that saw samples,
    // mean weighted by each row's sample count (fold order = row order, so
    // the result is independent of sharding and cache state).
    const DistGeometry& geo = c.dist_geometry.at(dist_name);
    std::vector<uint64_t> bins(geo.n_bins, 0);
    uint64_t underflow = 0, overflow = 0, total = 0;
    double min = 0.0, max = 0.0, weighted_sum = 0.0;
    bool any = false;
    std::vector<DistributionSnapshot> rows;
    for (const GroupRef& ref : c.GroupsInOrder()) {
      if (filtered && !Matches(filter, ref.group().header)) {
        continue;
      }
      const std::vector<std::string>& group_dists = ref.group().header.dist_names;
      auto dist_it = std::find(group_dists.begin(), group_dists.end(), dist_name);
      if (dist_it == group_dists.end()) {
        throw std::runtime_error("distribution column '" + dist_name +
                                 "' is not present at grid point " +
                                 std::to_string(ref.group().header.point_index) +
                                 "; add a WHERE clause to restrict the rows");
      }
      const size_t dist = static_cast<size_t>(dist_it - group_dists.begin());
      ReadDistColumn(ref.group(), dist, &rows);
      for (const DistributionSnapshot& row : rows) {
        for (size_t b = 0; b < bins.size(); ++b) {
          bins[b] += row.bins[b];
        }
        underflow += row.underflow;
        overflow += row.overflow;
        total += row.total;
        weighted_sum += row.mean * static_cast<double>(row.total);
        if (row.total > 0) {
          if (!any || row.min < min) min = row.min;
          if (!any || row.max > max) max = row.max;
          any = true;
        }
      }
    }
    const double mean = total > 0 ? weighted_sum / static_cast<double>(total) : 0.0;
    std::string text = "hist " + dist_name + " count=" + std::to_string(total) +
                       " underflow=" + std::to_string(underflow) +
                       " overflow=" + std::to_string(overflow) + " min=" + CsvNum(min) +
                       " max=" + CsvNum(max) + " mean=" + CsvNum(mean) + "\n";
    text += "bin,lo,count\n";
    for (size_t b = 0; b < bins.size(); ++b) {
      if (bins[b] != 0) {
        text += std::to_string(b) + "," + CsvNum(geo.lo + static_cast<double>(b) * geo.bin_width) +
                "," + std::to_string(bins[b]) + "\n";
      }
    }
    return text;
  }

  if (verb != "SELECT") {
    throw std::runtime_error("unknown query verb '" + verb + "'");
  }

  // SELECT <metrics> FROM <collection> [WHERE ...] [GROUP BY ...]
  size_t from = 1;
  while (from < tokens.size() && tokens[from] != "FROM") {
    ++from;
  }
  if (from == 1 || from + 1 >= tokens.size()) {
    throw std::runtime_error("usage: SELECT <metrics|*> FROM <collection> [WHERE ...] "
                             "[GROUP BY ...]");
  }
  // The metric list may be split across tokens ("a, b"), but adjacent
  // tokens must be joined by a comma — otherwise "SELECT a b FROM c" would
  // silently fuse into the single metric "ab".
  std::string metric_list;
  for (size_t i = 1; i < from; ++i) {
    if (i > 1 && metric_list.back() != ',' && tokens[i].front() != ',') {
      throw std::runtime_error("malformed metric list: '" + tokens[i - 1] + " " + tokens[i] +
                               "' is missing a comma between metrics");
    }
    metric_list += tokens[i];
  }
  const Collection& c = FindCollection(*catalog_, tokens[from + 1]);
  // Empty = "*": every bucket reports its own full schema.
  const std::vector<std::string> metrics = ResolveMetrics(c, SplitCommas(metric_list));

  Filter filter;
  bool filtered = false;
  std::vector<std::string> group_keys;
  bool explicit_group = false;
  size_t pos = from + 2;
  while (pos < tokens.size()) {
    if (tokens[pos] == "WHERE") {
      if (filtered) {
        throw std::runtime_error("duplicate WHERE clause");
      }
      ++pos;
      filter = ParseWhere(c, tokens, pos);
      filtered = true;
    } else if (tokens[pos] == "GROUP") {
      if (explicit_group) {
        throw std::runtime_error("duplicate GROUP BY clause");
      }
      if (pos + 2 >= tokens.size() || tokens[pos + 1] != "BY") {
        throw std::runtime_error("malformed GROUP BY clause");
      }
      group_keys = SplitCommas(tokens[pos + 2]);
      for (const std::string& key : group_keys) {
        ParamIndex(c, key);  // validates
      }
      explicit_group = true;
      pos += 3;
    } else {
      throw std::runtime_error("unexpected token '" + tokens[pos] + "'");
    }
  }

  if (c.kind == BinaryFileKind::kCampaign) {
    if (filtered || explicit_group) {
      throw std::runtime_error("collection '" + c.name +
                               "' is a campaign (no sweep parameters to filter or group by)");
    }
    // One pooled sample set: member files' columns concatenated in path
    // order — the same fold AggregateBinary runs over the same file order.
    // Campaign members share one schema (registration enforces it), so the
    // union IS every member's column list.
    const std::vector<std::string>& names = metrics.empty() ? c.scalar_names : metrics;
    return ResultSink::AggregatesToCsv(PooledAggregates(*cache_, c.GroupsInOrder(), names));
  }

  // Sweep: default grouping is every sweep parameter, making the default
  // SELECT row set identical to the offline long-format aggregate.
  if (!explicit_group) {
    group_keys = c.param_keys;
  }
  std::vector<size_t> key_indices;
  key_indices.reserve(group_keys.size());
  for (const std::string& key : group_keys) {
    key_indices.push_back(ParamIndex(c, key));
  }

  // Partition the matching grid points by key tuple. Buckets keep their
  // members in ascending grid-point order (GroupsInOrder already is) and
  // are emitted in order of first appearance — both pure functions of the
  // grid, never of registration order.
  std::vector<std::pair<std::vector<std::string>, std::vector<GroupRef>>> buckets;
  std::map<std::vector<std::string>, size_t> bucket_index;
  for (const GroupRef& ref : c.GroupsInOrder()) {
    if (filtered && !Matches(filter, ref.group().header)) {
      continue;
    }
    std::vector<std::string> key;
    key.reserve(key_indices.size());
    for (size_t k : key_indices) {
      key.push_back(ref.group().header.param_values[k]);
    }
    auto [it2, created] = bucket_index.try_emplace(key, buckets.size());
    if (created) {
      buckets.emplace_back(std::move(key), std::vector<GroupRef>{});
    }
    buckets[it2->second].second.push_back(ref);
  }
  if (buckets.empty()) {
    throw std::runtime_error("no grid points match the WHERE clause");
  }

  std::string csv = ResultSink::SweepLongCsvHeader(group_keys, false);
  for (const auto& [key, members] : buckets) {
    // "*" expands to the bucket's own schema — exactly the point's column
    // list under the default per-point grouping, which is what keeps the
    // default SELECT byte-identical to the offline aggregate even when
    // sweep points differ in schema. Pooling across members requires them
    // to agree on it.
    const std::vector<std::string>& names =
        metrics.empty() ? members.front().group().header.scalar_names : metrics;
    if (metrics.empty()) {
      for (const GroupRef& ref : members) {
        if (ref.group().header.scalar_names != names) {
          throw std::runtime_error(
              "grid points pooled into one GROUP BY bucket disagree on their metric set; "
              "select explicit metrics instead of *");
        }
      }
    }
    csv += ResultSink::SweepLongCsvRows(key, PooledAggregates(*cache_, members, names));
  }
  return csv;
}

}  // namespace wlansim
