#include "runner/sweep.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/random.h"
#include "runner/campaign.h"
#include "runner/result_consumer.h"
#include "runner/scenario_registry.h"

namespace wlansim {
namespace {

[[noreturn]] void ThrowBadSpec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("malformed --sweep spec '" + spec + "': " + why);
}

bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  try {
    size_t consumed = 0;
    *out = std::stod(s, &consumed);
    return consumed == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

// KEY=lo:hi:step, inclusive of hi when it lands on the lattice (within half
// a ULP-ish tolerance so 0.1 steps behave).
std::vector<std::string> ExpandRange(const std::string& spec, const std::string& body) {
  const size_t c1 = body.find(':');
  const size_t c2 = body.find(':', c1 + 1);
  if (c2 == std::string::npos || body.find(':', c2 + 1) != std::string::npos) {
    ThrowBadSpec(spec, "range syntax is lo:hi:step");
  }
  double lo = 0, hi = 0, step = 0;
  if (!ParseNumber(body.substr(0, c1), &lo) ||
      !ParseNumber(body.substr(c1 + 1, c2 - c1 - 1), &hi) ||
      !ParseNumber(body.substr(c2 + 1), &step)) {
    ThrowBadSpec(spec, "range bounds and step must be numbers");
  }
  if (step <= 0) {
    ThrowBadSpec(spec, "range step must be > 0");
  }
  if (hi < lo) {
    ThrowBadSpec(spec, "range needs lo <= hi");
  }
  std::vector<std::string> values;
  const double tolerance = step * 1e-9;
  for (uint64_t i = 0;; ++i) {
    const double v = lo + static_cast<double>(i) * step;
    if (v > hi + tolerance) {
      break;
    }
    // The CSV writers' number format, so a range-generated value string is
    // identical to what the output file prints.
    values.push_back(CsvNum(v));
    if (values.size() > 1000000) {
      ThrowBadSpec(spec, "range expands to more than 10^6 values");
    }
  }
  return values;
}

}  // namespace

SweepAxis ParseSweepAxis(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    ThrowBadSpec(spec, "expected KEY=v1,v2,... or KEY=lo:hi:step");
  }
  SweepAxis axis;
  axis.key = spec.substr(0, eq);
  const std::string body = spec.substr(eq + 1);
  if (body.empty()) {
    ThrowBadSpec(spec, "empty value list");
  }
  if (body.find(':') != std::string::npos && body.find(',') == std::string::npos) {
    axis.values = ExpandRange(spec, body);
    return axis;
  }
  size_t start = 0;
  while (true) {
    const size_t comma = body.find(',', start);
    const std::string value = body.substr(start, comma - start);
    if (value.empty()) {
      ThrowBadSpec(spec, "empty value in list");
    }
    axis.values.push_back(value);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return axis;
}

void SweepGrid::AddAxis(SweepAxis axis) {
  if (axis.values.empty()) {
    throw std::invalid_argument("sweep axis '" + axis.key + "' has no values");
  }
  for (const SweepAxis& existing : axes_) {
    if (existing.key == axis.key) {
      throw std::invalid_argument("duplicate sweep key '" + axis.key + "'");
    }
  }
  axes_.push_back(std::move(axis));
}

size_t SweepGrid::NumPoints() const {
  size_t n = 1;
  for (const SweepAxis& axis : axes_) {
    n *= axis.values.size();
  }
  return n;
}

std::vector<std::string> SweepGrid::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(axes_.size());
  for (const SweepAxis& axis : axes_) {
    keys.push_back(axis.key);
  }
  return keys;
}

std::vector<std::pair<std::string, std::string>> SweepGrid::Point(size_t index) const {
  std::vector<std::pair<std::string, std::string>> point(axes_.size());
  // Row-major: the last axis is the fastest-varying digit.
  for (size_t a = axes_.size(); a-- > 0;) {
    const std::vector<std::string>& values = axes_[a].values;
    point[a] = {axes_[a].key, values[index % values.size()]};
    index /= values.size();
  }
  return point;
}

std::pair<size_t, size_t> ShardRange(size_t total, unsigned index, unsigned count) {
  if (count == 0 || index >= count) {
    throw std::invalid_argument("shard must be i/n with 0 <= i < n");
  }
  const size_t begin = total * index / count;
  const size_t end = total * (index + 1) / count;
  return {begin, end};
}

void StreamingSweepCsvWriter::BeginSweep(const SweepManifest& manifest) {
  if (begun_) {
    throw std::logic_error(
        "StreamingSweepCsvWriter attached to a second sweep: one writer, one stream");
  }
  begun_ = true;
  streamed_ = manifest.streamed;
  out_ << ResultSink::SweepLongCsvHeader(manifest.param_keys, streamed_);
}

void StreamingSweepCsvWriter::OnPointDone(const SweepPointInfo& info,
                                          const std::vector<MetricAggregate>& aggregates,
                                          ResultConsumer* point_consumer) {
  (void)point_consumer;
  std::vector<std::string> values;
  values.reserve(info.point.size());
  for (const auto& [key, value] : info.point) {
    values.push_back(value);
  }
  out_ << ResultSink::SweepLongCsvRows(values, aggregates);
}

void StreamingSweepCsvWriter::EndSweep() {
  out_.flush();
  if (!out_) {
    throw std::runtime_error("streaming sweep CSV write failed");
  }
}

uint64_t SweepPointSeed(uint64_t base_seed,
                        const std::vector<std::pair<std::string, std::string>>& point) {
  // Key the substream by the sorted parameter assignment: the seed is a pure
  // function of (base_seed, what the point sets), never of grid index, shard
  // layout, or the order axes were declared in. Keys and values are
  // length-prefixed so the encoding is injective — no two distinct
  // assignments serialize to the same stream name, whatever characters the
  // values contain.
  std::vector<std::pair<std::string, std::string>> sorted = point;
  std::sort(sorted.begin(), sorted.end());
  std::string stream = "sweep";
  for (const auto& [key, value] : sorted) {
    stream += "|";
    stream += std::to_string(key.size());
    stream += ",";
    stream += std::to_string(value.size());
    stream += ":";
    stream += key;
    stream += "=";
    stream += value;
  }
  return SubstreamSeed(base_seed, stream, 0);
}

SweepResult RunSweepCampaign(const SweepOptions& options) {
  for (const SweepAxis& axis : options.grid.axes()) {
    if (options.base_params.Has(axis.key)) {
      throw std::invalid_argument("parameter '" + axis.key +
                                  "' given both as --param and --sweep");
    }
  }

  const size_t total = options.grid.NumPoints();
  const auto [begin, end] = ShardRange(total, options.shard_index, options.shard_count);

  // Validate the whole grid's keys up front (all points share them), so an
  // unknown parameter fails fast even when this shard's slice is empty.
  const Scenario& scenario = ScenarioRegistry::Global().Get(options.scenario);
  {
    ScenarioParams probe = options.base_params;
    for (const auto& [key, value] : options.grid.Point(0)) {
      probe.Set(key, value);
    }
    scenario.ValidateParams(probe);
  }

  SweepResult result;
  result.scenario = options.scenario;
  result.base_seed = options.base_seed;
  result.replication_count = options.replications;
  result.streamed = options.stream;
  result.param_keys = options.grid.Keys();

  // Announce the sweep to the point sinks before any point is set up, so
  // MakePointConsumer always runs on a sink that has seen its manifest.
  const size_t n_points = end - begin;
  SweepManifest sweep_manifest;
  sweep_manifest.scenario = options.scenario;
  sweep_manifest.base_seed = options.base_seed;
  sweep_manifest.replications = options.replications;
  sweep_manifest.streamed = options.stream;
  sweep_manifest.param_keys = result.param_keys;
  sweep_manifest.shard_points = n_points;
  sweep_manifest.total_points = total;
  for (SweepPointSink* sink : options.point_sinks) {
    sink->BeginSweep(sweep_manifest);
  }

  // Replication seeds are keyed by (point assignment, rep), never by which
  // thread or in what order a task runs, so the output is byte-identical for
  // any --jobs value and any shard split.
  std::vector<SweepPointInfo> point_infos(n_points);
  std::vector<RunPoint> points(n_points);
  // Per point, one optional consumer per sink (parallel to point_sinks).
  std::vector<std::vector<std::unique_ptr<ResultConsumer>>> point_consumers(n_points);
  for (size_t p = 0; p < n_points; ++p) {
    SweepPointInfo& info = point_infos[p];
    info.point_index = begin + p;
    info.point = options.grid.Point(begin + p);
    info.point_seed = SweepPointSeed(options.base_seed, info.point);
    points[p].params = options.base_params;
    for (const auto& [key, value] : info.point) {
      points[p].params.Set(key, value);
    }
    points[p].seed = info.point_seed;
    point_consumers[p].reserve(options.point_sinks.size());
    for (SweepPointSink* sink : options.point_sinks) {
      std::unique_ptr<ResultConsumer> consumer = sink->MakePointConsumer(info);
      if (consumer != nullptr) {
        points[p].consumers.push_back(consumer.get());
      }
      point_consumers[p].push_back(std::move(consumer));
    }
  }
  if (options.retain_points) {
    result.points.resize(n_points);
    for (size_t p = 0; p < n_points; ++p) {
      result.points[p].point_index = point_infos[p].point_index;
      result.points[p].point = point_infos[p].point;
    }
  }

  RunPoints(scenario, points, options.replications, options.jobs, options.stream,
            [&](size_t p, std::vector<MetricAggregate> aggregates) {
              for (size_t s = 0; s < options.point_sinks.size(); ++s) {
                options.point_sinks[s]->OnPointDone(point_infos[p], aggregates,
                                                    point_consumers[p][s].get());
              }
              point_consumers[p].clear();
              if (options.retain_points) {
                result.points[p].aggregates = std::move(aggregates);
              }
            });

  for (SweepPointSink* sink : options.point_sinks) {
    sink->EndSweep();
  }
  return result;
}

}  // namespace wlansim
