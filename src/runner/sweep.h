// Parameter-sweep campaigns: expand a cartesian grid of scenario parameters,
// feed every (grid point, replication) pair of this shard through one global
// worker pool, and aggregate everything into one long-format table. The
// flattened task queue keeps the pool saturated even when replications <
// jobs (per-point batching would idle the spare workers at every point).
// Replication seeds are derived from the *parameter assignment* of each
// point (not its grid index, shard, or worker), so results are
// byte-identical for any --jobs value, any --shard=i/n split, and even any
// axis ordering.

#ifndef WLANSIM_RUNNER_SWEEP_H_
#define WLANSIM_RUNNER_SWEEP_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/scenario.h"

namespace wlansim {

// One swept parameter: a key and its ordered value list.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

// Parses one "--sweep" spec into an axis. Two forms:
//   KEY=v1,v2,v3       explicit value list
//   KEY=lo:hi:step     inclusive numeric range (step > 0, lo <= hi)
// Values are kept as strings so they round-trip unchanged through
// ScenarioParams and the output CSV; range endpoints are formatted with the
// same fixed "%.9g" convention the CSV writers use. Throws
// std::invalid_argument on a malformed spec (missing '=', empty key, empty
// value list, empty list element, non-numeric or non-advancing range).
SweepAxis ParseSweepAxis(const std::string& spec);

// An ordered list of axes defining a cartesian parameter grid. Point i
// enumerates the grid with the FIRST axis varying slowest and the last axis
// fastest (row-major), so the combined CSV reads like nested loops.
class SweepGrid {
 public:
  // Throws std::invalid_argument when the axis key duplicates an existing
  // axis or the axis has no values.
  void AddAxis(SweepAxis axis);

  bool empty() const { return axes_.empty(); }
  size_t NumPoints() const;  // product of axis sizes; 1 for an empty grid

  // Axis keys in axis order: the parameter columns of the long-format CSV.
  std::vector<std::string> Keys() const;

  // Grid point `index` as ordered (key, value) pairs, one per axis.
  std::vector<std::pair<std::string, std::string>> Point(size_t index) const;

  const std::vector<SweepAxis>& axes() const { return axes_; }

 private:
  std::vector<SweepAxis> axes_;
};

// Contiguous [begin, end) slice of `total` grid points owned by shard
// `index` of `count`. Slices are disjoint, cover every point exactly once,
// and are stable: concatenating the slices for shards 0..count-1 in order
// reproduces 0..total exactly, which is what lets shard CSVs be merged
// byte-for-byte into the unsharded output. Throws std::invalid_argument when
// count == 0 or index >= count.
std::pair<size_t, size_t> ShardRange(size_t total, unsigned index, unsigned count);

// What a point sink knows about the sweep before the first point.
struct SweepManifest {
  std::string scenario;
  uint64_t base_seed = 1;
  uint64_t replications = 0;  // per grid point
  bool streamed = false;      // per-point aggregation is online (P-square)
  std::vector<std::string> param_keys;  // axis keys, axis order
  size_t shard_points = 0;  // grid points this shard runs
  size_t total_points = 0;  // whole grid
};

// Identity of one grid point, as handed to point sinks.
struct SweepPointInfo {
  size_t point_index = 0;  // global grid index, not shard-local
  uint64_t point_seed = 0;
  std::vector<std::pair<std::string, std::string>> point;  // (key, value), axis order
};

// A sweep-wide consumer of per-point completions. Points finish in
// completion order on the worker pool, but the engine re-orders them
// (reorder buffer keyed by grid index, the same trick ResultPipeline plays
// per replication) so OnPointDone always fires in ascending grid order,
// serialized — sinks need no synchronization and can stream ordered output
// while later points are still running.
class SweepPointSink {
 public:
  virtual ~SweepPointSink() = default;

  // Called once, before any point runs.
  virtual void BeginSweep(const SweepManifest& manifest) { (void)manifest; }

  // A sink may request a per-point ResultConsumer, attached to that point's
  // result pipeline (records arrive in replication order, serialized). The
  // engine owns the consumer and hands it back in OnPointDone so the sink
  // can harvest whatever it accumulated. Return nullptr (the default) when
  // the per-point aggregates suffice. Called serially during sweep setup,
  // in grid order, before any replication runs.
  virtual std::unique_ptr<ResultConsumer> MakePointConsumer(const SweepPointInfo& info) {
    (void)info;
    return nullptr;
  }

  // Called once per grid point, in grid order. `point_consumer` is the
  // consumer MakePointConsumer returned for this point (nullptr otherwise)
  // and dies when OnPointDone returns.
  virtual void OnPointDone(const SweepPointInfo& info,
                           const std::vector<MetricAggregate>& aggregates,
                           ResultConsumer* point_consumer) = 0;

  // Called once, after the last point.
  virtual void EndSweep() {}
};

// Streams the long-format sweep CSV (header + one row per point and metric)
// to `out` as points complete; a run's only sweep CSV writer. The header is
// a pure function of the manifest and each point's rows are a pure function
// of its aggregates, so nothing needs to wait for the sweep to end.
class StreamingSweepCsvWriter final : public SweepPointSink {
 public:
  explicit StreamingSweepCsvWriter(std::ostream& out) : out_(out) {}

  void BeginSweep(const SweepManifest& manifest) override;
  void OnPointDone(const SweepPointInfo& info,
                   const std::vector<MetricAggregate>& aggregates,
                   ResultConsumer* point_consumer) override;
  void EndSweep() override;

 private:
  std::ostream& out_;
  bool streamed_ = false;
  bool begun_ = false;
};

struct SweepOptions {
  std::string scenario;
  // Applied to every grid point. A key may not be both a base param and a
  // sweep axis: RunSweepCampaign rejects the ambiguity.
  ScenarioParams base_params;
  SweepGrid grid;
  uint64_t base_seed = 1;
  uint64_t replications = 1;
  // Worker threads for the shard's whole (point, replication) task queue
  // (0 = hardware concurrency, same meaning as CampaignOptions::jobs).
  unsigned jobs = 1;
  // This process runs the grid points in ShardRange(n, shard_index, shard_count).
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  // Streaming mode: each grid point aggregates online (Welford + P-square
  // quantiles) instead of buffering its replication rows, so per-point peak
  // memory is O(metrics) however many replications run. The long CSV's
  // quantile columns are then labeled p50_approx/p95_approx. Off by
  // default: exact aggregation keeps each point's metric values for exact
  // quantiles.
  bool stream = false;
  // Per-point completion sinks (not owned, must outlive RunSweepCampaign).
  // Each receives every point in grid order; see SweepPointSink.
  std::vector<SweepPointSink*> point_sinks;
  // When false, SweepResult::points stays empty — the sinks are the only
  // output, and peak memory no longer grows with the shard's point count.
  // (Aggregates are still computed per point and handed to the sinks.)
  bool retain_points = true;
};

// Aggregates for one grid point.
struct SweepPointResult {
  size_t point_index = 0;  // global grid index, not shard-local
  std::vector<std::pair<std::string, std::string>> point;  // (key, value), axis order
  std::vector<MetricAggregate> aggregates;                 // ordered by metric name
};

struct SweepResult {
  std::string scenario;
  uint64_t base_seed = 1;
  uint64_t replication_count = 1;  // per grid point, as in CampaignResult
  bool streamed = false;  // aggregates' p50/p95 are P-square estimates
  std::vector<std::string> param_keys;   // axis keys, axis order
  std::vector<SweepPointResult> points;  // this shard's slice, grid order
};

// The base seed for one grid point's replication batch: a substream of
// `base_seed` keyed by the point's sorted key=value assignment. Exposed so
// tests can assert shard/order independence directly.
uint64_t SweepPointSeed(uint64_t base_seed,
                        const std::vector<std::pair<std::string, std::string>>& point);

// Expands the grid, takes this shard's slice, and runs one Campaign
// (options.replications replications on options.jobs threads) per grid
// point. Throws std::invalid_argument for an unknown scenario, an unknown or
// ambiguous parameter, or an invalid shard spec.
SweepResult RunSweepCampaign(const SweepOptions& options);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_SWEEP_H_
