// The Campaign runner: executes N independent replications of a registered
// scenario across a std::thread worker pool. Each replication gets its own
// Simulator (built inside the scenario) and a substream-derived seed, so
// results are deterministic and byte-identical for any worker count.
//
// Campaigns and sweeps share one run loop, RunPoints: a campaign is the
// one-point case (seeded by base_seed), a sweep runs its shard's grid points
// (each seeded by SweepPointSeed) through the same (point, replication)
// task queue.

#ifndef WLANSIM_RUNNER_CAMPAIGN_H_
#define WLANSIM_RUNNER_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/scenario.h"

namespace wlansim {

struct CampaignOptions {
  std::string scenario;
  ScenarioParams params;
  uint64_t base_seed = 1;
  uint64_t replications = 1;
  // Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned jobs = 1;
  // Streaming mode: aggregates come from the online path — Welford
  // summaries plus P-square p50/p95 in O(metrics) memory — so peak memory
  // is independent of the replication count. Off by default: exact
  // aggregation keeps every metric's values for exact quantiles.
  bool stream = false;
  // Extra consumers fanned out by the result pipeline (not owned, must
  // outlive Run). They see every ReplicationRecord in replication order, in
  // both modes — this is how rows stream to disk while the campaign runs.
  std::vector<ResultConsumer*> consumers;
};

struct CampaignResult {
  std::string scenario;
  uint64_t base_seed = 1;
  uint64_t replication_count = 0;
  // True when the campaign ran the online aggregation path: aggregates'
  // p50/p95 are P-square estimates and must be labeled approximate.
  bool streamed = false;
  std::vector<MetricAggregate> aggregates;  // ordered by metric name
};

// One point of a run: the params every replication of it runs with, the base
// seed its replication seeds derive from, and the consumers (not owned, must
// outlive the run) that see its records after the built-in aggregator.
struct RunPoint {
  ScenarioParams params;
  uint64_t seed = 1;
  std::vector<ResultConsumer*> consumers;
};

// The one run loop behind Campaign::Run and RunSweepCampaign. Runs
// `replications` replications of every point through one shared (point,
// replication) task queue on `jobs` worker threads (0 = hardware
// concurrency). Replication r of point p runs `scenario` with
// points[p].params and seed SubstreamSeed(points[p].seed, scenario.name(), r),
// so no result depends on which thread runs it. Each point owns a
// ResultPipeline carrying one aggregator (MakeAggregator(stream)) then
// points[p].consumers; every pipeline begins, in point order, before any
// replication runs. A point ends once its last record is delivered (at once
// when `replications` is zero); on_done(p, its aggregates ordered by metric
// name) then fires, serialized and in ascending point order. The first
// scenario exception is rethrown on the calling thread.
void RunPoints(const Scenario& scenario, const std::vector<RunPoint>& points,
               uint64_t replications, unsigned jobs, bool stream,
               const std::function<void(size_t, std::vector<MetricAggregate>)>& on_done);

class Campaign {
 public:
  explicit Campaign(const Scenario& scenario) : scenario_(scenario) {}

  // Runs options.replications replications on options.jobs worker threads:
  // RunPoints over one point with options.params, seed options.base_seed and
  // options.consumers. Replication i runs with seed SubstreamSeed(base_seed,
  // scenario, i), records through its own MetricRecorder (ctx.recorder), and
  // reaches the consumers in replication order after the built-in
  // aggregator (exact by default, online when options.stream is set).
  CampaignResult Run(const CampaignOptions& options) const;

 private:
  const Scenario& scenario_;
};

// Looks `options.scenario` up with ScenarioRegistry::Global().Get, validates
// the params, and runs the campaign. Throws std::invalid_argument for an
// unknown scenario or parameter.
CampaignResult RunCampaign(const CampaignOptions& options);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_CAMPAIGN_H_
