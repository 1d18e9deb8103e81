// The Campaign runner: executes N independent replications of a registered
// scenario across a std::thread worker pool. Each replication gets its own
// Simulator (built inside the scenario) and a substream-derived seed, so
// results are deterministic and byte-identical for any worker count.

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

class ScenarioRegistry;

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

// Runs `total` independent tasks (task(0) .. task(total-1)) on a pool of
// `jobs` worker threads (0 = hardware concurrency; the pool is clamped to
// `total` so no idle threads spin up). Tasks are claimed from one shared
// atomic counter, so any task can run on any thread — results must not
// depend on the assignment. If a task throws, remaining unclaimed tasks are
// skipped and the first exception is rethrown on the calling thread. Shared
// by Campaign (replications) and RunSweepCampaign ((point, rep) pairs).
void RunTaskPool(unsigned jobs, uint64_t total, const std::function<void(uint64_t)>& task);

class Campaign {
 public:
  explicit Campaign(const Scenario& scenario) : scenario_(scenario) {}

  // Runs options.replications replications on options.jobs worker threads.
  // Replication i runs with seed SubstreamSeed(base_seed, scenario, i): the
  // assignment of replications to threads never affects any result.
  // Scenario exceptions are rethrown on the calling thread.
  //
  // Each replication records through its own MetricRecorder (ctx.recorder)
  // and the resulting records flow through a ResultPipeline in replication
  // order to options.consumers plus the built-in aggregation consumer
  // (exact by default, online when options.stream is set).
  CampaignResult Run(const CampaignOptions& options) const;

 private:
  const Scenario& scenario_;
};

// Looks `options.scenario` up in ScenarioRegistry::Global(), validates the
// params, and runs the campaign. Throws std::invalid_argument for an unknown
// scenario or parameter.
CampaignResult RunCampaign(const CampaignOptions& options);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_CAMPAIGN_H_
