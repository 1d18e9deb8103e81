#include "runner/campaign.h"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/random.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/scenario_registry.h"

namespace wlansim {

void RunTaskPool(unsigned jobs, uint64_t total, const std::function<void(uint64_t)>& task) {
  if (total == 0) {
    return;
  }
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) {
      jobs = 1;
    }
  }
  if (total < jobs) {
    jobs = static_cast<unsigned>(total);
  }

  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&]() {
    for (uint64_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) {
        return;  // a task already threw; don't burn the remaining work
      }
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

CampaignResult Campaign::Run(const CampaignOptions& options) const {
  const uint64_t reps = options.replications;

  CampaignManifest manifest;
  manifest.scenario = std::string(scenario_.name());
  manifest.base_seed = options.base_seed;
  manifest.replications = reps;

  ResultPipeline pipeline(manifest);
  // Exactly one built-in aggregation consumer rides the pipeline: the exact
  // one (default) or the online one (streaming — O(metrics) memory,
  // approximate quantiles).
  const std::unique_ptr<AggregatingConsumer> aggregator = MakeAggregator(options.stream);
  pipeline.AddConsumer(aggregator.get());
  for (ResultConsumer* consumer : options.consumers) {
    pipeline.AddConsumer(consumer);
  }
  pipeline.Begin();

  RunTaskPool(options.jobs, reps, [&](uint64_t i) {
    ReplicationContext ctx;
    ctx.replication = i;
    ctx.seed = SubstreamSeed(options.base_seed, scenario_.name(), i);
    MetricRecorder recorder;
    ctx.recorder = &recorder;
    const ReplicationResult returned = scenario_.Run(options.params, ctx);
    pipeline.Deliver(recorder.Finish(i, returned));
  });
  pipeline.End();

  CampaignResult result;
  result.scenario = manifest.scenario;
  result.base_seed = options.base_seed;
  result.replication_count = reps;
  result.streamed = options.stream;
  result.aggregates = aggregator->Aggregates();
  return result;
}

CampaignResult RunCampaign(const CampaignOptions& options) {
  const Scenario* scenario = ScenarioRegistry::Global().Find(options.scenario);
  if (scenario == nullptr) {
    std::string msg = "unknown scenario '" + options.scenario + "'; available:";
    for (const std::string& name : ScenarioRegistry::Global().Names()) {
      msg += " " + name;
    }
    throw std::invalid_argument(msg);
  }
  scenario->ValidateParams(options.params);
  return Campaign(*scenario).Run(options);
}

}  // namespace wlansim
