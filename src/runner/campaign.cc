#include "runner/campaign.h"

#include <atomic>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/random.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/scenario_registry.h"

namespace wlansim {
namespace {

// Runs `total` independent tasks (task(0) .. task(total-1)) on a pool of
// `jobs` worker threads (0 = hardware concurrency; the pool is clamped to
// `total` so no idle threads spin up). Tasks are claimed from one shared
// atomic counter, so any task can run on any thread — results must not
// depend on the assignment. If a task throws, remaining unclaimed tasks are
// skipped and the first exception is rethrown on the calling thread.
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

}  // namespace

void RunPoints(const Scenario& scenario, const std::vector<RunPoint>& points,
               uint64_t replications, unsigned jobs, bool stream,
               const std::function<void(size_t, std::vector<MetricAggregate>)>& on_done) {
  // Each point owns a result pipeline whose first consumer is its one
  // aggregator: exact by default, online (O(metrics) memory) when streaming.
  struct PointRun {
    PointRun(CampaignManifest manifest, bool stream)
        : pipeline(std::move(manifest)), aggregator(MakeAggregator(stream)) {
      pipeline.AddConsumer(aggregator.get());
    }
    ResultPipeline pipeline;
    std::unique_ptr<AggregatingConsumer> aggregator;
  };
  const size_t n_points = points.size();
  std::vector<std::unique_ptr<PointRun>> runs(n_points);
  for (size_t p = 0; p < n_points; ++p) {
    runs[p] = std::make_unique<PointRun>(
        CampaignManifest{std::string(scenario.name()), points[p].seed, replications}, stream);
    for (ResultConsumer* consumer : points[p].consumers) {
      runs[p]->pipeline.AddConsumer(consumer);
    }
    runs[p]->pipeline.Begin();
  }

  // Points end in worker order, but on_done sees them in point order: an
  // ended point parks its aggregates here until every earlier point is done,
  // then the in-order prefix flushes under the lock — the same reorder
  // buffer ResultPipeline keeps per replication. Ending a point frees its
  // run, so exact-mode memory stays O(replications) per in-flight point.
  std::mutex done_mu;
  size_t next_done = 0;
  std::map<size_t, std::vector<MetricAggregate>> pending_done;
  auto end_point = [&](size_t p) {
    runs[p]->pipeline.End();
    std::vector<MetricAggregate> aggregates = runs[p]->aggregator->Aggregates();
    runs[p].reset();
    std::lock_guard<std::mutex> lock(done_mu);
    pending_done.emplace(p, std::move(aggregates));
    while (!pending_done.empty() && pending_done.begin()->first == next_done) {
      on_done(next_done, std::move(pending_done.begin()->second));
      pending_done.erase(pending_done.begin());
      ++next_done;
    }
  };
  if (replications == 0) {
    for (size_t p = 0; p < n_points; ++p) {
      end_point(p);
    }
    return;
  }

  // One (point, replication) queue for all points: with per-point batches
  // alone, replications < jobs would idle the spare workers at every point.
  // The worker that delivers a point's last record ends the point.
  std::vector<std::atomic<uint64_t>> delivered(n_points);
  RunTaskPool(jobs, static_cast<uint64_t>(n_points) * replications, [&](uint64_t task) {
    const size_t p = static_cast<size_t>(task / replications);
    const uint64_t rep = task % replications;
    ReplicationContext ctx;
    ctx.replication = rep;
    ctx.seed = SubstreamSeed(points[p].seed, scenario.name(), rep);
    MetricRecorder recorder;
    ctx.recorder = &recorder;
    runs[p]->pipeline.Deliver(recorder.Finish(rep, scenario.Run(points[p].params, ctx)));
    if (delivered[p].fetch_add(1, std::memory_order_acq_rel) + 1 == replications) {
      end_point(p);
    }
  });
}

CampaignResult Campaign::Run(const CampaignOptions& options) const {
  CampaignResult result;
  result.scenario = std::string(scenario_.name());
  result.base_seed = options.base_seed;
  result.replication_count = options.replications;
  result.streamed = options.stream;
  RunPoints(scenario_, {{options.params, options.base_seed, options.consumers}},
            options.replications, options.jobs, options.stream,
            [&result](size_t, std::vector<MetricAggregate> aggregates) {
              result.aggregates = std::move(aggregates);
            });
  return result;
}

CampaignResult RunCampaign(const CampaignOptions& options) {
  const Scenario& scenario = ScenarioRegistry::Global().Get(options.scenario);
  scenario.ValidateParams(options.params);
  return Campaign(scenario).Run(options);
}

}  // namespace wlansim
