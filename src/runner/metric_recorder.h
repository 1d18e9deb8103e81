// The recording half of the results pipeline. A MetricRecorder is handed to
// Scenario::Run through ReplicationContext so a scenario can emit metrics
// *during* a replication — counters, last-value scalars, streamed gauge
// samples, and fixed-bin histograms — instead of being limited to the
// scalar map Run() returns. When the replication finishes, Finish() folds
// everything recorded (plus the scalars Run() returned, which keeps every
// pre-recorder scenario working unmodified) into one ReplicationRecord, the
// unit the ResultConsumer pipeline streams.

#ifndef WLANSIM_RUNNER_METRIC_RECORDER_H_
#define WLANSIM_RUNNER_METRIC_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runner/scenario.h"
#include "stats/histogram.h"
#include "stats/summary.h"

namespace wlansim {

// A recorded distribution: the histogram bins plus the exact streaming
// summary of every sample added (including values outside the bin range).
struct DistributionSnapshot {
  double lo = 0.0;
  double bin_width = 1.0;
  std::vector<uint64_t> bins;
  uint64_t underflow = 0;
  uint64_t overflow = 0;
  uint64_t total = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

// Everything one replication produced: the scalar metric map (what the
// legacy ReplicationResult carried) plus any recorded distributions.
// Consumers receive records in replication order.
struct ReplicationRecord {
  uint64_t replication = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, DistributionSnapshot> distributions;
};

// Single-replication metric collector. Not thread-safe: each replication
// owns its recorder, so recording never synchronizes — the pipeline's
// ordered delivery is the only cross-thread point.
//
// Flush rules (applied by Finish, documented here because the CSV column
// set follows from them):
//   - counters and scalars become metrics under their own name;
//   - a gauge named G becomes G_count / G_mean / G_min / G_max;
//   - a histogram named H becomes H_p10 / H_p50 / H_p90 (interpolated bin
//     quantiles) plus H_mean / H_min / H_max, and its full bin vector rides
//     along in ReplicationRecord::distributions;
//   - the scalars Run() returned are moved in as the record's map, and the
//     recorded metrics above are merged into it.
// Any name collision between those sources throws std::logic_error: a
// silently overwritten metric is a campaign-correctness bug.
class MetricRecorder {
 public:
  // Accumulating counter (created at zero on first use).
  void AddCount(const std::string& name, double delta = 1.0);

  // Last-value scalar; overwriting via SetScalar is allowed (that is the
  // point of a gauge-style scalar), colliding with another source is not.
  void SetScalar(const std::string& name, double value);

  // Streamed gauge sample: O(1) memory per gauge (Welford summary).
  void AddSample(const std::string& name, double value);

  // Declares a fixed-bin histogram; throws std::logic_error when the name
  // was already declared or bin_count is zero.
  void DeclareHistogram(const std::string& name, double lo, double bin_width, size_t bin_count);

  // Adds to a declared histogram; throws std::logic_error when undeclared.
  void AddHistogramSample(const std::string& name, double value);

  bool empty() const {
    return counters_.empty() && scalars_.empty() && gauges_.empty() && histograms_.empty();
  }

  // Folds everything recorded plus `returned` into the replication's record.
  // `returned` is taken by value and its map becomes the record's map, so a
  // caller that moves it in pays no copy. Throws std::logic_error on any
  // metric-name collision.
  ReplicationRecord Finish(uint64_t replication, ReplicationResult returned) const;

 private:
  struct HistogramState {
    Histogram histogram;
    Summary summary;
  };

  std::map<std::string, double> counters_;
  std::map<std::string, double> scalars_;
  std::map<std::string, Summary> gauges_;
  std::map<std::string, HistogramState> histograms_;
};

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_METRIC_RECORDER_H_
