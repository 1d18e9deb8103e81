// Thread-safe named latency tracking for long-running services: one
// fixed-bin Histogram plus an exact Welford Summary per operation name.
// The query server records per-query service latencies through this, so
// the serving layer measures itself with the same stats machinery the
// simulation results use (histogram bin quantiles + exact mean/min/max).

#ifndef WLANSIM_STATS_LATENCY_RECORDER_H_
#define WLANSIM_STATS_LATENCY_RECORDER_H_

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "stats/histogram.h"
#include "stats/summary.h"

namespace wlansim {

class LatencyRecorder {
 public:
  // Every tracked operation shares one bin geometry covering
  // [lo, lo + bin_count*bin_width) in the caller's unit (the query server
  // uses microseconds). Samples beyond the range still count exactly in
  // the summary; the histogram parks them in its overflow bucket.
  LatencyRecorder(double lo, double bin_width, size_t bin_count)
      : lo_(lo), bin_width_(bin_width), bin_count_(bin_count) {}

  // Records one sample under `name` (tracks are created on first use).
  void Record(const std::string& name, double value);

  // One line per tracked name, sorted:
  //   latency <name>: count=N mean=M min=.. max=.. p50=.. p90=.. p99=..
  // The quantiles are interpolated histogram-bin estimates clamped to the
  // exact [min, max]; count/mean/min/max are exact. Empty string when
  // nothing was recorded.
  std::string Report() const;

 private:
  struct Track {
    Histogram histogram;
    Summary summary;
  };

  double lo_;
  double bin_width_;
  size_t bin_count_;
  mutable std::mutex mu_;
  std::map<std::string, Track> tracks_;
};

}  // namespace wlansim

#endif  // WLANSIM_STATS_LATENCY_RECORDER_H_
