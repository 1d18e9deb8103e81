#include "stats/latency_recorder.h"

#include <algorithm>
#include <cstdio>

namespace wlansim {

void LatencyRecorder::Record(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracks_.find(name);
  if (it == tracks_.end()) {
    it = tracks_.emplace(name, Track{Histogram(lo_, bin_width_, bin_count_), Summary{}}).first;
  }
  it->second.histogram.Add(value);
  it->second.summary.Add(value);
}

std::string LatencyRecorder::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string text;
  for (const auto& [name, track] : tracks_) {
    // A bin estimate can fall outside the samples (an over/underflow bucket
    // reads as the range edge), but the exact extremes bound every quantile.
    const auto quantile = [&track = track](double q) {
      return std::clamp(track.histogram.Quantile(q), track.summary.min(), track.summary.max());
    };
    char line[256];
    std::snprintf(line, sizeof(line),
                  "latency %s: count=%llu mean=%.1f min=%.1f max=%.1f p50=%.1f p90=%.1f "
                  "p99=%.1f\n",
                  name.c_str(), static_cast<unsigned long long>(track.summary.count()),
                  track.summary.mean(), track.summary.min(), track.summary.max(), quantile(0.50),
                  quantile(0.90), quantile(0.99));
    text += line;
  }
  return text;
}

}  // namespace wlansim
