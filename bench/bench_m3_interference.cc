// M3 — Interference-tracker microbenchmarks on the in-tree perf harness:
// reception evaluation (per-chunk SINR integration over a frame window) and
// CCA evaluation (total power + busy-until walk) as a function of signal
// density, for the sweep-line tracker vs the preserved pre-sweep-line
// reference implementation. Both replay the identical discrete-event
// workload — signals arrive in time order, each signal's reception is
// evaluated when it ends, and the reference applies the legacy >64 purge
// the old WifiPhy performed — and the driver cross-checks that both
// trackers produce the same result checksum, so the speedup column always
// compares equal work. The long-format CSV (--csv=) is what the CI
// perf-smoke job uploads.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

#include "bench/perf_harness.h"
#include "core/random.h"
#include "core/units.h"
#include "phy/error_model.h"
#include "phy/interference.h"
#include "tests/support/interference_reference.h"
#include "phy/wifi_mode.h"

namespace wlansim {
namespace {

struct SignalSpec {
  Time start;
  Time end;
  double power_w;
};

// Poisson-ish arrivals with ~`density` concurrently active signals: spacing
// is the mean duration divided by the target density.
std::vector<SignalSpec> MakeWorkload(size_t count, size_t density, uint64_t seed) {
  Rng rng(seed);
  std::vector<SignalSpec> signals;
  signals.reserve(count);
  Time now = Time::Zero();
  const int64_t mean_duration_us = 1000;
  const int64_t spacing_us = std::max<int64_t>(1, mean_duration_us / static_cast<int64_t>(density));
  for (size_t i = 0; i < count; ++i) {
    now += Time::Micros(rng.UniformInt(1, 2 * spacing_us));
    const Time duration = Time::Micros(rng.UniformInt(mean_duration_us / 2, 3 * mean_duration_us / 2));
    signals.push_back({now, now + duration, DbmToW(rng.Uniform(-90.0, -50.0))});
  }
  return signals;
}

InterferenceTracker::ReceptionPlan PlanFor(uint64_t id, const SignalSpec& s, double noise_w) {
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = id;
  plan.start = s.start;
  plan.payload_start = std::min(s.start + Time::Micros(192), s.end);
  plan.end = s.end;
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = ModesFor(PhyStandard::k80211b).back();
  plan.header_bits = 48;
  plan.payload_bits = 8000;
  plan.noise_w = noise_w;
  return plan;
}

// Replays the workload through either tracker: signals are added in arrival
// order and every signal's reception is evaluated at its end instant, while
// its interferers are still tracked. `checksum` accumulates the success
// probabilities and mean SINRs so the two implementations can be compared.
template <typename Tracker, typename EvalFn>
uint64_t ReplayReceptions(const std::vector<SignalSpec>& signals, const EvalFn& eval,
                          double* checksum) {
  Tracker tracker;
  const double noise_w = DbmToW(-94.0);
  // (end, id, spec index) of signals whose reception is still pending,
  // evaluated in end order once arrivals pass their end time (durations
  // vary, so ends are not in arrival order — a min-heap keeps evaluation
  // ahead of the tracker's expiry of ended signals).
  struct Pending {
    Time end;
    uint64_t id;
    size_t index;
    bool operator>(const Pending& other) const {
      return end != other.end ? end > other.end : id > other.id;
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>> pending;
  uint64_t evaluated = 0;
  auto drain = [&](Time upto) {
    while (!pending.empty() && pending.top().end <= upto) {
      const Pending p = pending.top();
      pending.pop();
      *checksum += eval(tracker, PlanFor(p.id, signals[p.index], noise_w));
      ++evaluated;
    }
  };
  for (size_t i = 0; i < signals.size(); ++i) {
    drain(signals[i].start);
    const uint64_t id = tracker.AddSignal(signals[i].start, signals[i].end, signals[i].power_w);
    // The legacy caller-side purge, at the same trigger and with the same
    // drop set the sweep tracker applies internally — both replays must
    // track the identical live set.
    if constexpr (std::is_same_v<Tracker, ReferenceInterferenceTracker>) {
      if (tracker.ActiveSignalCount() > 64) {
        tracker.Cleanup(signals[i].start);
      }
    }
    pending.push({signals[i].end, id, i});
  }
  drain(Time::Max());
  return evaluated;
}

double EvalSweep(InterferenceTracker& t, const InterferenceTracker::ReceptionPlan& plan) {
  static const DefaultErrorRateModel model;
  const auto stats = t.EvaluateReception(plan, model);
  return stats.success_probability + stats.mean_sinr;
}

double EvalReference(ReferenceInterferenceTracker& t,
                     const InterferenceTracker::ReceptionPlan& plan) {
  static const DefaultErrorRateModel model;
  // The legacy WifiPhy pattern: two independent chunk passes per reception.
  return t.SuccessProbability(plan, model) + t.MeanSinr(plan);
}

// CCA churn: TotalPowerW + TimeWhenPowerBelow per arrival (the
// ReevaluateCca pattern), replayed over the same workload.
template <typename Tracker>
uint64_t ReplayCca(const std::vector<SignalSpec>& signals, bool legacy_purge, double* checksum) {
  Tracker tracker;
  const double threshold_w = DbmToW(-62.0);
  uint64_t evaluated = 0;
  for (const SignalSpec& s : signals) {
    tracker.AddSignal(s.start, s.end, s.power_w);
    if constexpr (std::is_same_v<Tracker, ReferenceInterferenceTracker>) {
      if (legacy_purge && tracker.ActiveSignalCount() > 64) {
        tracker.Cleanup(s.start);
      }
    }
    *checksum += tracker.TotalPowerW(s.start);
    *checksum += tracker.TimeWhenPowerBelow(s.start, threshold_w).seconds();
    ++evaluated;
  }
  return evaluated;
}

int Run(int argc, char** argv) {
  const PerfArgs args = ParsePerfArgs(argc, argv, "bench_m3_interference");
  if (!args.ok) {
    return 1;
  }
  PerfHarness harness("M3: interference-tracker microbenchmarks", args);

  constexpr size_t kReceptions = 2000;
  for (const size_t density : {8u, 32u, 64u, 96u}) {
    const auto signals = MakeWorkload(kReceptions, density, 1000 + density);
    // Cross-check once per density: both implementations must agree bit-for-bit.
    double sweep_sum = 0.0;
    double ref_sum = 0.0;
    ReplayReceptions<InterferenceTracker>(signals, EvalSweep, &sweep_sum);
    ReplayReceptions<ReferenceInterferenceTracker>(signals, EvalReference, &ref_sum);
    if (sweep_sum != ref_sum) {
      std::fprintf(stderr, "tracker mismatch at density %zu: %.17g vs %.17g\n", density,
                   sweep_sum, ref_sum);
      return 1;
    }
    char name[64];
    std::snprintf(name, sizeof(name), "rx_eval_sweep_d%zu", density);
    harness.Bench(name, [&signals] {
      double sum = 0.0;
      return ReplayReceptions<InterferenceTracker>(signals, EvalSweep, &sum);
    });
    std::snprintf(name, sizeof(name), "rx_eval_ref_d%zu", density);
    harness.Bench(name, [&signals] {
      double sum = 0.0;
      return ReplayReceptions<ReferenceInterferenceTracker>(signals, EvalReference, &sum);
    });
  }

  const auto cca_signals = MakeWorkload(4000, 64, 77);
  {
    // Same hard cross-check for the CCA path: TotalPowerW and
    // TimeWhenPowerBelow must agree bit-for-bit across implementations.
    double sweep_sum = 0.0;
    double ref_sum = 0.0;
    ReplayCca<InterferenceTracker>(cca_signals, false, &sweep_sum);
    ReplayCca<ReferenceInterferenceTracker>(cca_signals, true, &ref_sum);
    if (sweep_sum != ref_sum) {
      std::fprintf(stderr, "CCA tracker mismatch: %.17g vs %.17g\n", sweep_sum, ref_sum);
      return 1;
    }
  }
  harness.Bench("cca_eval_sweep_d64", [&cca_signals] {
    double sum = 0.0;
    return ReplayCca<InterferenceTracker>(cca_signals, false, &sum);
  });
  harness.Bench("cca_eval_ref_d64", [&cca_signals] {
    double sum = 0.0;
    return ReplayCca<ReferenceInterferenceTracker>(cca_signals, true, &sum);
  });
  return harness.Finish();
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
