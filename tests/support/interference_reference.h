// The pre-sweep-line interference tracker, preserved verbatim as an
// executable specification. `InterferenceTracker` (interference.h) must
// produce bit-identical doubles for every query — same chunk boundaries,
// same id-ordered power folds — so the randomized differential tests in
// tests/phy_test.cc compare the two with exact equality, and the m3 bench
// (bench/bench_m3_interference.cc) uses this class as its baseline. It is a
// test oracle, not part of the shipped library: it builds into the
// wlansim_test_support target, which only the tests and the benches link.
//
// Complexity (the reason it was replaced): `ChangePoints` re-collects and
// re-sorts boundary points per window, `InterferenceAt` rescans the whole
// signal list per chunk (O(n) per chunk, O(n²) per reception), and
// `TimeWhenPowerBelow` re-evaluates the total power per candidate end
// (O(n²) per CCA check).

#ifndef WLANSIM_TESTS_SUPPORT_INTERFERENCE_REFERENCE_H_
#define WLANSIM_TESTS_SUPPORT_INTERFERENCE_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "core/time.h"
#include "phy/error_model.h"
#include "phy/interference.h"
#include "phy/wifi_mode.h"

namespace wlansim {

class ReferenceInterferenceTracker {
 public:
  // Shares the plan type with the production tracker so test and bench
  // drivers hand the identical struct to both implementations.
  using ReceptionPlan = InterferenceTracker::ReceptionPlan;

  uint64_t AddSignal(Time start, Time end, double power_w);
  double TotalPowerW(Time t) const;
  Time TimeWhenPowerBelow(Time t, double threshold_w) const;
  double SuccessProbability(const ReceptionPlan& plan, const ErrorRateModel& error_model) const;
  double MeanSinr(const ReceptionPlan& plan) const;
  void Cleanup(Time before);
  size_t ActiveSignalCount() const { return signals_.size(); }

 private:
  struct Signal {
    uint64_t id;
    Time start;
    Time end;
    double power_w;
  };

  double InterferenceAt(Time t, uint64_t exclude_id) const;
  std::vector<Time> ChangePoints(Time from, Time to, uint64_t exclude_id) const;

  std::vector<Signal> signals_;
  uint64_t next_id_ = 1;
};

}  // namespace wlansim

#endif  // WLANSIM_TESTS_SUPPORT_INTERFERENCE_REFERENCE_H_
