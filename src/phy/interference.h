// Per-receiver interference bookkeeping.
//
// Every signal arriving at a PHY (decodable or not) is recorded as a
// rectangular power pulse. For a candidate reception the tracker slices the
// frame at every interference change point, computes the SINR of each chunk,
// and multiplies per-chunk success probabilities — the additive-interference
// model with coherent chunking used by ns-3's InterferenceHelper.
//
// Sweep-line implementation. Signal starts and ends live in one time-sorted
// change-point timeline (new points buffer in a pending tail and are merged
// lazily before the next ordered query), so locating a reception window's
// chunk boundaries is an O(log n) lower_bound plus a walk over the k points
// inside the window, `TimeWhenPowerBelow` is a forward walk over end points
// from lower_bound, and `SuccessProbability`/`MeanSinr` share one
// chunk-iteration sweep per window instead of re-sorting and rescanning the
// signal list per chunk. (`EvaluateReception` computes both in a single
// sweep — the PHY's hot path.)
//
// Bit-exact reproducibility contract: every power total is accumulated over
// the active signals in ascending-id (arrival) order — the same left fold
// the pre-sweep-line tracker used — so all query results are bit-identical
// to ReferenceInterferenceTracker (tests/support/interference_reference.h).
// During a window sweep the running sum is updated incrementally only where
// that is exactly the same fold (appending the newest-id signal); any other
// active-set change re-folds the (small) active array. The randomized differential
// tests in tests/phy_test.cc compare the two implementations with EXACT
// double equality; campaign results must not change by a ULP when only the
// lookup strategy changes.
//
// Expiry: the tracker self-prunes instead of relying on callers. To keep
// historical campaign outputs byte-identical, the policy reproduces the
// legacy WifiPhy purge bit-for-bit: after an AddSignal that leaves more
// than 64 tracked signals, signals with end <= (new signal's start) are
// dropped. That legacy drop set intentionally includes signals that ended
// inside a still-in-progress reception window — their chunks vanish from
// the eventual SuccessProbability — so a *correct* pin-protected horizon
// would change results (fragmentation CSVs diverge measurably). The pin
// (PinSignal) therefore only protects the reception's own signal record
// from the pathological same-instant drop, which the legacy code never
// survived either (it was a latent use-after-free behind an assert).

#ifndef WLANSIM_PHY_INTERFERENCE_H_
#define WLANSIM_PHY_INTERFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/time.h"
#include "phy/error_model.h"
#include "phy/wifi_mode.h"

namespace wlansim {

class InterferenceTracker {
 public:
  // Records an arriving signal [start, end) with received power `power_w`.
  // Returns an id usable to exclude the signal from its own interference.
  // Triggers the legacy-compatible expiry described in the header comment;
  // callers no longer need periodic Cleanup calls.
  uint64_t AddSignal(Time start, Time end, double power_w);

  // Sum of all signal powers overlapping instant `t` (CCA energy detection).
  double TotalPowerW(Time t) const;

  // First signal-end instant >= t at which total power is below
  // `threshold_w` considering only currently known signals; `t` itself when
  // power is already below. Signals are half-open [start, end), so total
  // power is exactly zero at the latest known end — for any positive
  // threshold the walk always terminates there or earlier. For
  // threshold_w <= 0 no qualifying instant exists; the contract is to
  // return the first instant after every known signal has ended (that same
  // latest end), or `t` when no signal extends past `t`.
  Time TimeWhenPowerBelow(Time t, double threshold_w) const;

  // Success probability of receiving signal `signal_id` given all other
  // recorded signals as interference plus `noise_w`:
  //   [start, payload_start): PLCP header chunk at `header_mode`
  //   [payload_start, end):   payload chunk at `payload_mode`
  struct ReceptionPlan {
    uint64_t signal_id;
    Time start;
    Time payload_start;
    Time end;
    WifiMode header_mode;
    WifiMode payload_mode;
    uint64_t header_bits;
    uint64_t payload_bits;
    double noise_w;
  };
  double SuccessProbability(const ReceptionPlan& plan, const ErrorRateModel& error_model) const;

  // SINR (linear) of signal `signal_id` over its payload window — the value
  // a driver would report as "signal quality". Averaged over chunks weighted
  // by duration.
  double MeanSinr(const ReceptionPlan& plan) const;

  // SuccessProbability and MeanSinr from one shared payload-window sweep
  // (identical values, computed once) — what WifiPhy uses at EndReception.
  struct ReceptionStats {
    double success_probability = 1.0;
    double mean_sinr = 0.0;
  };
  ReceptionStats EvaluateReception(const ReceptionPlan& plan,
                                   const ErrorRateModel& error_model) const;

  // Protects the in-flight reception's own signal record from expiry until
  // UnpinSignal (see header comment); at most one signal is pinned.
  void PinSignal(uint64_t id) { pinned_id_ = id; }
  void UnpinSignal() { pinned_id_ = 0; }

  // Drops all signals that ended at or before `before`, pinned or not
  // (channel retune / tests; automatic expiry does not use this entry).
  void Cleanup(Time before);

  // Number of tracked signal records (live and recently ended, pending the
  // next expiry) — not the number overlapping any single instant.
  size_t ActiveSignalCount() const { return signals_.size(); }

  // Work counters, in the spirit of Channel::cache_stats(): how many signal
  // records power sums visited, how many SINR chunks were evaluated, how
  // many records expiry dropped, and how many lazy timeline merges ran.
  struct Stats {
    uint64_t signals_scanned = 0;
    uint64_t chunks_computed = 0;
    uint64_t cleanup_drops = 0;
    uint64_t timeline_merges = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Signal {
    uint64_t id;
    Time start;
    Time end;
    double power_w;
  };

  // One timeline entry: a signal's start (+power) or end (-power) instant.
  // Ordered by (t, id, start-before-end) so a zero-length signal is applied
  // and retired within the same boundary and never pollutes a chunk.
  struct Event {
    Time t;
    uint64_t id;
    double power_w;
    bool is_start;
  };

  static bool EventBefore(const Event& a, const Event& b);

  // Sorts the pending tail of `events_` and merges it into the sorted
  // prefix (amortized: one merge serves all queries since the last add).
  void EnsureSorted() const;

  // Binary search by id (ids ascend with arrival order).
  const Signal* FindSignal(uint64_t id) const;

  // Walks the chunks of [from, to): invokes fn(a, b, interference_w) for
  // each maximal sub-interval [a, b) over which the set of interfering
  // signals (everything but `exclude_id`) is constant. Interference sums
  // follow the bit-exact fold contract in the header comment.
  template <typename ChunkFn>
  void SweepWindow(Time from, Time to, uint64_t exclude_id, ChunkFn&& fn) const;

  // Shared expiry: drops signals with end <= before (optionally sparing the
  // pinned one) from both the signal list and the timeline.
  void ExpireInternal(Time before, bool respect_pin);

  std::vector<Signal> signals_;  // ascending id == arrival order
  mutable std::vector<Event> events_;
  mutable size_t sorted_count_ = 0;  // events_[0, sorted_count_) is sorted
  uint64_t next_id_ = 1;
  uint64_t pinned_id_ = 0;
  Time min_live_end_ = Time::Max();  // earliest end among tracked signals

  // Scratch for window sweeps (per-receiver tracker, single-threaded):
  // the interferers active at the sweep cursor, ascending id.
  struct ActiveSignal {
    uint64_t id;
    double power_w;
  };
  mutable std::vector<ActiveSignal> active_;
  std::vector<uint64_t> dropped_scratch_;  // ids dropped by the current expiry

  mutable Stats stats_;
};

}  // namespace wlansim

#endif  // WLANSIM_PHY_INTERFERENCE_H_
