#include "phy/interference.h"

#include <algorithm>
#include <cassert>

namespace wlansim {

namespace {

// Legacy purge compatibility: the pre-sweep-line WifiPhy pruned the tracker
// whenever more than 64 signals were stored, dropping everything that had
// ended by the triggering arrival. Campaign byte-identity depends on the
// trigger and drop set staying exactly this (see the header comment).
constexpr size_t kCompatExpiryThreshold = 64;

}  // namespace

bool InterferenceTracker::EventBefore(const Event& a, const Event& b) {
  if (a.t != b.t) {
    return a.t < b.t;
  }
  if (a.id != b.id) {
    return a.id < b.id;
  }
  return a.is_start && !b.is_start;
}

void InterferenceTracker::EnsureSorted() const {
  if (sorted_count_ == events_.size()) {
    return;
  }
  const auto mid = events_.begin() + static_cast<ptrdiff_t>(sorted_count_);
  std::sort(mid, events_.end(), EventBefore);
  if (events_.size() - sorted_count_ <= 4) {
    // The common case: one arrival (two points) since the last ordered
    // query. Rotate each point into place instead of inplace_merge, whose
    // temporary-buffer allocation dwarfs the actual move.
    for (auto first = mid; first != events_.end(); ++first) {
      const auto pos = std::upper_bound(events_.begin(), first, *first, EventBefore);
      std::rotate(pos, first, first + 1);
    }
  } else {
    std::inplace_merge(events_.begin(), mid, events_.end(), EventBefore);
  }
  sorted_count_ = events_.size();
  ++stats_.timeline_merges;
}

const InterferenceTracker::Signal* InterferenceTracker::FindSignal(uint64_t id) const {
  const auto it = std::lower_bound(signals_.begin(), signals_.end(), id,
                                   [](const Signal& s, uint64_t v) { return s.id < v; });
  return (it != signals_.end() && it->id == id) ? &*it : nullptr;
}

uint64_t InterferenceTracker::AddSignal(Time start, Time end, double power_w) {
  const uint64_t id = next_id_++;
  signals_.push_back(Signal{id, start, end, power_w});
  events_.push_back(Event{start, end, id, power_w, true});
  events_.push_back(Event{end, end, id, power_w, false});
  if (end < min_live_end_) {
    min_live_end_ = end;
  }
  // Legacy-compatible expiry. The min_live_end_ guard only skips calls that
  // would drop nothing (a no-op in the legacy code too), so the observable
  // drop sequence is unchanged.
  if (signals_.size() > kCompatExpiryThreshold && min_live_end_ <= start) {
    ExpireInternal(start, /*respect_pin=*/true);
  }
  return id;
}

double InterferenceTracker::TotalPowerW(Time t) const {
  // Ascending-id fold over the tracked signals: the bit-exact operand order
  // (see header). Expiry keeps this list close to the true concurrency.
  double total = 0.0;
  for (const Signal& s : signals_) {
    if (s.start <= t && t < s.end) {
      total += s.power_w;
    }
  }
  stats_.signals_scanned += signals_.size();
  return total;
}

Time InterferenceTracker::TimeWhenPowerBelow(Time t, double threshold_w) const {
  if (TotalPowerW(t) < threshold_w) {
    return t;
  }
  EnsureSorted();
  // Power can only drop at a signal end: walk end points after t in order.
  auto it = std::upper_bound(events_.begin(), events_.end(), t,
                             [](Time value, const Event& e) { return value < e.t; });
  bool walked = false;
  Time candidate;
  for (; it != events_.end(); ++it) {
    if (it->is_start || (walked && it->t == candidate)) {
      continue;
    }
    walked = true;
    candidate = it->t;
    if (TotalPowerW(candidate) < threshold_w) {
      return candidate;
    }
  }
  // Unreachable for threshold_w > 0: power is exactly zero at the latest
  // end (half-open signals), so the walk returns there at the latest. For
  // threshold_w <= 0 there is no qualifying instant; per contract, return
  // the first instant after every known signal has ended.
  return walked ? candidate : t;
}

template <typename ChunkFn>
void InterferenceTracker::SweepWindow(Time from, Time to, uint64_t exclude_id,
                                      ChunkFn&& fn) const {
  EnsureSorted();

  // Active interferers at `from`, in ascending-id order, with the running
  // sum built as the same left fold the reference implementation performs.
  active_.clear();
  double sum = 0.0;
  for (const Signal& s : signals_) {
    if (s.id != exclude_id && s.start <= from && from < s.end) {
      active_.push_back(ActiveSignal{s.id, s.power_w});
      sum += s.power_w;
    }
  }
  stats_.signals_scanned += signals_.size();

  auto refold = [&] {
    sum = 0.0;
    for (const ActiveSignal& a : active_) {
      sum += a.power_w;
    }
    stats_.signals_scanned += active_.size();
  };
  const auto id_before = [](const ActiveSignal& a, uint64_t id) { return a.id < id; };

  size_t i = static_cast<size_t>(
      std::upper_bound(events_.begin(), events_.end(), from,
                       [](Time value, const Event& e) { return value < e.t; }) -
      events_.begin());
  const size_t n = events_.size();
  Time a = from;
  while (i < n && events_[i].t < to) {
    const Time b = events_[i].t;
    // Group every event at this instant; the boundary exists only if at
    // least one belongs to an interferer (self's points are not chunk
    // boundaries, exactly as the reference's ChangePoints excludes them).
    size_t j = i;
    bool any = false;
    while (j < n && events_[j].t == b) {
      any = any || events_[j].id != exclude_id;
      ++j;
    }
    if (!any) {
      i = j;
      continue;
    }
    fn(a, b, sum);
    ++stats_.chunks_computed;

    bool refold_needed = false;
    for (size_t k = i; k < j; ++k) {
      const Event& e = events_[k];
      if (e.id == exclude_id) {
        continue;
      }
      if (e.is_start) {
        if (active_.empty() || e.id > active_.back().id) {
          active_.push_back(ActiveSignal{e.id, e.power_w});
          sum += e.power_w;  // exact: appending the max id extends the fold
        } else {
          // Out-of-arrival-order start (only possible via direct API use):
          // keep the array id-sorted and re-fold.
          const auto pos = std::lower_bound(active_.begin(), active_.end(), e.id, id_before);
          active_.insert(pos, ActiveSignal{e.id, e.power_w});
          refold_needed = true;
        }
      } else {
        const auto pos = std::lower_bound(active_.begin(), active_.end(), e.id, id_before);
        if (pos != active_.end() && pos->id == e.id) {
          active_.erase(pos);
          refold_needed = true;
        }
      }
    }
    if (refold_needed) {
      refold();
    }
    a = b;
    i = j;
  }
  fn(a, to, sum);
  ++stats_.chunks_computed;
}

InterferenceTracker::ReceptionStats InterferenceTracker::EvaluateReception(
    const ReceptionPlan& plan, const ErrorRateModel& error_model) const {
  const Signal* self = FindSignal(plan.signal_id);
  assert(self != nullptr);
  if (self == nullptr) {
    return ReceptionStats{0.0, 0.0};
  }

  ReceptionStats out;
  const Time ps = plan.payload_start;
  const bool header_active = ps > plan.start && plan.header_bits != 0;
  const bool payload_active = plan.end > ps;
  const bool score_payload = plan.payload_bits != 0;

  auto header_chunk = [&](Time a, Time b, double interference) {
    const Time window = ps - plan.start;
    const double sinr = self->power_w / (plan.noise_w + interference);
    const double frac = (b - a) / window;
    const auto bits = static_cast<uint64_t>(static_cast<double>(plan.header_bits) * frac + 0.5);
    out.success_probability *= error_model.ChunkSuccessProbability(plan.header_mode, sinr, bits);
  };
  auto payload_chunk = [&](Time a, Time b, double interference) {
    const Time window = plan.end - ps;
    const double sinr = self->power_w / (plan.noise_w + interference);
    const double frac = (b - a) / window;
    if (score_payload) {
      const auto bits =
          static_cast<uint64_t>(static_cast<double>(plan.payload_bits) * frac + 0.5);
      out.success_probability *=
          error_model.ChunkSuccessProbability(plan.payload_mode, sinr, bits);
    }
    out.mean_sinr += sinr * frac;
  };

  if (header_active && payload_active) {
    // Both windows abut at payload_start: one continuous sweep over
    // [start, end), with any chunk straddling payload_start split there.
    // The running fold is the same value a fresh payload-window sweep
    // would rebuild at payload_start (no event lies strictly between the
    // straddling chunk's edges), so every chunk sum stays bit-identical to
    // the two-pass evaluation.
    SweepWindow(plan.start, plan.end, plan.signal_id, [&](Time a, Time b, double interference) {
      if (b <= ps) {
        header_chunk(a, b, interference);
      } else if (a >= ps) {
        payload_chunk(a, b, interference);
      } else {
        header_chunk(a, ps, interference);
        payload_chunk(ps, b, interference);
      }
    });
  } else if (header_active) {
    SweepWindow(plan.start, ps, plan.signal_id, header_chunk);
  } else if (payload_active) {
    SweepWindow(ps, plan.end, plan.signal_id, payload_chunk);
  }
  return out;
}

double InterferenceTracker::SuccessProbability(const ReceptionPlan& plan,
                                               const ErrorRateModel& error_model) const {
  return EvaluateReception(plan, error_model).success_probability;
}

double InterferenceTracker::MeanSinr(const ReceptionPlan& plan) const {
  const Signal* self = FindSignal(plan.signal_id);
  assert(self != nullptr);
  if (self == nullptr || plan.end <= plan.payload_start) {
    return 0.0;
  }
  const Time window = plan.end - plan.payload_start;
  double weighted = 0.0;
  SweepWindow(plan.payload_start, plan.end, plan.signal_id,
              [&](Time a, Time b, double interference) {
                const double sinr = self->power_w / (plan.noise_w + interference);
                weighted += sinr * ((b - a) / window);
              });
  return weighted;
}

void InterferenceTracker::ExpireInternal(Time before, bool respect_pin) {
  const uint64_t spared = respect_pin ? pinned_id_ : 0;
  const auto expires = [&](Time end, uint64_t id) { return end <= before && id != spared; };
  size_t dropped = 0;
  Time min_end = Time::Max();
  std::erase_if(signals_, [&](const Signal& s) {
    if (expires(s.end, s.id)) {
      ++dropped;
      return true;
    }
    if (s.end < min_end) {
      min_end = s.end;
    }
    return false;
  });
  min_live_end_ = min_end;
  stats_.cleanup_drops += dropped;
  if (dropped == 0) {
    return;
  }

  // Prune the timeline to the surviving signals, preserving relative order
  // so the sorted prefix stays sorted and the pending tail stays pending.
  // An event carries its signal's end and id, so the test that dropped the
  // signal drops exactly its events.
  size_t kept = 0;
  size_t kept_sorted = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (expires(e.end, e.id)) {
      continue;
    }
    events_[kept] = e;
    if (i < sorted_count_) {
      ++kept_sorted;
    }
    ++kept;
  }
  events_.resize(kept);
  sorted_count_ = kept_sorted;
}

void InterferenceTracker::Cleanup(Time before) {
  ExpireInternal(before, /*respect_pin=*/false);
}

}  // namespace wlansim
