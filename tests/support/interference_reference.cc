#include "tests/support/interference_reference.h"

#include <algorithm>
#include <cassert>

namespace wlansim {

uint64_t ReferenceInterferenceTracker::AddSignal(Time start, Time end, double power_w) {
  const uint64_t id = next_id_++;
  signals_.push_back(Signal{id, start, end, power_w});
  return id;
}

double ReferenceInterferenceTracker::TotalPowerW(Time t) const {
  double total = 0.0;
  for (const Signal& s : signals_) {
    if (s.start <= t && t < s.end) {
      total += s.power_w;
    }
  }
  return total;
}

Time ReferenceInterferenceTracker::TimeWhenPowerBelow(Time t, double threshold_w) const {
  // Candidate instants where power can drop: signal end times > t.
  std::vector<Time> ends;
  for (const Signal& s : signals_) {
    if (s.end > t) {
      ends.push_back(s.end);
    }
  }
  std::sort(ends.begin(), ends.end());
  if (TotalPowerW(t) < threshold_w) {
    return t;
  }
  for (Time end : ends) {
    if (TotalPowerW(end) < threshold_w) {
      return end;
    }
  }
  return ends.empty() ? t : ends.back();
}

double ReferenceInterferenceTracker::InterferenceAt(Time t, uint64_t exclude_id) const {
  double total = 0.0;
  for (const Signal& s : signals_) {
    if (s.id != exclude_id && s.start <= t && t < s.end) {
      total += s.power_w;
    }
  }
  return total;
}

std::vector<Time> ReferenceInterferenceTracker::ChangePoints(Time from, Time to,
                                                             uint64_t exclude_id) const {
  std::vector<Time> points;
  points.push_back(from);
  for (const Signal& s : signals_) {
    if (s.id == exclude_id) {
      continue;
    }
    if (s.start > from && s.start < to) {
      points.push_back(s.start);
    }
    if (s.end > from && s.end < to) {
      points.push_back(s.end);
    }
  }
  points.push_back(to);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

double ReferenceInterferenceTracker::SuccessProbability(const ReceptionPlan& plan,
                                                        const ErrorRateModel& error_model) const {
  const Signal* self = nullptr;
  for (const Signal& s : signals_) {
    if (s.id == plan.signal_id) {
      self = &s;
      break;
    }
  }
  assert(self != nullptr);

  double success = 1.0;
  auto process_window = [&](Time from, Time to, const WifiMode& mode, uint64_t window_bits) {
    if (to <= from || window_bits == 0) {
      return;
    }
    const Time window = to - from;
    const auto points = ChangePoints(from, to, plan.signal_id);
    for (size_t i = 0; i + 1 < points.size(); ++i) {
      const Time a = points[i];
      const Time b = points[i + 1];
      const double interference = InterferenceAt(a, plan.signal_id);
      const double sinr = self->power_w / (plan.noise_w + interference);
      const double frac = (b - a) / window;
      const auto bits = static_cast<uint64_t>(static_cast<double>(window_bits) * frac + 0.5);
      success *= error_model.ChunkSuccessProbability(mode, sinr, bits);
    }
  };

  process_window(plan.start, plan.payload_start, plan.header_mode, plan.header_bits);
  process_window(plan.payload_start, plan.end, plan.payload_mode, plan.payload_bits);
  return success;
}

double ReferenceInterferenceTracker::MeanSinr(const ReceptionPlan& plan) const {
  const Signal* self = nullptr;
  for (const Signal& s : signals_) {
    if (s.id == plan.signal_id) {
      self = &s;
      break;
    }
  }
  assert(self != nullptr);
  const Time from = plan.payload_start;
  const Time to = plan.end;
  if (to <= from) {
    return 0.0;
  }
  const auto points = ChangePoints(from, to, plan.signal_id);
  double weighted = 0.0;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    const double interference = InterferenceAt(points[i], plan.signal_id);
    const double sinr = self->power_w / (plan.noise_w + interference);
    weighted += sinr * ((points[i + 1] - points[i]) / (to - from));
  }
  return weighted;
}

void ReferenceInterferenceTracker::Cleanup(Time before) {
  std::erase_if(signals_, [before](const Signal& s) { return s.end <= before; });
}

}  // namespace wlansim
