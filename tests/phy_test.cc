// PHY tests: PLCP durations against the standard's tables, propagation
// closed forms, fading statistics, error-model orderings, interference
// chunking, and the PHY state machine over a real channel.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "core/simulator.h"
#include "core/units.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/fading.h"
#include "phy/interference.h"
#include "tests/support/interference_reference.h"
#include "phy/mobility.h"
#include "phy/propagation.h"
#include "phy/wifi_mode.h"
#include "phy/wifi_phy.h"

namespace wlansim {
namespace {

const WifiMode& ModeAt(PhyStandard std_, uint32_t bps) {
  for (const WifiMode& m : ModesFor(std_)) {
    if (m.bit_rate_bps == bps) {
      return m;
    }
  }
  ADD_FAILURE() << "mode not found";
  return BaseModeFor(std_);
}

// --- WifiMode / durations -------------------------------------------------------

TEST(WifiMode, TablesMatchStandardRateSets) {
  EXPECT_EQ(ModesFor(PhyStandard::k80211).size(), 2u);
  EXPECT_EQ(ModesFor(PhyStandard::k80211b).size(), 4u);
  EXPECT_EQ(ModesFor(PhyStandard::k80211a).size(), 8u);
  EXPECT_EQ(ModesFor(PhyStandard::k80211g).size(), 8u);
  EXPECT_EQ(ModesFor(PhyStandard::k80211b).back().bit_rate_bps, 11'000'000u);
  EXPECT_EQ(ModesFor(PhyStandard::k80211a).back().bit_rate_bps, 54'000'000u);
}

TEST(WifiMode, DsssLongPreambleDuration) {
  // 1000 bytes at 11 Mb/s: 192 us PLCP + 8000/11 us payload.
  const Time d = FrameDuration(ModeAt(PhyStandard::k80211b, 11'000'000), 1000);
  EXPECT_NEAR(d.micros(), 192.0 + 8000.0 / 11.0, 0.001);
}

TEST(WifiMode, DsssShortPreambleSaves96us) {
  const WifiMode& m = ModeAt(PhyStandard::k80211b, 11'000'000);
  const Time long_p = FrameDuration(m, 500, false);
  const Time short_p = FrameDuration(m, 500, true);
  EXPECT_NEAR((long_p - short_p).micros(), 96.0, 1e-9);
}

TEST(WifiMode, OneMbpsNeverUsesShortPreamble) {
  const WifiMode& m = ModeAt(PhyStandard::k80211b, 1'000'000);
  EXPECT_EQ(FrameDuration(m, 100, true), FrameDuration(m, 100, false));
}

TEST(WifiMode, OfdmSymbolQuantization) {
  // 802.11a 54 Mb/s: 216 data bits/symbol; 1500 B → (16+12000+6)/216 =
  // 55.66 → 56 symbols → 20 + 224 us.
  const Time d = FrameDuration(ModeAt(PhyStandard::k80211a, 54'000'000), 1500);
  EXPECT_NEAR(d.micros(), 20.0 + 4 * 56, 1e-9);
}

TEST(WifiMode, ErpOfdmAddsSignalExtension) {
  const Time a = FrameDuration(ModeAt(PhyStandard::k80211a, 54'000'000), 1000);
  const Time g = FrameDuration(ModeAt(PhyStandard::k80211g, 54'000'000), 1000);
  EXPECT_NEAR((g - a).micros(), 6.0, 1e-9);
}

TEST(WifiMode, DurationMonotoneInSize) {
  for (const WifiMode& m : ModesFor(PhyStandard::k80211a)) {
    Time prev = Time::Zero();
    for (size_t bytes : {0, 1, 10, 100, 1000, 2304}) {
      const Time d = FrameDuration(m, bytes);
      EXPECT_GE(d, prev) << m.name;
      prev = d;
    }
  }
}

TEST(WifiMode, FasterModesShorterFrames) {
  const auto modes = ModesFor(PhyStandard::k80211a);
  for (size_t i = 1; i < modes.size(); ++i) {
    EXPECT_LT(FrameDuration(modes[i], 1500), FrameDuration(modes[i - 1], 1500));
  }
}

TEST(WifiMode, ControlResponseRates) {
  // Responding to 54 Mb/s OFDM: highest mandatory ≤ 54 is 24 Mb/s.
  EXPECT_EQ(ControlResponseMode(ModeAt(PhyStandard::k80211a, 54'000'000)).bit_rate_bps,
            24'000'000u);
  // Responding to 9 Mb/s: mandatory ≤ 9 is 6.
  EXPECT_EQ(ControlResponseMode(ModeAt(PhyStandard::k80211a, 9'000'000)).bit_rate_bps, 6'000'000u);
  // Responding to 11 Mb/s DSSS: mandatory ≤ 11 is 2.
  EXPECT_EQ(ControlResponseMode(ModeAt(PhyStandard::k80211b, 11'000'000)).bit_rate_bps,
            2'000'000u);
}

TEST(WifiMode, TimingConstants) {
  const PhyTiming b = TimingFor(PhyStandard::k80211b);
  EXPECT_EQ(b.slot, Time::Micros(20));
  EXPECT_EQ(b.sifs, Time::Micros(10));
  EXPECT_EQ(b.Difs(), Time::Micros(50));
  EXPECT_EQ(b.cw_min, 31u);

  const PhyTiming a = TimingFor(PhyStandard::k80211a);
  EXPECT_EQ(a.slot, Time::Micros(9));
  EXPECT_EQ(a.sifs, Time::Micros(16));
  EXPECT_EQ(a.Difs(), Time::Micros(34));
  EXPECT_EQ(a.cw_min, 15u);

  const PhyTiming g_prot = TimingFor(PhyStandard::k80211g, true);
  EXPECT_EQ(g_prot.slot, Time::Micros(20));
  EXPECT_EQ(g_prot.cw_min, 31u);
}

// --- Propagation ----------------------------------------------------------------

TEST(Propagation, FriisClosedForm) {
  FreeSpaceLossModel model;
  // At 2.4 GHz, free-space loss at 100 m ≈ 80.1 dB.
  const double rx = model.RxPowerDbm(20.0, {0, 0, 0}, {100, 0, 0}, 2.4e9, 0);
  EXPECT_NEAR(20.0 - rx, 80.1, 0.2);
}

TEST(Propagation, FriisInverseSquare) {
  FreeSpaceLossModel model;
  const double rx10 = model.RxPowerDbm(0.0, {0, 0, 0}, {10, 0, 0}, 2.4e9, 0);
  const double rx20 = model.RxPowerDbm(0.0, {0, 0, 0}, {20, 0, 0}, 2.4e9, 0);
  EXPECT_NEAR(rx10 - rx20, 6.02, 0.05);  // doubling distance costs 6 dB
}

TEST(Propagation, LogDistanceExponent) {
  LogDistanceLossModel model(3.0);
  const double rx10 = model.RxPowerDbm(0.0, {0, 0, 0}, {10, 0, 0}, 2.4e9, 1);
  const double rx100 = model.RxPowerDbm(0.0, {0, 0, 0}, {100, 0, 0}, 2.4e9, 1);
  EXPECT_NEAR(rx10 - rx100, 30.0, 1e-6);  // 10× distance = 10·n dB
}

TEST(Propagation, ShadowingIsStaticPerLink) {
  LogDistanceLossModel model(3.0, 8.0, 99);
  const double a1 = model.RxPowerDbm(0, {0, 0, 0}, {50, 0, 0}, 2.4e9, 1);
  const double a2 = model.RxPowerDbm(0, {0, 0, 0}, {50, 0, 0}, 2.4e9, 1);
  const double b = model.RxPowerDbm(0, {0, 0, 0}, {50, 0, 0}, 2.4e9, 2);
  EXPECT_EQ(a1, a2);   // same link → same draw
  EXPECT_NE(a1, b);    // different link → different draw (w.h.p.)
}

TEST(Propagation, MatrixLossExactAndSymmetric) {
  MatrixLossModel model(200.0);
  model.SetLoss(1, 2, 80.0);
  const uint64_t l12 = MatrixLossModel::MakeLinkId(1, 2);
  const uint64_t l21 = MatrixLossModel::MakeLinkId(2, 1);
  const uint64_t l13 = MatrixLossModel::MakeLinkId(1, 3);
  EXPECT_NEAR(model.RxPowerDbm(16, {}, {}, 2.4e9, l12), -64.0, 1e-9);
  EXPECT_NEAR(model.RxPowerDbm(16, {}, {}, 2.4e9, l21), -64.0, 1e-9);
  EXPECT_NEAR(model.RxPowerDbm(16, {}, {}, 2.4e9, l13), -184.0, 1e-9);
}

TEST(Propagation, ConstantSpeedDelay) {
  ConstantSpeedDelayModel model;
  const Time d = model.Delay({0, 0, 0}, {300, 0, 0});
  EXPECT_NEAR(d.micros(), 1.0007, 0.001);  // 300 m ≈ 1 us
}

// --- Fading ---------------------------------------------------------------------

TEST(Fading, RayleighUnitMeanExponentialPower) {
  Rng rng(21);
  RayleighFading fading;
  double sum = 0;
  constexpr int kN = 100000;
  int below_mean = 0;
  for (int i = 0; i < kN; ++i) {
    const double g = fading.SampleGain(rng);
    ASSERT_GE(g, 0.0);
    sum += g;
    below_mean += g < 1.0;
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.02);
  // Exponential: P(X < mean) = 1 - 1/e ≈ 0.632.
  EXPECT_NEAR(static_cast<double>(below_mean) / kN, 0.632, 0.01);
}

TEST(Fading, NakagamiMeanOneAndVarianceShrinksWithM) {
  Rng rng(22);
  for (double m : {0.5, 1.0, 4.0}) {
    NakagamiFading fading(m);
    double sum = 0;
    double sq = 0;
    constexpr int kN = 60000;
    for (int i = 0; i < kN; ++i) {
      const double g = fading.SampleGain(rng);
      sum += g;
      sq += g * g;
    }
    const double mean = sum / kN;
    const double var = sq / kN - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.03) << "m=" << m;
    EXPECT_NEAR(var, 1.0 / m, 0.1 / m + 0.05) << "m=" << m;  // Var = 1/m
  }
}

// --- Error model ------------------------------------------------------------------

TEST(ErrorModel, SuccessMonotoneInSinr) {
  DefaultErrorRateModel model;
  for (const WifiMode& m : ModesFor(PhyStandard::k80211a)) {
    double prev = 0.0;
    for (double snr_db = -5; snr_db <= 35; snr_db += 1) {
      const double p = model.ChunkSuccessProbability(m, DbToRatio(snr_db), 8 * 1000);
      EXPECT_GE(p, prev - 1e-12) << m.name << " at " << snr_db;
      prev = p;
    }
  }
}

TEST(ErrorModel, SuccessDecreasesWithLength) {
  DefaultErrorRateModel model;
  const WifiMode& m = ModeAt(PhyStandard::k80211a, 24'000'000);
  const double sinr = DbToRatio(8.0);
  double prev = 1.0;
  for (uint64_t bits : {100u, 1000u, 10000u, 100000u}) {
    const double p = model.ChunkSuccessProbability(m, sinr, bits);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(ErrorModel, HigherRatesNeedMoreSnr) {
  // The SNR needed for 90 % success of a 1000-byte frame must increase with
  // the data rate within a PHY family.
  DefaultErrorRateModel model;
  auto required_snr_db = [&](const WifiMode& m) {
    for (double snr_db = -10; snr_db <= 40; snr_db += 0.25) {
      if (model.ChunkSuccessProbability(m, DbToRatio(snr_db), 8000) > 0.9) {
        return snr_db;
      }
    }
    return 99.0;
  };
  const auto ofdm = ModesFor(PhyStandard::k80211a);
  for (size_t i = 1; i < ofdm.size(); ++i) {
    EXPECT_GT(required_snr_db(ofdm[i]), required_snr_db(ofdm[i - 1]) - 0.26)
        << ofdm[i].name << " vs " << ofdm[i - 1].name;
  }
  const auto dsss = ModesFor(PhyStandard::k80211b);
  for (size_t i = 1; i < dsss.size(); ++i) {
    EXPECT_GT(required_snr_db(dsss[i]), required_snr_db(dsss[i - 1]))
        << dsss[i].name << " vs " << dsss[i - 1].name;
  }
}

TEST(ErrorModel, ExtremesSaturate) {
  DefaultErrorRateModel model;
  const WifiMode& m = ModeAt(PhyStandard::k80211b, 11'000'000);
  EXPECT_GT(model.ChunkSuccessProbability(m, DbToRatio(30), 8000), 0.9999);
  EXPECT_LT(model.ChunkSuccessProbability(m, DbToRatio(-10), 8000), 1e-6);
  EXPECT_EQ(model.ChunkSuccessProbability(m, 1e9, 0), 1.0);
}

TEST(ErrorModel, QFunctionAnchors) {
  EXPECT_NEAR(QFunction(0.0), 0.5, 1e-12);
  EXPECT_NEAR(QFunction(1.0), 0.1587, 1e-4);
  EXPECT_NEAR(QFunction(3.0), 0.00135, 1e-5);
}

// --- Interference tracker -----------------------------------------------------------

TEST(Interference, TotalPowerSumsOverlaps) {
  InterferenceTracker tracker;
  tracker.AddSignal(Time::Micros(0), Time::Micros(100), 1e-9);
  tracker.AddSignal(Time::Micros(50), Time::Micros(150), 2e-9);
  EXPECT_NEAR(tracker.TotalPowerW(Time::Micros(25)), 1e-9, 1e-15);
  EXPECT_NEAR(tracker.TotalPowerW(Time::Micros(75)), 3e-9, 1e-15);
  EXPECT_NEAR(tracker.TotalPowerW(Time::Micros(125)), 2e-9, 1e-15);
  EXPECT_NEAR(tracker.TotalPowerW(Time::Micros(200)), 0.0, 1e-18);
}

TEST(Interference, TimeWhenPowerBelow) {
  InterferenceTracker tracker;
  tracker.AddSignal(Time::Micros(0), Time::Micros(100), 1e-9);
  tracker.AddSignal(Time::Micros(0), Time::Micros(60), 1e-9);
  const Time t = tracker.TimeWhenPowerBelow(Time::Micros(10), 1.5e-9);
  EXPECT_EQ(t, Time::Micros(60));
}

TEST(Interference, CleanChannelHighSnrSucceeds) {
  InterferenceTracker tracker;
  DefaultErrorRateModel model;
  const WifiMode& mode = ModeAt(PhyStandard::k80211b, 11'000'000);
  const uint64_t id = tracker.AddSignal(Time::Zero(), Time::Micros(1000), DbmToW(-60));
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = id;
  plan.start = Time::Zero();
  plan.payload_start = Time::Micros(192);
  plan.end = Time::Micros(1000);
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = mode;
  plan.header_bits = 48;
  plan.payload_bits = 8000;
  plan.noise_w = DbmToW(-94);
  EXPECT_GT(tracker.SuccessProbability(plan, model), 0.999);
  EXPECT_NEAR(RatioToDb(tracker.MeanSinr(plan)), 34.0, 0.5);
}

TEST(Interference, StrongOverlapKillsReception) {
  InterferenceTracker tracker;
  DefaultErrorRateModel model;
  const WifiMode& mode = ModeAt(PhyStandard::k80211b, 11'000'000);
  const uint64_t id = tracker.AddSignal(Time::Zero(), Time::Micros(1000), DbmToW(-60));
  tracker.AddSignal(Time::Micros(300), Time::Micros(700), DbmToW(-60));  // equal-power collider
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = id;
  plan.start = Time::Zero();
  plan.payload_start = Time::Micros(192);
  plan.end = Time::Micros(1000);
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = mode;
  plan.header_bits = 48;
  plan.payload_bits = 8000;
  plan.noise_w = DbmToW(-94);
  EXPECT_LT(tracker.SuccessProbability(plan, model), 1e-6);
}

TEST(Interference, PartialOverlapOnlyDegradesChunk) {
  InterferenceTracker tracker;
  DefaultErrorRateModel model;
  const WifiMode& mode = ModeAt(PhyStandard::k80211b, 1'000'000);
  const uint64_t id = tracker.AddSignal(Time::Zero(), Time::Millis(8), DbmToW(-60));
  // Weak interferer overlapping 10% of the frame: SINR in that chunk is
  // still 20 dB, so the frame survives.
  tracker.AddSignal(Time::Micros(100), Time::Micros(900), DbmToW(-80));
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = id;
  plan.start = Time::Zero();
  plan.payload_start = Time::Micros(192);
  plan.end = Time::Millis(8);
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = mode;
  plan.header_bits = 48;
  plan.payload_bits = 8000;
  plan.noise_w = DbmToW(-94);
  EXPECT_GT(tracker.SuccessProbability(plan, model), 0.99);
}

TEST(Interference, CleanupDropsExpired) {
  InterferenceTracker tracker;
  tracker.AddSignal(Time::Micros(0), Time::Micros(10), 1e-9);
  tracker.AddSignal(Time::Micros(0), Time::Micros(1000), 1e-9);
  tracker.Cleanup(Time::Micros(500));
  EXPECT_EQ(tracker.ActiveSignalCount(), 1u);
}

TEST(Interference, EvaluateReceptionMatchesSeparateQueries) {
  InterferenceTracker tracker;
  DefaultErrorRateModel model;
  const uint64_t id = tracker.AddSignal(Time::Zero(), Time::Micros(1000), DbmToW(-60));
  tracker.AddSignal(Time::Micros(100), Time::Micros(400), DbmToW(-75));
  tracker.AddSignal(Time::Micros(300), Time::Micros(900), DbmToW(-82));
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = id;
  plan.start = Time::Zero();
  plan.payload_start = Time::Micros(192);
  plan.end = Time::Micros(1000);
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = ModeAt(PhyStandard::k80211b, 11'000'000);
  plan.header_bits = 48;
  plan.payload_bits = 8000;
  plan.noise_w = DbmToW(-94);
  const auto stats = tracker.EvaluateReception(plan, model);
  EXPECT_EQ(stats.success_probability, tracker.SuccessProbability(plan, model));
  EXPECT_EQ(stats.mean_sinr, tracker.MeanSinr(plan));
}

TEST(Interference, AutoExpiryMatchesLegacyPurgeTrigger) {
  // The tracker must reproduce the legacy caller-side policy exactly: prune
  // only once MORE than 64 signals are stored, dropping everything that
  // ended at or before the triggering arrival's start.
  InterferenceTracker tracker;
  for (int i = 0; i < 64; ++i) {
    tracker.AddSignal(Time::Micros(i), Time::Micros(i + 1), 1e-9);
  }
  EXPECT_EQ(tracker.ActiveSignalCount(), 64u);  // at threshold: no purge yet
  tracker.AddSignal(Time::Micros(1000), Time::Micros(1001), 1e-9);
  EXPECT_EQ(tracker.ActiveSignalCount(), 1u);  // 65th add purged the 64 ended
  EXPECT_EQ(tracker.stats().cleanup_drops, 64u);
}

TEST(Interference, PinnedSignalSurvivesExpiry) {
  InterferenceTracker tracker;
  const uint64_t pinned = tracker.AddSignal(Time::Micros(0), Time::Micros(10), 1e-9);
  tracker.PinSignal(pinned);
  for (int i = 0; i < 70; ++i) {
    tracker.AddSignal(Time::Micros(20 + i), Time::Micros(21 + i), 1e-9);
  }
  // Every unpinned ended signal is gone; the pinned one must remain even
  // though it ended long before the expiry horizon.
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = pinned;
  plan.start = Time::Micros(0);
  plan.payload_start = Time::Micros(2);
  plan.end = Time::Micros(10);
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = BaseModeFor(PhyStandard::k80211b);
  plan.header_bits = 48;
  plan.payload_bits = 80;
  plan.noise_w = DbmToW(-94);
  DefaultErrorRateModel model;
  EXPECT_GT(tracker.SuccessProbability(plan, model), 0.0);
  const size_t with_pinned = tracker.ActiveSignalCount();
  tracker.UnpinSignal();
  // An explicit Cleanup ignores the (now released) pin and drops it.
  tracker.Cleanup(Time::Micros(10));
  EXPECT_EQ(tracker.ActiveSignalCount(), with_pinned - 1);
}

TEST(Interference, PinnedSignalKeepsItsTimelineEvents) {
  // Expiry spares the pinned signal, and must spare its timeline events
  // too: a surviving reception that overlapped it still sees it as an
  // interferer. The same window over a tracker that never expired anything
  // is the oracle, bit for bit.
  const Time p_start = Time::Micros(100);
  const Time p_end = Time::Micros(110);
  const Time s_start = Time::Micros(105);
  const Time s_end = Time::Micros(1000);
  InterferenceTracker tracker;
  const uint64_t pinned = tracker.AddSignal(p_start, p_end, 1e-8);
  tracker.PinSignal(pinned);
  const uint64_t survivor = tracker.AddSignal(s_start, s_end, 1e-7);
  for (int i = 0; i < 70; ++i) {
    tracker.AddSignal(Time::Micros(200 + i), Time::Micros(201 + i), 1e-9);
  }
  ASSERT_GT(tracker.stats().cleanup_drops, 0u);  // expiry ran past p_end

  InterferenceTracker fresh;
  fresh.AddSignal(p_start, p_end, 1e-8);
  const uint64_t fresh_survivor = fresh.AddSignal(s_start, s_end, 1e-7);

  InterferenceTracker::ReceptionPlan plan;
  plan.start = s_start;
  plan.payload_start = s_start;
  plan.end = Time::Micros(150);  // ends before the later signals start
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = BaseModeFor(PhyStandard::k80211b);
  plan.header_bits = 48;
  plan.payload_bits = 80;
  plan.noise_w = DbmToW(-94);
  plan.signal_id = survivor;
  const double got = tracker.MeanSinr(plan);
  plan.signal_id = fresh_survivor;
  const double want = fresh.MeanSinr(plan);
  EXPECT_EQ(got, want);
  EXPECT_LT(want, 1e-7 / DbmToW(-94));  // the pinned signal does interfere
}

TEST(Interference, TimeWhenPowerBelowContract) {
  InterferenceTracker tracker;
  ReferenceInterferenceTracker reference;
  // No signals: already-below returns t.
  EXPECT_EQ(tracker.TimeWhenPowerBelow(Time::Micros(5), 1e-12), Time::Micros(5));
  tracker.AddSignal(Time::Micros(0), Time::Micros(100), 1e-9);
  tracker.AddSignal(Time::Micros(50), Time::Micros(300), 2e-9);
  reference.AddSignal(Time::Micros(0), Time::Micros(100), 1e-9);
  reference.AddSignal(Time::Micros(50), Time::Micros(300), 2e-9);
  // threshold <= 0: no instant qualifies; the documented contract is the
  // first instant after every known signal has ended (signals are
  // half-open, so that is the latest end) — on both implementations.
  EXPECT_EQ(tracker.TimeWhenPowerBelow(Time::Micros(10), 0.0), Time::Micros(300));
  EXPECT_EQ(reference.TimeWhenPowerBelow(Time::Micros(10), 0.0), Time::Micros(300));
}

TEST(Interference, StatsCountersAdvance) {
  InterferenceTracker tracker;
  DefaultErrorRateModel model;
  const uint64_t id = tracker.AddSignal(Time::Zero(), Time::Micros(1000), DbmToW(-60));
  tracker.AddSignal(Time::Micros(200), Time::Micros(600), DbmToW(-80));
  tracker.TotalPowerW(Time::Micros(100));
  EXPECT_GT(tracker.stats().signals_scanned, 0u);
  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = id;
  plan.start = Time::Zero();
  plan.payload_start = Time::Micros(192);
  plan.end = Time::Micros(1000);
  plan.header_mode = BaseModeFor(PhyStandard::k80211b);
  plan.payload_mode = BaseModeFor(PhyStandard::k80211b);
  plan.header_bits = 48;
  plan.payload_bits = 8000;
  plan.noise_w = DbmToW(-94);
  tracker.SuccessProbability(plan, model);
  // The fused sweep emits spans split at the interferer's start and end.
  EXPECT_GE(tracker.stats().chunks_computed, 3u);
  EXPECT_GE(tracker.stats().timeline_merges, 1u);
}

// --- Differential: sweep-line tracker vs the preserved reference ---------------

// The sweep-line tracker must be bit-identical to the naive implementation
// on every query: same chunk boundaries, same id-ordered power folds. All
// comparisons below are EXACT double equality, not approximate.
class InterferenceDifferential {
 public:
  explicit InterferenceDifferential(uint64_t seed) : rng_(seed) {}

  // Adds the same signal to both trackers, mirroring the tracker's internal
  // legacy purge onto the reference so both keep the identical live set.
  uint64_t Add(Time start, Time end, double power_w) {
    const uint64_t id = tracker_.AddSignal(start, end, power_w);
    const uint64_t ref_id = reference_.AddSignal(start, end, power_w);
    EXPECT_EQ(id, ref_id);
    if (reference_.ActiveSignalCount() > 64) {
      reference_.Cleanup(start);
    }
    EXPECT_EQ(tracker_.ActiveSignalCount(), reference_.ActiveSignalCount());
    live_.push_back({id, start, end});
    return id;
  }

  void CompareAt(Time t) {
    EXPECT_EQ(tracker_.TotalPowerW(t), reference_.TotalPowerW(t)) << "t=" << t.ToString();
    for (const double threshold : {1e-7, 1e-9, 5e-10, 1e-12, 0.0}) {
      EXPECT_EQ(tracker_.TimeWhenPowerBelow(t, threshold),
                reference_.TimeWhenPowerBelow(t, threshold))
          << "t=" << t.ToString() << " thr=" << threshold;
    }
  }

  void ComparePlan(const InterferenceTracker::ReceptionPlan& plan) {
    EXPECT_EQ(tracker_.SuccessProbability(plan, model_),
              reference_.SuccessProbability(plan, model_));
    EXPECT_EQ(tracker_.MeanSinr(plan), reference_.MeanSinr(plan));
    const auto stats = tracker_.EvaluateReception(plan, model_);
    EXPECT_EQ(stats.success_probability, reference_.SuccessProbability(plan, model_));
    EXPECT_EQ(stats.mean_sinr, reference_.MeanSinr(plan));
  }

  InterferenceTracker::ReceptionPlan PlanFor(uint64_t id, Time start, Time end,
                                             Time payload_start) {
    InterferenceTracker::ReceptionPlan plan;
    plan.signal_id = id;
    plan.start = start;
    plan.payload_start = payload_start;
    plan.end = end;
    plan.header_mode = BaseModeFor(PhyStandard::k80211b);
    plan.payload_mode = ModesFor(PhyStandard::k80211b).back();
    plan.header_bits = 48;
    plan.payload_bits = 8000;
    plan.noise_w = DbmToW(-94);
    return plan;
  }

  Rng& rng() { return rng_; }
  const std::vector<std::tuple<uint64_t, Time, Time>>& live() const { return live_; }

 private:
  Rng rng_;
  DefaultErrorRateModel model_;
  InterferenceTracker tracker_;
  ReferenceInterferenceTracker reference_;
  std::vector<std::tuple<uint64_t, Time, Time>> live_;
};

TEST(InterferenceDifferentialTest, RandomSignalSetsMatchExactly) {
  InterferenceDifferential diff(2024);
  Rng& rng = diff.rng();
  Time now = Time::Zero();
  for (int step = 0; step < 300; ++step) {
    now += Time::Micros(rng.UniformInt(0, 400));  // duplicate starts possible
    const Time duration = Time::Micros(rng.UniformInt(0, 1500));  // zero-length possible
    const uint64_t id = diff.Add(now, now + duration, DbmToW(rng.Uniform(-95.0, -45.0)));

    if (step % 3 == 0) {
      diff.CompareAt(now);
      diff.CompareAt(now + Time::Micros(rng.UniformInt(0, 2000)));
    }
    if (step % 5 == 0 && !duration.IsZero()) {
      // Reception plan over the just-added signal with a random header
      // split (clamped into the window; sometimes degenerate).
      const Time ps = now + Time::Micros(rng.UniformInt(0, duration.picos() / 1'000'000));
      diff.ComparePlan(diff.PlanFor(id, now, now + duration, ps));
    }
    if (step % 7 == 0 && diff.live().size() > 3) {
      // Re-evaluate an older signal still in both trackers: windows that
      // span many later arrivals and expiries.
      const auto& [old_id, old_start, old_end] =
          diff.live()[diff.live().size() - 1 -
                      static_cast<size_t>(rng.UniformInt(0, 2))];
      if (old_end > now && old_end > old_start) {
        diff.ComparePlan(diff.PlanFor(old_id, old_start, old_end,
                                      old_start + (old_end - old_start) / 4));
      }
    }
  }
}

TEST(InterferenceDifferentialTest, ChunkBoundaryEdgeCases) {
  InterferenceDifferential diff(7);
  const Time start = Time::Micros(0);
  const Time ps = Time::Micros(192);
  const Time end = Time::Micros(1000);
  const uint64_t self = diff.Add(start, end, DbmToW(-60));
  // A signal ending exactly at payload_start, one starting exactly there,
  // duplicate change points (two equal signals), a signal abutting another
  // (A.end == B.start), and a zero-length signal inside the payload.
  diff.Add(Time::Micros(50), ps, DbmToW(-70));
  diff.Add(ps, Time::Micros(400), DbmToW(-72));
  diff.Add(Time::Micros(300), Time::Micros(500), DbmToW(-74));
  diff.Add(Time::Micros(300), Time::Micros(500), DbmToW(-76));
  diff.Add(Time::Micros(500), Time::Micros(700), DbmToW(-78));
  diff.Add(Time::Micros(600), Time::Micros(600), DbmToW(-50));
  diff.ComparePlan(diff.PlanFor(self, start, end, ps));
  // Degenerate windows: empty header (ps == start) and empty payload
  // (ps == end).
  diff.ComparePlan(diff.PlanFor(self, start, end, start));
  diff.ComparePlan(diff.PlanFor(self, start, end, end));
  diff.CompareAt(Time::Micros(300));
  diff.CompareAt(Time::Micros(600));
  diff.CompareAt(Time::Micros(999));
}

// --- WifiPhy over a channel ---------------------------------------------------------

struct PhyFixture {
  Simulator sim;
  Channel channel{&sim, std::make_unique<LogDistanceLossModel>(3.0), Rng(1)};
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility pos_b{{10, 0, 0}};
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};

  PhyFixture() {
    a.AttachChannel(&channel, 0, &pos_a);
    b.AttachChannel(&channel, 1, &pos_b);
  }
};

TEST(WifiPhy, DeliversFrameWithRssiAndSuccess) {
  PhyFixture f;
  int received = 0;
  RxInfo last_info;
  f.b.SetReceiveCallback([&](Packet p, const RxInfo& info) {
    ++received;
    last_info = info;
    EXPECT_EQ(p.size(), 100u);
  });
  Packet packet(100);
  f.sim.Schedule(Time::Zero(), [&] {
    f.a.StartTx(packet, BaseModeFor(PhyStandard::k80211b));
  });
  f.sim.Run();
  EXPECT_EQ(received, 1);
  EXPECT_TRUE(last_info.success);
  // Log-distance at 10 m, n=3: 40 dB @1m + 30 dB = 70 dB below 16 dBm.
  EXPECT_NEAR(last_info.rssi_dbm, 16.0 - 70.1, 1.0);
}

TEST(WifiPhy, HalfDuplexTransmitterHearsNothing) {
  PhyFixture f;
  int received_at_a = 0;
  f.a.SetReceiveCallback([&](Packet, const RxInfo&) { ++received_at_a; });
  Packet p1(500);
  Packet p2(500);
  f.sim.Schedule(Time::Zero(), [&] { f.a.StartTx(p1, BaseModeFor(PhyStandard::k80211b)); });
  // b transmits while a is still transmitting: a must not receive it.
  f.sim.Schedule(Time::Micros(100), [&] { f.b.StartTx(p2, BaseModeFor(PhyStandard::k80211b)); });
  f.sim.Run();
  EXPECT_EQ(received_at_a, 0);
  EXPECT_EQ(f.a.counters().rx_dropped_busy, 1u);
}

TEST(WifiPhy, StateTransitionsIdleTxIdle) {
  PhyFixture f;
  Packet p(100);
  EXPECT_EQ(f.a.state(), WifiPhy::State::kIdle);
  f.sim.Schedule(Time::Zero(), [&] {
    f.a.StartTx(p, BaseModeFor(PhyStandard::k80211b));
    EXPECT_EQ(f.a.state(), WifiPhy::State::kTx);
  });
  f.sim.Run();
  EXPECT_EQ(f.a.state(), WifiPhy::State::kIdle);
}

TEST(WifiPhy, ListenerSeesRxStartAndEnd) {
  struct Recorder : PhyListener {
    int rx_start = 0;
    int rx_end_ok = 0;
    int rx_end_err = 0;
    int tx_start = 0;
    int cca = 0;
    void NotifyRxStart(Time) override { ++rx_start; }
    void NotifyRxEnd(bool ok) override { ok ? ++rx_end_ok : ++rx_end_err; }
    void NotifyTxStart(Time) override { ++tx_start; }
    void NotifyCcaBusyStart(Time) override { ++cca; }
  };
  PhyFixture f;
  Recorder rec;
  f.b.SetListener(&rec);
  Packet p(200);
  f.sim.Schedule(Time::Zero(), [&] { f.a.StartTx(p, BaseModeFor(PhyStandard::k80211b)); });
  f.sim.Run();
  EXPECT_EQ(rec.rx_start, 1);
  EXPECT_EQ(rec.rx_end_ok, 1);
  EXPECT_EQ(rec.rx_end_err, 0);
}

TEST(WifiPhy, WeakSignalBelowPreambleDetectIgnored) {
  Simulator sim;
  Channel channel{&sim, std::make_unique<LogDistanceLossModel>(4.0), Rng(1)};
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility pos_b{{4000, 0, 0}};  // ~184 dB loss at n=4
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  a.AttachChannel(&channel, 0, &pos_a);
  b.AttachChannel(&channel, 1, &pos_b);
  int received = 0;
  b.SetReceiveCallback([&](Packet, const RxInfo&) { ++received; });
  Packet p(100);
  sim.Schedule(Time::Zero(), [&] { a.StartTx(p, BaseModeFor(PhyStandard::k80211b)); });
  sim.Run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(b.state(), WifiPhy::State::kIdle);
}

TEST(WifiPhy, CaptureStealsReceiverDuringPreamble) {
  Simulator sim;
  auto loss = std::make_unique<MatrixLossModel>(200.0);
  MatrixLossModel* matrix = loss.get();
  matrix->SetLoss(0, 2, 90.0);   // weak first arrival: -74 dBm
  matrix->SetLoss(1, 2, 60.0);   // strong newcomer:    -44 dBm
  Channel channel{&sim, std::move(loss), Rng(1)};
  ConstantPositionMobility pa{{0, 0, 0}};
  ConstantPositionMobility pb{{1, 0, 0}};
  ConstantPositionMobility pc{{2, 0, 0}};
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  WifiPhy c{&sim, {}, Rng(4)};
  a.AttachChannel(&channel, 0, &pa);
  b.AttachChannel(&channel, 1, &pb);
  c.AttachChannel(&channel, 2, &pc);
  int delivered = 0;
  double rssi = 0;
  c.SetReceiveCallback([&](Packet, const RxInfo& info) {
    if (info.success) {
      ++delivered;
      rssi = info.rssi_dbm;
    }
  });
  Packet p1(500);
  Packet p2(500);
  sim.Schedule(Time::Zero(), [&] { a.StartTx(p1, BaseModeFor(PhyStandard::k80211b)); });
  // Arrives 50 us later, still inside the 192 us DSSS preamble, 30 dB louder.
  sim.Schedule(Time::Micros(50), [&] { b.StartTx(p2, BaseModeFor(PhyStandard::k80211b)); });
  sim.Run();
  EXPECT_EQ(c.counters().rx_captured, 1u);
  EXPECT_EQ(delivered, 1);
  EXPECT_NEAR(rssi, -44.0, 0.5);  // the captured (strong) frame won
}

TEST(WifiPhy, ChannelNumberIsolation) {
  PhyFixture f;
  f.b.SetChannelNumber(6);
  int received = 0;
  f.b.SetReceiveCallback([&](Packet, const RxInfo&) { ++received; });
  Packet p(100);
  f.sim.Schedule(Time::Zero(), [&] { f.a.StartTx(p, BaseModeFor(PhyStandard::k80211b)); });
  f.sim.Run();
  EXPECT_EQ(received, 0);
}

// --- Channel link cache --------------------------------------------------------

TEST(LinkCache, StaticLinkCachedAndTeleportInvalidates) {
  PhyFixture f;
  std::vector<double> rssi;
  f.b.SetReceiveCallback([&](Packet, const RxInfo& info) { rssi.push_back(info.rssi_dbm); });
  Packet p(100);
  auto tx = [&] { f.a.StartTx(p, BaseModeFor(PhyStandard::k80211b)); };
  f.sim.Schedule(Time::Millis(0), tx);
  f.sim.Schedule(Time::Millis(5), tx);   // second send: cache hit
  f.sim.Schedule(Time::Millis(10), [&] {
    // Teleport the receiver mid-campaign: its position epoch bumps, so the
    // cached row must go stale without any explicit invalidation call.
    f.pos_b.SetPosition({100, 0, 0});
    tx();
  });
  f.sim.Schedule(Time::Millis(15), tx);  // re-cached at the new position
  f.sim.Run();

  ASSERT_EQ(rssi.size(), 4u);
  EXPECT_DOUBLE_EQ(rssi[0], rssi[1]);  // memoized value is bit-exact
  // Log-distance n=3: moving 10 m -> 100 m adds 30 dB of path loss.
  EXPECT_NEAR(rssi[0] - rssi[2], 30.0, 0.1);
  EXPECT_DOUBLE_EQ(rssi[2], rssi[3]);
  EXPECT_EQ(f.channel.cache_stats().hits, 2u);    // sends 2 and 4
  EXPECT_EQ(f.channel.cache_stats().misses, 2u);  // sends 1 and 3
}

TEST(LinkCache, LossModelMutationInvalidatesAutomatically) {
  Simulator sim;
  auto loss = std::make_unique<MatrixLossModel>(200.0);
  MatrixLossModel* matrix = loss.get();
  matrix->SetLoss(0, 1, 60.0);
  Channel channel{&sim, std::move(loss), Rng(1)};
  ConstantPositionMobility pa{{0, 0, 0}};
  ConstantPositionMobility pb{{5, 0, 0}};
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  a.AttachChannel(&channel, 0, &pa);
  b.AttachChannel(&channel, 1, &pb);
  std::vector<double> rssi;
  b.SetReceiveCallback([&](Packet, const RxInfo& info) { rssi.push_back(info.rssi_dbm); });
  Packet p(100);
  sim.Schedule(Time::Millis(0), [&] { a.StartTx(p, BaseModeFor(PhyStandard::k80211b)); });
  sim.Schedule(Time::Millis(5), [&] {
    // Both endpoints are static, so only the loss model's mutation epoch
    // can (and must) invalidate the cached row — no explicit call needed.
    matrix->SetLoss(0, 1, 80.0);
    a.StartTx(p, BaseModeFor(PhyStandard::k80211b));
  });
  sim.Run();
  ASSERT_EQ(rssi.size(), 2u);
  EXPECT_NEAR(rssi[0], 16.0 - 60.0, 1e-9);
  EXPECT_NEAR(rssi[1], 16.0 - 80.0, 1e-9);
}

TEST(LinkCache, MovingReceiverBypassesCache) {
  Simulator sim;
  Channel channel{&sim, std::make_unique<LogDistanceLossModel>(3.0), Rng(1)};
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantVelocityMobility pos_b{{10, 0, 0}, {100, 0, 0}};  // 100 m/s away
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  a.AttachChannel(&channel, 0, &pos_a);
  b.AttachChannel(&channel, 1, &pos_b);
  std::vector<double> rssi;
  b.SetReceiveCallback([&](Packet, const RxInfo& info) { rssi.push_back(info.rssi_dbm); });
  Packet p(100);
  auto tx = [&] { a.StartTx(p, BaseModeFor(PhyStandard::k80211b)); };
  sim.Schedule(Time::Millis(0), tx);
  sim.Schedule(Time::Millis(100), tx);  // receiver has moved 10 m -> 20 m
  sim.Run();

  ASSERT_EQ(rssi.size(), 2u);
  EXPECT_EQ(channel.cache_stats().hits, 0u);  // moving endpoint: never cached
  EXPECT_EQ(channel.cache_stats().misses, 2u);
  // Doubling the distance under n=3 costs 30 log10(2) ~ 9 dB.
  EXPECT_NEAR(rssi[0] - rssi[1], 9.03, 0.2);
}

}  // namespace
}  // namespace wlansim
