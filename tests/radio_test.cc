// The radio-ops seam: the attach contract (double-attach throws, back-link
// install, mobility re-registration through NotifyMobilityReplaced), cross-
// technology energy coupling between RadioDevice implementations, the
// transmit-only fan-out guarantee, and determinism of the heterogeneous
// coexistence scenarios across sweep parallelism.

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/random.h"
#include "core/simulator.h"
#include "net/ism_interferer.h"
#include "net/radios.h"
#include "phy/channel.h"
#include "phy/mobility.h"
#include "phy/propagation.h"
#include "phy/wifi_phy.h"
#include "runner/builders.h"
#include "runner/campaign.h"
#include "runner/scenario_registry.h"
#include "tests/support/result_helpers.h"

namespace wlansim {
namespace {

std::unique_ptr<Channel> MakeChannel(Simulator* sim) {
  return std::make_unique<Channel>(sim, std::make_unique<LogDistanceLossModel>(3.0), Rng(1));
}

// --- Attach contract -----------------------------------------------------------

TEST(RadioSeam, DoubleAttachThrows) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  ConstantPositionMobility pos{{0, 0, 0}};
  WifiPhy phy{&sim, {}, Rng(2)};
  phy.AttachChannel(channel.get(), 0, &pos);
  EXPECT_THROW(channel->Attach(&phy), std::invalid_argument);
}

TEST(RadioSeam, AttachInstallsChannelBackLink) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  ConstantPositionMobility pos{{0, 0, 0}};
  WifiPhy phy{&sim, {}, Rng(2)};
  EXPECT_EQ(phy.channel(), nullptr);
  phy.AttachChannel(channel.get(), 0, &pos);
  EXPECT_EQ(phy.channel(), channel.get());

  MicrowaveOven::Config oc;
  MicrowaveOven oven(&sim, channel.get(), 1, oc);
  EXPECT_EQ(oven.channel(), channel.get());
}

TEST(RadioSeam, SameDeviceOnTwoChannelsThrowsOnSecond) {
  // One device, one medium: the back-link is single-valued, so a second
  // channel must refuse rather than silently corrupt the first's index.
  Simulator sim;
  auto first = MakeChannel(&sim);
  auto second = MakeChannel(&sim);
  ConstantPositionMobility pos{{0, 0, 0}};
  WifiPhy phy{&sim, {}, Rng(2)};
  phy.AttachChannel(first.get(), 0, &pos);
  // Not double-attach on `second` (it has never seen this device), but the
  // first channel still throws if asked again.
  EXPECT_THROW(first->Attach(&phy), std::invalid_argument);
  (void)second;
}

// --- Capabilities --------------------------------------------------------------

TEST(RadioSeam, CapabilitiesDescribeEachTechnology) {
  Simulator sim;
  auto channel = MakeChannel(&sim);

  WifiPhy wifi{&sim, {.tx_power_dbm = 18.0}, Rng(2)};
  const RadioCapabilities wc = wifi.capabilities();
  EXPECT_STREQ(wc.technology, "wifi");
  EXPECT_EQ(wc.protocol, RadioProtocol::kWifi80211);
  EXPECT_DOUBLE_EQ(wc.tx_power_dbm, 18.0);
  EXPECT_TRUE(wc.can_receive);

  SensorRadio sensor(&sim, channel.get(), 7, {});
  const RadioCapabilities sc = sensor.capabilities();
  EXPECT_EQ(sc.protocol, RadioProtocol::kIeee802154);
  EXPECT_TRUE(sc.can_receive);
  EXPECT_DOUBLE_EQ(sc.rx_sensitivity_dbm, -85.0);

  LoraInterferer lora(&sim, channel.get(), 8, {});
  EXPECT_EQ(lora.capabilities().protocol, RadioProtocol::kLora);
  EXPECT_FALSE(lora.capabilities().can_receive);

  MicrowaveOven oven(&sim, channel.get(), 9, {});
  EXPECT_EQ(oven.capabilities().protocol, RadioProtocol::kNoise);
  EXPECT_FALSE(oven.capabilities().can_receive);
}

// --- Cross-technology coupling -------------------------------------------------

// A LoRa chirp lands on a WifiPhy as CCA-busy energy for its full airtime:
// the foreign protocol is opaque but the occupancy is real.
TEST(RadioSeam, ForeignProtocolHoldsWifiCcaBusy) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  ConstantPositionMobility wifi_pos{{0, 0, 0}};
  WifiPhy wifi{&sim, {}, Rng(2)};
  wifi.AttachChannel(channel.get(), 0, &wifi_pos);

  LoraInterferer::Config jc;
  jc.position = {3, 0, 0};  // close enough to sit well above the ED threshold
  jc.airtime = Time::Millis(10);
  jc.duty_pct = 100.0;  // degenerate: solid occupancy after Start
  LoraInterferer jammer(&sim, channel.get(), 1, jc);

  sim.ScheduleAt(Time::Millis(1), [&] { EXPECT_TRUE(wifi.IsIdle()); });
  jammer.Start(Time::Zero());
  bool saw_busy = false;
  sim.ScheduleAt(Time::Millis(200), [&] {
    saw_busy = wifi.state() == WifiPhy::State::kCcaBusy;
  });
  sim.RunUntil(Time::Millis(250));
  EXPECT_GT(jammer.chirps_emitted(), 0u);
  EXPECT_TRUE(saw_busy);
}

// And the reverse: a WiFi frame arriving at a sensor defers its CSMA.
TEST(RadioSeam, SensorsDeliverReportsToTheSink) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  SensorRadio::Config sink_cfg;
  SensorRadio sink(&sim, channel.get(), 0, sink_cfg);
  SensorRadio::Config rep_cfg;
  rep_cfg.position = {5, 0, 0};
  SensorRadio reporter(&sim, channel.get(), 1, rep_cfg);
  reporter.StartReporting(Time::Millis(10), Time::Millis(20));
  sim.RunUntil(Time::Seconds(2));

  EXPECT_GT(reporter.counters().reports_sent, 50u);
  // Clean channel, 5 m: every report arrives intact.
  EXPECT_EQ(sink.counters().rx_ok, reporter.counters().reports_sent);
  EXPECT_EQ(sink.counters().rx_lost_sinr, 0u);
}

// A jammer parked on top of the sink degrades the sensor link: the chirps
// are audible at the reporter too, so CSMA defers and eventually abandons
// reports during each 60 ms chirp — fewer reports make it onto the air
// than the schedule offered.
TEST(RadioSeam, JammerDegradesSensorDelivery) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  SensorRadio sink(&sim, channel.get(), 0, {});
  SensorRadio::Config rep_cfg;
  rep_cfg.position = {8, 0, 0};
  SensorRadio reporter(&sim, channel.get(), 1, rep_cfg);
  LoraInterferer::Config jc;
  jc.position = {0.5, 0, 0};  // on top of the sink
  jc.duty_pct = 50.0;
  LoraInterferer jammer(&sim, channel.get(), 2, jc);
  reporter.StartReporting(Time::Millis(10), Time::Millis(20));
  jammer.Start(Time::Zero());
  sim.RunUntil(Time::Seconds(4));

  EXPECT_GT(jammer.chirps_emitted(), 0u);
  EXPECT_GT(reporter.counters().csma_drops, 0u);
  // ~200 report opportunities in 4 s at 20 ms; the 50 % duty jammer must
  // have cost a visible share of them.
  EXPECT_LT(reporter.counters().reports_sent, 150u);
  EXPECT_LE(sink.counters().rx_ok, reporter.counters().reports_sent);
}

// Transmit-only devices are never offered arrivals: a cooking oven beside a
// chatty BSS costs zero delivery fan-out toward the oven.
TEST(RadioSeam, TransmitOnlyDevicesReceiveNoOffers) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility pos_b{{5, 0, 0}};
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  a.AttachChannel(channel.get(), 0, &pos_a);
  b.AttachChannel(channel.get(), 1, &pos_b);
  MicrowaveOven::Config oc;
  oc.position = {2, 0, 0};
  MicrowaveOven oven(&sim, channel.get(), 2, oc);

  uint64_t offers_to_oven = 0;
  channel->AttachProbe([&](const RadioDevice*, const RadioDevice* rx, double, Time) {
    if (rx == &oven) {
      ++offers_to_oven;
    }
  });
  const Packet p(500);
  channel->Send(&a, p, MakeWifiSignal(ModesFor(PhyStandard::k80211b).back(), p.size(), false));
  sim.RunUntil(Time::Seconds(1));
  EXPECT_EQ(offers_to_oven, 0u);
  EXPECT_EQ(channel->send_stats().offers, 1u);  // b only
}

// --- Zero-copy fan-out ---------------------------------------------------------

// A sink that keeps every delivered packet view, so the test can inspect
// buffer sharing after the fan-out.
class CapturingSink final : public RadioDevice {
 public:
  CapturingSink(uint32_t id, Vector3 pos) : id_(id), mobility_(pos) {}
  RadioCapabilities capabilities() const override { return {}; }
  uint8_t channel_number() const override { return 1; }
  MobilityModel* mobility() const override { return &mobility_; }
  uint32_t node_id() const override { return id_; }
  void Deliver(Packet packet, const SignalParams& /*signal*/, double /*rx_dbm*/) override {
    received_.push_back(std::move(packet));
  }
  std::vector<Packet>& received() { return received_; }

 private:
  uint32_t id_;
  mutable ConstantPositionMobility mobility_;
  std::vector<Packet> received_;
};

TEST(RadioSeam, FanOutSharesOneBufferAcrossReceivers) {
  Simulator sim;
  auto channel = MakeChannel(&sim);
  CapturingSink tx(0, {0, 0, 0});
  CapturingSink r1(1, {1, 0, 0});
  CapturingSink r2(2, {2, 0, 0});
  CapturingSink r3(3, {3, 0, 0});
  for (RadioDevice* d : {static_cast<RadioDevice*>(&tx), static_cast<RadioDevice*>(&r1),
                         static_cast<RadioDevice*>(&r2), static_cast<RadioDevice*>(&r3)}) {
    channel->Attach(d);
  }

  const Packet frame(std::vector<uint8_t>{10, 20, 30, 40});
  channel->Send(&tx, frame, MakeWifiSignal(ModesFor(PhyStandard::k80211b).back(), frame.size(),
                                           false));
  sim.Run();

  // Every receiver holds a view of the sender's buffer — same bytes, no
  // deep copy anywhere in the fan-out.
  ASSERT_EQ(r1.received().size(), 1u);
  ASSERT_EQ(r2.received().size(), 1u);
  ASSERT_EQ(r3.received().size(), 1u);
  for (CapturingSink* rx : {&r1, &r2, &r3}) {
    EXPECT_TRUE(rx->received()[0].SharesBufferWith(frame));
    EXPECT_EQ(rx->received()[0].bytes()[1], 20);
  }
  EXPECT_EQ(frame.buffer_refcount(), 4u);  // the original + three views
  EXPECT_EQ(channel->send_stats().bytes_copied, 0u);
  EXPECT_EQ(sim.EventHeapFallbacks(), 0u);  // delivery closures fit the slab inline

  // One receiver mutating its view detaches only that view.
  r2.received()[0].mutable_bytes()[1] = 99;
  EXPECT_FALSE(r2.received()[0].SharesBufferWith(frame));
  EXPECT_EQ(r1.received()[0].bytes()[1], 20);
  EXPECT_EQ(frame.bytes()[1], 20);
  EXPECT_EQ(frame.buffer_refcount(), 3u);
}

// --- Scenario-level determinism ------------------------------------------------

// The heterogeneous scenarios are registered and replicable: same seed,
// same numbers, independent of everything that ran before.
TEST(RadioSeam, CoexistenceBuildersAreDeterministic) {
  SensorCoexistenceParams sp;
  sp.sim_time = Time::Seconds(1);
  sp.with_jammer = true;
  const SensorCoexistenceResult a = RunSensorCoexistenceScenario(sp);
  const SensorCoexistenceResult b = RunSensorCoexistenceScenario(sp);
  EXPECT_GT(a.sensor_reports_sent, 0u);
  EXPECT_GT(a.jammer_chirps, 0u);
  EXPECT_GT(a.wifi.goodput_mbps, 0.0);
  EXPECT_EQ(a.sensor_reports_sent, b.sensor_reports_sent);
  EXPECT_EQ(a.sensor_rx_ok, b.sensor_rx_ok);
  EXPECT_DOUBLE_EQ(a.wifi.goodput_mbps, b.wifi.goodput_mbps);

  LoraCoexistenceParams lp;
  lp.sim_time = Time::Seconds(1);
  lp.duty_pct = 10.0;  // 600 ms period: several chirps inside one second
  const LoraCoexistenceResult c = RunLoraCoexistenceScenario(lp);
  const LoraCoexistenceResult d = RunLoraCoexistenceScenario(lp);
  EXPECT_GT(c.jammer_chirps, 0u);
  EXPECT_GT(c.wifi.goodput_mbps, 0.0);
  EXPECT_DOUBLE_EQ(c.wifi.goodput_mbps, d.wifi.goodput_mbps);
}

// Campaign determinism across --jobs for a heterogeneous scenario: per-
// replication results must not depend on worker parallelism.
TEST(RadioSeam, SensorCoexistenceCampaignIdenticalAcrossJobs) {
  CampaignOptions options;
  options.scenario = "sensor_coexistence";
  options.params.Set("sim_time_s", "1");
  options.params.Set("with_jammer", "true");
  options.replications = 3;
  options.base_seed = 99;

  RecordCollector serial;
  options.jobs = 1;
  options.consumers = {&serial};
  RunCampaign(options);
  RecordCollector parallel;
  options.jobs = 0;  // auto parallelism
  options.consumers = {&parallel};
  RunCampaign(options);

  ASSERT_EQ(serial.records.size(), 3u);
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (size_t i = 0; i < serial.records.size(); ++i) {
    for (const auto& [name, value] : serial.records[i].metrics) {
      const auto it = parallel.records[i].metrics.find(name);
      ASSERT_NE(it, parallel.records[i].metrics.end()) << name;
      EXPECT_DOUBLE_EQ(value, it->second) << name << " rep " << i;
    }
  }
}

}  // namespace
}  // namespace wlansim
