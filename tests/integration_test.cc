// Full-stack integration tests: association, single-link throughput against
// the analytic DCF bound, RTS/CTS, fragmentation, ciphers over the air,
// ad-hoc mode, and AP bridging.

#include <gtest/gtest.h>

#include "net/network.h"
#include "rate/arf.h"

namespace wlansim {
namespace {

// Analytic saturation goodput of a single 802.11b link at 11 Mb/s with long
// preamble, basic access and payload L bytes:
//   T_cycle = DIFS + E[backoff] + T_data + SIFS + T_ack
//   E[backoff] = CWmin/2 * slot  (single contender, no collisions)
double AnalyticSingleLinkGoodputMbps(size_t payload, size_t overhead_bytes) {
  const PhyTiming t = TimingFor(PhyStandard::k80211b);
  const WifiMode& mode = ModesFor(PhyStandard::k80211b).back();  // 11 Mb/s
  const WifiMode& ack_mode = ControlResponseMode(mode);          // 2 Mb/s
  const double difs = t.Difs().seconds();
  const double backoff = (t.cw_min / 2.0) * t.slot.seconds();
  const double data = FrameDuration(mode, payload + overhead_bytes + 28).seconds();
  const double sifs = t.sifs.seconds();
  const double ack = AckDuration(ack_mode).seconds();
  const double cycle = difs + backoff + data + sifs + ack;
  return static_cast<double>(payload) * 8.0 / cycle / 1e6;
}

TEST(Integration, StaAssociatesWithAp) {
  Network net(Network::Params{.seed = 7});
  net.UseLogDistanceLoss(3.0);
  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = PhyStandard::k80211b});
  Node* sta = net.AddNode(
      {.role = MacRole::kSta, .standard = PhyStandard::k80211b, .position = {10, 0, 0}});
  net.StartAll();
  net.Run(Time::Seconds(2));
  EXPECT_TRUE(sta->mac().IsAssociated());
  EXPECT_EQ(sta->mac().bssid(), ap->address());
  EXPECT_GT(sta->mac().counters().beacons_received, 5u);
}

TEST(Integration, SingleLinkSaturationMatchesAnalyticBound) {
  Network net(Network::Params{.seed = 11});
  net.UseLogDistanceLoss(3.0);
  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = PhyStandard::k80211b});
  Node* sta = net.AddNode(
      {.role = MacRole::kSta, .standard = PhyStandard::k80211b, .position = {5, 0, 0}});
  // Fixed 11 Mb/s: the link is short and clean.
  sta->SetRateController(std::make_unique<FixedRateController>(
      ModesFor(PhyStandard::k80211b).back()));
  net.StartAll();

  constexpr size_t kPayload = 1500;
  auto* app = sta->AddTraffic<SaturatedTraffic>(ap->address(), 1, kPayload);
  app->Start(Time::Seconds(1));
  net.Run(Time::Seconds(11));

  const double measured = net.flow_stats().GoodputMbps(1);
  const double analytic = AnalyticSingleLinkGoodputMbps(kPayload, 0);
  EXPECT_GT(measured, 0.9 * analytic);
  EXPECT_LT(measured, 1.05 * analytic);
  EXPECT_NEAR(net.flow_stats().LossRate(1), 0.0, 0.02);
}

TEST(Integration, AdhocPeersExchangeTraffic) {
  Network net(Network::Params{.seed = 3});
  net.UseLogDistanceLoss(3.0);
  Node* a = net.AddNode({.role = MacRole::kAdhoc, .standard = PhyStandard::k80211g});
  Node* b = net.AddNode(
      {.role = MacRole::kAdhoc, .standard = PhyStandard::k80211g, .position = {15, 0, 0}});
  net.StartAll();
  auto* app =
      a->AddTraffic<CbrTraffic>(b->address(), 1, 1000, Time::Millis(10));
  app->Start(Time::Millis(100));
  net.Run(Time::Seconds(2));
  EXPECT_GT(b->packets_received(), 150u);
  EXPECT_NEAR(net.flow_stats().LossRate(1), 0.0, 0.02);
}

TEST(Integration, ApBridgesBetweenStations) {
  Network net(Network::Params{.seed = 5});
  net.UseLogDistanceLoss(3.0);
  net.AddNode({.role = MacRole::kAp, .standard = PhyStandard::k80211b});
  Node* sta1 = net.AddNode(
      {.role = MacRole::kSta, .standard = PhyStandard::k80211b, .position = {10, 0, 0}});
  Node* sta2 = net.AddNode(
      {.role = MacRole::kSta, .standard = PhyStandard::k80211b, .position = {-10, 0, 0}});
  net.StartAll();
  auto* app = sta1->AddTraffic<CbrTraffic>(sta2->address(), 9, 500, Time::Millis(20));
  app->Start(Time::Seconds(1));
  net.Run(Time::Seconds(3));
  // STA1 → AP → STA2 relay delivers most packets.
  EXPECT_GT(sta2->packets_received(), 80u);
}

TEST(Integration, CcmpCipherWorksOverTheAir) {
  Network net(Network::Params{.seed = 13});
  net.UseLogDistanceLoss(3.0);
  std::vector<uint8_t> key(16, 0xAB);
  auto secure = [&key](WifiMac::Config& c) {
    c.cipher = CipherSuite::kCcmp;
    c.cipher_key = key;
  };
  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = PhyStandard::k80211b, .mac_tweak = secure});
  Node* sta = net.AddNode({.role = MacRole::kSta,
                           .standard = PhyStandard::k80211b,
                           .position = {10, 0, 0},
                           .mac_tweak = secure});
  net.StartAll();
  auto* app = sta->AddTraffic<CbrTraffic>(ap->address(), 2, 800, Time::Millis(10));
  app->Start(Time::Seconds(1));
  net.Run(Time::Seconds(3));
  EXPECT_GT(ap->packets_received(), 150u);
  EXPECT_EQ(ap->mac().counters().rx_decrypt_failures, 0u);
}

TEST(Integration, FragmentationDeliversLargeMsdus) {
  Network net(Network::Params{.seed = 17});
  net.UseLogDistanceLoss(3.0);
  auto frag = [](WifiMac::Config& c) { c.frag_threshold = 600; };
  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = PhyStandard::k80211b, .mac_tweak = frag});
  Node* sta = net.AddNode({.role = MacRole::kSta,
                           .standard = PhyStandard::k80211b,
                           .position = {10, 0, 0},
                           .mac_tweak = frag});
  net.StartAll();
  auto* app = sta->AddTraffic<CbrTraffic>(ap->address(), 4, 2000, Time::Millis(20));
  app->Start(Time::Seconds(1));
  net.Run(Time::Seconds(3));
  EXPECT_GT(ap->packets_received(), 80u);
  // Each delivered MSDU must arrive intact despite spanning 4 fragments.
  EXPECT_GE(ap->bytes_received(), ap->packets_received() * 2000);
}

TEST(Integration, RtsCtsExchangeUsedAboveThreshold) {
  Network net(Network::Params{.seed = 19});
  net.UseLogDistanceLoss(3.0);
  auto rts = [](WifiMac::Config& c) { c.rts_threshold = 500; };
  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = PhyStandard::k80211b, .mac_tweak = rts});
  Node* sta = net.AddNode({.role = MacRole::kSta,
                           .standard = PhyStandard::k80211b,
                           .position = {10, 0, 0},
                           .mac_tweak = rts});
  net.StartAll();
  auto* app = sta->AddTraffic<CbrTraffic>(ap->address(), 6, 1000, Time::Millis(10));
  app->Start(Time::Seconds(1));
  net.Run(Time::Seconds(2));
  EXPECT_GT(sta->mac().counters().tx_rts, 80u);
  EXPECT_GT(ap->packets_received(), 80u);
}

}  // namespace
}  // namespace wlansim
