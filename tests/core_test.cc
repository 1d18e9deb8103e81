// Core kernel tests: Time arithmetic, event queue ordering and cancellation,
// simulator semantics, deterministic RNG, packet buffer, MAC addresses.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "core/event_queue.h"
#include "core/flat_hash.h"
#include "core/mac_address.h"
#include "core/packet.h"
#include "core/random.h"
#include "core/simulator.h"
#include "core/time.h"
#include "core/units.h"

namespace wlansim {
namespace {

// --- Time ----------------------------------------------------------------------

TEST(Time, ConstructionAndAccessors) {
  EXPECT_EQ(Time::Micros(5).picos(), 5'000'000);
  EXPECT_EQ(Time::Millis(2).picos(), 2'000'000'000);
  EXPECT_EQ(Time::Seconds(1).picos(), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(Time::Micros(10).seconds(), 10e-6);
  EXPECT_DOUBLE_EQ(Time::Seconds(2.5).seconds(), 2.5);
}

TEST(Time, SubNanosecondResolution) {
  // 802.11b 11 Mb/s byte time is 8/11 us ≈ 727272.7 ps — representable to
  // within half a picosecond, far below any protocol timing constant.
  const Time byte_time = Time::Micros(8.0 / 11.0);
  EXPECT_NEAR(static_cast<double>(byte_time.picos()), 8e6 / 11.0, 0.5);
}

TEST(Time, Arithmetic) {
  const Time a = Time::Micros(10);
  const Time b = Time::Micros(4);
  EXPECT_EQ((a + b).micros(), 14.0);
  EXPECT_EQ((a - b).micros(), 6.0);
  EXPECT_EQ((a * 3).micros(), 30.0);
  EXPECT_EQ((a / 2).micros(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ((2.5 * b).micros(), 10.0);
}

TEST(Time, Comparisons) {
  EXPECT_LT(Time::Micros(1), Time::Micros(2));
  EXPECT_EQ(Time::Millis(1), Time::Micros(1000));
  EXPECT_TRUE(Time::Zero().IsZero());
  EXPECT_TRUE((Time::Zero() - Time::Micros(1)).IsNegative());
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(Time::Seconds(2).ToString(), "2s");
  EXPECT_EQ(Time::Micros(12.5).ToString(), "12.5us");
  EXPECT_EQ(Time::Nanos(3).ToString(), "3ns");
}

// --- EventQueue ------------------------------------------------------------------

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Time::Micros(30), [&] { order.push_back(3); });
  q.Schedule(Time::Micros(10), [&] { order.push_back(1); });
  q.Schedule(Time::Micros(20), [&] { order.push_back(2); });
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(Time::Micros(5), [&order, i] { order.push_back(i); });
  }
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Schedule(Time::Micros(1), [&] { ran = true; });
  EXPECT_TRUE(id.IsPending());
  id.Cancel();
  EXPECT_FALSE(id.IsPending());
  EXPECT_TRUE(q.IsEmpty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleEventKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(Time::Micros(1), [&] { order.push_back(1); });
  EventId mid = q.Schedule(Time::Micros(2), [&] { order.push_back(2); });
  q.Schedule(Time::Micros(3), [&] { order.push_back(3); });
  mid.Cancel();
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, DefaultEventIdIsInert) {
  EventId id;
  EXPECT_FALSE(id.IsPending());
  id.Cancel();  // no crash
}

TEST(EventQueue, CancelAfterExecutionIsInert) {
  EventQueue q;
  int runs = 0;
  EventId id = q.Schedule(Time::Micros(1), [&] { ++runs; });
  q.PopNext(nullptr)();
  EXPECT_FALSE(id.IsPending());
  // The executed event's slot is free for reuse; a stale Cancel must not
  // touch whatever event recycles it.
  EventId next = q.Schedule(Time::Micros(2), [&] { ++runs; });
  id.Cancel();
  EXPECT_TRUE(next.IsPending());
  q.PopNext(nullptr)();
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(q.IsEmpty());
}

TEST(EventQueue, GenerationGuardsRecycledSlots) {
  EventQueue q;
  bool first_ran = false;
  bool second_ran = false;
  EventId first = q.Schedule(Time::Micros(1), [&] { first_ran = true; });
  first.Cancel();
  EXPECT_TRUE(q.IsEmpty());
  // The cancelled slot is recycled; the stale handle (older generation)
  // must neither report pending nor cancel the new occupant.
  EventId second = q.Schedule(Time::Micros(1), [&] { second_ran = true; });
  first.Cancel();
  EXPECT_FALSE(first.IsPending());
  EXPECT_TRUE(second.IsPending());
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
  }
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

TEST(EventQueue, SelfCancelDuringExecutionIsInert) {
  EventQueue q;
  EventId id;
  int runs = 0;
  id = q.Schedule(Time::Micros(1), [&] {
    ++runs;
    id.Cancel();  // the event is already executing: must be a no-op
    EXPECT_FALSE(id.IsPending());
  });
  q.PopNext(nullptr)();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(q.IsEmpty());
}

TEST(EventQueue, TombstonesNeverExceedHalfTheHeap) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.Schedule(Time::Micros(i), [] {}));
  }
  // Mass-cancel the first 600: compaction must keep the invariant
  // tombstones <= heap/2 at every step, not just at the head.
  for (int i = 0; i < 600; ++i) {
    ids[static_cast<size_t>(i)].Cancel();
    EXPECT_LE(q.TombstoneCount() * 2, q.HeapSize());
  }
  EXPECT_LT(q.HeapSize(), 1000u);  // at least one bulk compaction ran
  int executed = 0;
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
    ++executed;
  }
  EXPECT_EQ(executed, 400);
}

TEST(EventQueue, CompactionPreservesFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  // All at the same timestamp, so only the seq tie-breaker orders them.
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.Schedule(Time::Micros(5), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 60; ++i) {  // > half: forces a bulk compaction
    ids[static_cast<size_t>(i)].Cancel();
  }
  while (!q.IsEmpty()) {
    q.PopNext(nullptr)();
  }
  ASSERT_EQ(order.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], 60 + i);
  }
}

TEST(EventQueue, OversizedClosureUsesHeapFallbackIntact) {
  EventQueue q;
  std::array<uint64_t, 32> big{};  // 256 B closure: above the inline buffer
  static_assert(sizeof(big) > EventFn::kInlineBytes);
  big[31] = 7;
  uint64_t seen = 0;
  q.Schedule(Time::Micros(1), [big, &seen] { seen = big[31]; });
  q.PopNext(nullptr)();
  EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, CountersTrackScheduledAndHeld) {
  EventQueue q;
  EXPECT_EQ(q.TotalScheduled(), 0u);
  q.Schedule(Time::Micros(1), [] {});
  q.Schedule(Time::Micros(2), [] {});
  EXPECT_EQ(q.TotalScheduled(), 2u);
  EXPECT_EQ(q.HeapSize(), 2u);
  q.PopNext(nullptr)();
  EXPECT_EQ(q.TotalScheduled(), 2u);  // lifetime counter, not a queue size
  EXPECT_EQ(q.HeapSize(), 1u);
}

// --- Simulator --------------------------------------------------------------------

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<double> at;
  sim.Schedule(Time::Micros(10), [&] { at.push_back(sim.Now().micros()); });
  sim.Schedule(Time::Micros(5), [&] { at.push_back(sim.Now().micros()); });
  sim.Run();
  EXPECT_EQ(at, (std::vector<double>{5.0, 10.0}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.Schedule(Time::Micros(1), recurse);
    }
  };
  sim.Schedule(Time::Micros(1), recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Time::Micros(5));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    sim.Schedule(Time::Millis(1), tick);
  };
  sim.Schedule(Time::Millis(1), tick);
  sim.RunUntil(Time::Millis(10));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.Now(), Time::Millis(10));
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(Time::Micros(i), [&] {
      if (++count == 3) {
        sim.Stop();
      }
    });
  }
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(Time::Micros(5), [&] {
    sim.Schedule(Time::Micros(-10), [&] {
      ran = true;
      EXPECT_EQ(sim.Now(), Time::Micros(5));
    });
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

// --- Rng --------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU64() == b.NextU64();
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng f1 = parent.Fork("alpha");
  Rng f2 = parent.Fork("alpha");
  Rng f3 = parent.Fork("beta");
  EXPECT_EQ(f1.NextU64(), f2.NextU64());
  EXPECT_NE(f1.NextU64(), f3.NextU64());
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 7);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Exponential(2.0);
  }
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0;
  double sq = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

// --- Packet -----------------------------------------------------------------------

TEST(Packet, HeaderPrependAndStrip) {
  Packet p(10);
  const std::vector<uint8_t> header = {1, 2, 3, 4};
  p.AddHeader(header);
  EXPECT_EQ(p.size(), 14u);
  EXPECT_EQ(p.bytes()[0], 1);
  p.RemoveHeader(4);
  EXPECT_EQ(p.size(), 10u);
}

TEST(Packet, HeadroomGrowsWhenExhausted) {
  Packet p(4, /*headroom=*/2);
  const std::vector<uint8_t> big(100, 0xAB);
  p.AddHeader(big);
  EXPECT_EQ(p.size(), 104u);
  EXPECT_EQ(p.bytes()[0], 0xAB);
}

TEST(Packet, TrailerOps) {
  Packet p(std::vector<uint8_t>{1, 2, 3});
  const std::vector<uint8_t> fcs = {9, 9};
  p.AddTrailer(fcs);
  EXPECT_EQ(p.size(), 5u);
  EXPECT_EQ(p.bytes()[4], 9);
  p.RemoveTrailer(2);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.bytes()[2], 3);
}

TEST(Packet, CopyPreservesMetaAndBytes) {
  Packet a(std::vector<uint8_t>{5, 6, 7});
  a.meta().flow_id = 42;
  Packet b = a;
  EXPECT_EQ(b.meta().flow_id, 42u);
  EXPECT_EQ(b.bytes()[1], 6);
}

TEST(Packet, EmptySpanConstructs) {
  // Regression: an empty span has a null data(), which must not be fed to
  // memcpy (UB even at length 0). The UBSan job watches this test.
  Packet p{std::span<const uint8_t>{}};
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.empty());
  const std::vector<uint8_t> header = {1, 2};
  p.AddHeader(header);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.bytes()[0], 1);
}

// --- Packet copy-on-write ---------------------------------------------------------

TEST(PacketCow, CopySharesBuffer) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4});
  Packet b = a;
  EXPECT_TRUE(a.SharesBufferWith(b));
  EXPECT_EQ(a.buffer_refcount(), 2u);
  EXPECT_EQ(b.bytes()[3], 4);
}

TEST(PacketCow, MutableBytesDetachesAndLeavesSiblingIntact) {
  Packet a(std::vector<uint8_t>{1, 2, 3});
  Packet b = a;
  b.mutable_bytes()[0] = 99;
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_EQ(a.buffer_refcount(), 1u);
  EXPECT_EQ(b.buffer_refcount(), 1u);
  EXPECT_EQ(a.bytes()[0], 1);  // sibling never sees the mutation
  EXPECT_EQ(b.bytes()[0], 99);
}

TEST(PacketCow, AddHeaderDetachesSharedBuffer) {
  Packet a(std::vector<uint8_t>{7, 8});
  Packet b = a;
  const std::vector<uint8_t> header = {1};
  b.AddHeader(header);
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.bytes()[0], 7);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.bytes()[0], 1);
}

TEST(PacketCow, AddTrailerAndSetBytesDetachShared) {
  Packet a(std::vector<uint8_t>{7, 8});
  Packet b = a;
  const std::vector<uint8_t> fcs = {9};
  b.AddTrailer(fcs);
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.bytes()[2], 9);

  Packet c = a;
  const std::vector<uint8_t> fresh = {4, 5, 6};
  c.SetBytes(fresh);
  EXPECT_FALSE(a.SharesBufferWith(c));
  EXPECT_EQ(a.bytes()[0], 7);
  EXPECT_EQ(c.bytes()[0], 4);
}

TEST(PacketCow, RemoveOpsAreOffsetOnlyAndStayShared) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4, 5});
  Packet b = a;
  b.RemoveHeader(1);
  b.RemoveTrailer(1);
  // The receive-side MPDU strip must not fault the shared fan-out buffer.
  EXPECT_TRUE(a.SharesBufferWith(b));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.bytes()[0], 2);
  EXPECT_EQ(a.size(), 5u);
}

TEST(PacketCow, MetaIsPerViewWithoutDetaching) {
  Packet a(std::vector<uint8_t>{1});
  a.meta().retries = 0;
  Packet b = a;
  b.meta().retries = 3;  // the MAC bumps retries on its own view
  EXPECT_TRUE(a.SharesBufferWith(b));
  EXPECT_EQ(a.meta().retries, 0u);
  EXPECT_EQ(b.meta().retries, 3u);
}

TEST(PacketCow, ClosureDestructionDropsRefcount) {
  Simulator sim;
  Packet a(std::vector<uint8_t>{1, 2, 3});
  sim.Schedule(Time::Micros(1), [p = a] { (void)p; });
  EXPECT_EQ(a.buffer_refcount(), 2u);
  sim.Run();  // the delivered closure (and its view) is destroyed after running
  EXPECT_EQ(a.buffer_refcount(), 1u);
}

TEST(PacketCow, CowCopiedBytesCountsOnlySharedDetaches) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4});
  const std::vector<uint8_t> big(300, 0xEE);
  const uint64_t before = Packet::CowCopiedBytes();
  a.AddHeader(big);  // exclusive growth: a copy, but not a CoW fault
  EXPECT_EQ(Packet::CowCopiedBytes(), before);
  Packet b = a;
  (void)b.mutable_bytes();  // shared detach: counted at the visible size
  EXPECT_EQ(Packet::CowCopiedBytes(), before + 304);
}

// --- Packet FCS memo --------------------------------------------------------------

TEST(PacketFcsMemo, FreshBufferHasNoMemo) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4});
  EXPECT_FALSE(a.FcsVerified());
  Packet empty;
  EXPECT_FALSE(empty.FcsVerified());
}

TEST(PacketFcsMemo, SiblingsOfTheSameWindowShareTheMemo) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4});
  Packet b = a;
  a.MarkFcsVerified();
  EXPECT_TRUE(b.FcsVerified());
  Packet moved = std::move(b);  // a move steals the buffer, memo included
  EXPECT_TRUE(moved.FcsVerified());
}

TEST(PacketFcsMemo, OtherWindowOfTheSameBufferIsNotVerified) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4, 5});
  a.MarkFcsVerified();
  Packet b = a;
  b.RemoveHeader(1);
  EXPECT_FALSE(b.FcsVerified());
  Packet c = a;
  c.RemoveTrailer(1);
  EXPECT_FALSE(c.FcsVerified());
  EXPECT_TRUE(a.FcsVerified());
}

TEST(PacketFcsMemo, EveryInPlaceWriteClearsTheMemo) {
  const std::vector<uint8_t> one = {9};
  Packet a(std::vector<uint8_t>{1, 2, 3, 4});
  a.MarkFcsVerified();
  (void)a.mutable_bytes();
  EXPECT_FALSE(a.FcsVerified());

  // AddHeader / AddTrailer into existing head/tailroom of an exclusive
  // buffer write in place; restoring the window must not revive the memo.
  a.MarkFcsVerified();
  a.AddHeader(one);
  a.RemoveHeader(1);
  EXPECT_FALSE(a.FcsVerified());

  a.MarkFcsVerified();
  a.RemoveTrailer(1);
  a.AddTrailer(one);
  EXPECT_FALSE(a.FcsVerified());

  a.MarkFcsVerified();
  a.SetBytes(std::vector<uint8_t>{1, 2, 3, 4});
  EXPECT_FALSE(a.FcsVerified());
}

TEST(PacketFcsMemo, DetachStartsEmptyAndLeavesTheSharedMemo) {
  Packet a(std::vector<uint8_t>{1, 2, 3, 4});
  a.MarkFcsVerified();
  Packet b = a;
  b.mutable_bytes()[0] = 99;
  EXPECT_FALSE(a.SharesBufferWith(b));
  EXPECT_FALSE(b.FcsVerified());
  EXPECT_TRUE(a.FcsVerified());  // the original bytes are untouched
}

TEST(EventQueue, HeapFallbacksCountsOnlyOversizedClosures) {
  EventQueue q;
  q.Schedule(Time::Micros(1), [] {});  // fits inline
  EXPECT_EQ(q.HeapFallbacks(), 0u);
  std::array<uint64_t, 32> big{};
  static_assert(sizeof(big) > EventFn::kInlineBytes);
  q.Schedule(Time::Micros(2), [big] { (void)big; });
  EXPECT_EQ(q.HeapFallbacks(), 1u);
}

// --- FlatHash64 -------------------------------------------------------------------

TEST(FlatHash64, InsertFindOverwriteAndGrowth) {
  FlatHash64<double> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);
  // Link-id shaped keys: (tx << 32) | rx, enough of them to force rehashes.
  auto key = [](uint64_t i) { return (i << 32) | (i + 1); };
  for (uint64_t i = 0; i < 1000; ++i) {
    map.InsertOrAssign(key(i), static_cast<double>(i));
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    const double* v = map.Find(key(i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(i));
  }
  EXPECT_EQ(map.Find(key(1000)), nullptr);
  map.InsertOrAssign(key(5), -1.0);
  EXPECT_EQ(map.size(), 1000u);  // overwrite, not a second insert
  EXPECT_DOUBLE_EQ(*map.Find(key(5)), -1.0);
}

// --- MacAddress -------------------------------------------------------------------

TEST(MacAddress, FromIdAndToString) {
  const MacAddress a = MacAddress::FromId(0x010203);
  EXPECT_EQ(a.ToString(), "02:00:00:01:02:03");
  EXPECT_FALSE(a.IsGroup());
}

TEST(MacAddress, BroadcastIsGroup) {
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_TRUE(MacAddress::Broadcast().IsGroup());
}

TEST(MacAddress, Ordering) {
  EXPECT_LT(MacAddress::FromId(1), MacAddress::FromId(2));
  EXPECT_EQ(MacAddress::FromId(7), MacAddress::FromId(7));
}

// --- Units ------------------------------------------------------------------------

TEST(Units, DbmRoundTrip) {
  EXPECT_NEAR(MwToDbm(DbmToMw(-65.0)), -65.0, 1e-9);
  EXPECT_NEAR(DbmToMw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(DbmToMw(10.0), 10.0, 1e-9);
}

TEST(Units, ThermalNoiseFloor) {
  // kTB for 20 MHz at NF 0 dB ≈ -101 dBm.
  const double n = ThermalNoiseW(20e6, 0.0);
  EXPECT_NEAR(WToDbm(n), -101.0, 0.3);
  // A 7 dB noise figure raises it by exactly 7 dB.
  EXPECT_NEAR(WToDbm(ThermalNoiseW(20e6, 7.0)) - WToDbm(n), 7.0, 1e-9);
}

}  // namespace
}  // namespace wlansim
