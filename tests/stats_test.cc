// Statistics pipeline tests: streaming summary, histogram quantiles, flow
// accounting, time series, and the table writer.

#include <gtest/gtest.h>

#include <cmath>

#include "core/packet.h"
#include "stats/flow_stats.h"
#include "stats/histogram.h"
#include "stats/latency_recorder.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "stats/time_series.h"

namespace wlansim {
namespace {

TEST(Summary, MomentsMatchClosedForm) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Sample variance of 1..100 = 101*100/12 / ... = 841.666...
  EXPECT_NEAR(s.variance(), 841.6667, 0.001);
  EXPECT_DOUBLE_EQ(s.sum(), 5050.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.Add(42.0);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(0.0, 10.0, 10);  // [0, 100) in bins of 10
  h.Add(-5);
  h.Add(5);
  h.Add(15);
  h.Add(15);
  h.Add(95);
  h.Add(150);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(1), 2u);
  EXPECT_EQ(h.bin(9), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(Histogram, MedianOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.Add(i + 0.5);
  }
  EXPECT_NEAR(h.Quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.Quantile(0.1), 10.0, 1.5);
}

TEST(Histogram, EmptyQuantileIsLowerBound) {
  Histogram h(5.0, 1.0, 10);
  EXPECT_EQ(h.Quantile(0.5), 5.0);
}

TEST(LatencyRecorder, QuantilesStayWithinTheSamples) {
  // The query server's geometry: 2000 bins of 50 us, so [0, 100 ms).
  LatencyRecorder recorder(0.0, 50.0, 2000);
  // Every AGGREGATE sample is past the bins: the overflow bucket alone
  // would report the 100 ms range edge, below the fastest sample.
  for (double us : {468442.5, 500000.0, 600000.0}) {
    recorder.Record("AGGREGATE", us);
  }
  // One in-range sample: interpolating inside its bin would overshoot it.
  recorder.Record("SELECT", 10.0);
  EXPECT_EQ(recorder.Report(),
            "latency AGGREGATE: count=3 mean=522814.2 min=468442.5 max=600000.0 "
            "p50=468442.5 p90=468442.5 p99=468442.5\n"
            "latency SELECT: count=1 mean=10.0 min=10.0 max=10.0 p50=10.0 p90=10.0 p99=10.0\n");
}

TEST(FlowStats, GoodputAndLoss) {
  FlowStats stats;
  // 10 packets of 1000 B sent over 1 s; 8 received.
  for (int i = 0; i < 10; ++i) {
    stats.RecordSent(1, 1000, Time::Millis(i * 100));
  }
  for (int i = 0; i < 8; ++i) {
    Packet p(1000);
    p.meta().flow_id = 1;
    p.meta().created = Time::Millis(i * 100);
    stats.RecordReceived(p, Time::Millis(i * 100 + 5));
  }
  const auto* flow = stats.Find(1);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->tx_packets, 10u);
  EXPECT_EQ(flow->rx_packets, 8u);
  EXPECT_NEAR(stats.LossRate(1), 0.2, 1e-9);
  // 8000 B over [0, 705 ms] ≈ 90.8 kb/s.
  EXPECT_NEAR(stats.GoodputMbps(1), 8000.0 * 8 / 0.705 / 1e6, 0.001);
  EXPECT_NEAR(flow->delay_us.mean(), 5000.0, 1e-6);
}

TEST(FlowStats, JitterSmoothsTowardInterarrivalVariation) {
  FlowStats stats;
  stats.RecordSent(2, 100, Time::Zero());
  // Alternating 1 ms / 3 ms delays → |D| = 2 ms each step.
  for (int i = 0; i < 50; ++i) {
    Packet p(100);
    p.meta().flow_id = 2;
    p.meta().created = Time::Millis(i * 10);
    const Time delay = (i % 2 == 0) ? Time::Millis(1) : Time::Millis(3);
    stats.RecordReceived(p, Time::Millis(i * 10) + delay);
  }
  const auto* flow = stats.Find(2);
  ASSERT_NE(flow, nullptr);
  EXPECT_NEAR(flow->jitter_us, 2000.0, 100.0);
}

TEST(FlowStats, AggregateAcrossFlows) {
  FlowStats stats;
  for (uint32_t f = 1; f <= 3; ++f) {
    stats.RecordSent(f, 500, Time::Zero());
    Packet p(500);
    p.meta().flow_id = f;
    stats.RecordReceived(p, Time::Millis(100));
  }
  EXPECT_EQ(stats.TotalRxPackets(), 3u);
  EXPECT_EQ(stats.TotalRxBytes(), 1500u);
  EXPECT_EQ(stats.LossRate(), 0.0);
}

TEST(TimeSeries, BucketsAndRates) {
  TimeSeries ts(Time::Millis(100));
  ts.Add(Time::Millis(50), 1000);   // bucket 0
  ts.Add(Time::Millis(150), 2000);  // bucket 1
  ts.Add(Time::Millis(199), 500);   // bucket 1
  ASSERT_EQ(ts.buckets().size(), 2u);
  EXPECT_EQ(ts.buckets()[0].sum, 1000);
  EXPECT_EQ(ts.buckets()[1].sum, 2500);
  EXPECT_EQ(ts.buckets()[1].count, 2u);
  const auto rates = ts.RatePerSecond();
  EXPECT_NEAR(rates[1], 25000.0, 1e-9);
}

TEST(TimeSeries, FillsEmptyBuckets) {
  TimeSeries ts(Time::Millis(10));
  ts.Add(Time::Millis(45), 1);
  ASSERT_EQ(ts.buckets().size(), 5u);
  EXPECT_EQ(ts.buckets()[2].count, 0u);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22.5"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.AddRow({"x,y", "say \"hi\""});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(10.0, 0), "10");
}

}  // namespace
}  // namespace wlansim
