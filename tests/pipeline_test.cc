// Results-pipeline tests: P-square accuracy against exact sample quantiles,
// ordered fan-out through the reorder buffer (out-of-order completion,
// double-set detection), MetricRecorder flush rules, sharded sweep CSV
// byte-identity, and streaming-mode determinism across worker counts.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/random.h"
#include "runner/campaign.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "stats/p2_quantile.h"
#include "tests/support/result_helpers.h"

namespace wlansim {
namespace {

// --- P-square quantile estimation ----------------------------------------------

TEST(P2QuantileTest, ExactForFiveOrFewerSamples) {
  P2Quantile p50(0.5);
  EXPECT_DOUBLE_EQ(p50.Value(), 0.0);
  for (double x : {3.0, 1.0, 2.0}) {
    p50.Add(x);
  }
  EXPECT_DOUBLE_EQ(p50.Value(), ExactQuantile({3.0, 1.0, 2.0}, 0.5));

  P2Quantile p95(0.95);
  const std::vector<double> five = {5.0, 1.0, 4.0, 2.0, 3.0};
  for (double x : five) {
    p95.Add(x);
  }
  EXPECT_DOUBLE_EQ(p95.Value(), ExactQuantile(five, 0.95));
}

TEST(P2QuantileTest, AccuracyWithinBoundsOnUniformStream) {
  Rng rng(1234);
  P2Quantile p50(0.5);
  P2Quantile p95(0.95);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.NextDouble();
    values.push_back(x);
    p50.Add(x);
    p95.Add(x);
  }
  // The sample spans ~[0, 1]; P-square on 2*10^4 i.i.d. uniforms lands well
  // within 1% of the range of the exact order statistic.
  EXPECT_NEAR(p50.Value(), ExactQuantile(values, 0.50), 0.01);
  EXPECT_NEAR(p95.Value(), ExactQuantile(values, 0.95), 0.01);
}

TEST(P2QuantileTest, AccuracyWithinBoundsOnSkewedStream) {
  Rng rng(77);
  P2Quantile p50(0.5);
  P2Quantile p95(0.95);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Exponential(2.0);  // heavy right tail
    values.push_back(x);
    p50.Add(x);
    p95.Add(x);
  }
  const double exact50 = ExactQuantile(values, 0.50);
  const double exact95 = ExactQuantile(values, 0.95);
  // Relative bounds for the skewed case: the tail marker moves through a
  // much wider range than the uniform test's.
  EXPECT_NEAR(p50.Value(), exact50, 0.03 * exact50);
  EXPECT_NEAR(p95.Value(), exact95, 0.03 * exact95);
}

TEST(P2QuantileTest, MonotoneMarkersSurviveConstantStream) {
  P2Quantile p50(0.5);
  for (int i = 0; i < 1000; ++i) {
    p50.Add(42.0);
  }
  EXPECT_DOUBLE_EQ(p50.Value(), 42.0);
}

// --- ResultPipeline ordering and double-set detection --------------------------

ReplicationRecord MakeRecord(uint64_t replication, double value) {
  ReplicationRecord record;
  record.replication = replication;
  record.metrics["x"] = value;
  return record;
}

class OrderSpy final : public ResultConsumer {
 public:
  void BeginCampaign(const CampaignManifest& manifest) override {
    begun_scenario = manifest.scenario;
  }
  void OnRecord(const ReplicationRecord& record) override {
    seen.push_back(record.replication);
  }
  void EndCampaign() override { ended = true; }

  std::string begun_scenario;
  std::vector<uint64_t> seen;
  bool ended = false;
};

CampaignManifest TestManifest(uint64_t replications) {
  CampaignManifest manifest;
  manifest.scenario = "probe";
  manifest.replications = replications;
  return manifest;
}

TEST(ResultPipelineTest, ReordersOutOfOrderCompletions) {
  ResultPipeline pipeline(TestManifest(5));
  OrderSpy spy;
  pipeline.AddConsumer(&spy);
  pipeline.Begin();
  EXPECT_EQ(spy.begun_scenario, "probe");
  for (uint64_t index : {3u, 1u, 0u, 4u, 2u}) {
    pipeline.Deliver(MakeRecord(index, 1.0));
  }
  pipeline.End();
  EXPECT_EQ(spy.seen, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(spy.ended);
  // {3, 1} waited for 0; with 0 delivered the buffer drains, then {4}
  // waits for 2: high-water mark is the 3 records present just after 0
  // arrives (and before the drain pops them).
  EXPECT_EQ(pipeline.max_reorder_depth(), 3u);
}

TEST(ResultPipelineTest, DoubleDeliveryThrows) {
  ResultPipeline pipeline(TestManifest(3));
  pipeline.Begin();
  pipeline.Deliver(MakeRecord(1, 1.0));
  // Both flavours: an index still buffered, and one already dispatched.
  EXPECT_THROW(pipeline.Deliver(MakeRecord(1, 2.0)), std::logic_error);
  pipeline.Deliver(MakeRecord(0, 1.0));
  EXPECT_THROW(pipeline.Deliver(MakeRecord(0, 2.0)), std::logic_error);
  EXPECT_THROW(pipeline.Deliver(MakeRecord(1, 2.0)), std::logic_error);
}

TEST(ResultPipelineTest, OutOfRangeIndexThrows) {
  ResultPipeline pipeline(TestManifest(2));
  pipeline.Begin();
  EXPECT_THROW(pipeline.Deliver(MakeRecord(2, 1.0)), std::out_of_range);
}

TEST(ResultPipelineTest, EndWithMissingReplicationsThrows) {
  ResultPipeline pipeline(TestManifest(2));
  pipeline.Begin();
  pipeline.Deliver(MakeRecord(1, 1.0));  // 0 never arrives
  EXPECT_THROW(pipeline.End(), std::logic_error);
}

// --- MetricRecorder flush rules ------------------------------------------------

TEST(MetricRecorderTest, FlushesCountersScalarsGaugesHistograms) {
  MetricRecorder recorder;
  recorder.AddCount("collisions");
  recorder.AddCount("collisions", 2.0);
  recorder.SetScalar("offered_mbps", 4.0);
  recorder.SetScalar("offered_mbps", 5.0);  // last set wins
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    recorder.AddSample("delay_ms", v);
  }
  recorder.DeclareHistogram("per_sta", 0.0, 1.0, 4);
  for (double v : {0.5, 1.5, 1.6, 2.5, 9.0}) {
    recorder.AddHistogramSample("per_sta", v);
  }

  ReplicationResult returned;
  returned.metrics["goodput"] = 7.0;
  const ReplicationRecord record = recorder.Finish(3, returned);

  EXPECT_EQ(record.replication, 3u);
  EXPECT_DOUBLE_EQ(record.metrics.at("collisions"), 3.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("offered_mbps"), 5.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("goodput"), 7.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_count"), 4.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_mean"), 2.5);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_min"), 1.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("delay_ms_max"), 4.0);
  EXPECT_DOUBLE_EQ(record.metrics.at("per_sta_min"), 0.5);
  EXPECT_DOUBLE_EQ(record.metrics.at("per_sta_max"), 9.0);
  EXPECT_GT(record.metrics.at("per_sta_p90"), record.metrics.at("per_sta_p10"));

  const DistributionSnapshot& dist = record.distributions.at("per_sta");
  EXPECT_EQ(dist.total, 5u);
  EXPECT_EQ(dist.overflow, 1u);  // the 9.0
  EXPECT_EQ(dist.bins, (std::vector<uint64_t>{1, 2, 1, 0}));
  EXPECT_DOUBLE_EQ(dist.mean, (0.5 + 1.5 + 1.6 + 2.5 + 9.0) / 5.0);
}

TEST(MetricRecorderTest, NameCollisionsThrow) {
  {
    MetricRecorder recorder;
    recorder.AddCount("goodput");
    ReplicationResult returned;
    returned.metrics["goodput"] = 1.0;  // collides with the counter
    EXPECT_THROW(recorder.Finish(0, returned), std::logic_error);
  }
  {
    MetricRecorder recorder;
    recorder.AddSample("x", 1.0);     // flushes x_mean
    recorder.SetScalar("x_mean", 2.0);  // collides with the gauge derivation
    EXPECT_THROW(recorder.Finish(0, {}), std::logic_error);
  }
}

TEST(MetricRecorderTest, HistogramMisuseThrows) {
  MetricRecorder recorder;
  EXPECT_THROW(recorder.AddHistogramSample("undeclared", 1.0), std::logic_error);
  recorder.DeclareHistogram("h", 0.0, 1.0, 4);
  EXPECT_THROW(recorder.DeclareHistogram("h", 0.0, 1.0, 4), std::logic_error);
  EXPECT_THROW(recorder.DeclareHistogram("bad", 0.0, 0.0, 4), std::logic_error);
  EXPECT_THROW(recorder.DeclareHistogram("bad", 0.0, 1.0, 0), std::logic_error);
}

// --- Campaign: exact vs stream mode -------------------------------------------

CampaignOptions ProbeCampaign(unsigned jobs, uint64_t reps) {
  CampaignOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = 99;
  options.replications = reps;
  options.jobs = jobs;
  return options;
}

TEST(StreamingGolden, StreamModeMatchesExactModeEverywhereButQuantiles) {
  const CampaignResult exact = RunCampaign(ProbeCampaign(1, 200));
  CampaignOptions options = ProbeCampaign(4, 200);
  options.stream = true;
  const CampaignResult streamed = RunCampaign(options);

  EXPECT_FALSE(exact.streamed);
  EXPECT_TRUE(streamed.streamed);
  EXPECT_EQ(streamed.replication_count, 200u);
  ASSERT_EQ(exact.aggregates.size(), streamed.aggregates.size());
  for (size_t i = 0; i < exact.aggregates.size(); ++i) {
    const MetricAggregate& e = exact.aggregates[i];
    const MetricAggregate& s = streamed.aggregates[i];
    EXPECT_EQ(e.metric, s.metric);
    EXPECT_EQ(e.count, s.count);
    // Welford summaries fold in the same (replication) order in both modes:
    // identical doubles, not merely close.
    EXPECT_DOUBLE_EQ(e.mean, s.mean);
    EXPECT_DOUBLE_EQ(e.stddev, s.stddev);
    EXPECT_DOUBLE_EQ(e.min, s.min);
    EXPECT_DOUBLE_EQ(e.max, s.max);
    // P-square estimates track the exact quantiles.
    EXPECT_NEAR(e.p50, s.p50, 0.05 * (e.max - e.min + 1e-12));
    EXPECT_NEAR(e.p95, s.p95, 0.05 * (e.max - e.min + 1e-12));
  }
}

TEST(StreamingGolden, StreamModeDeterministicAcrossJobs) {
  CampaignOptions serial = ProbeCampaign(1, 300);
  serial.stream = true;
  CampaignOptions parallel = ProbeCampaign(8, 300);
  parallel.stream = true;
  EXPECT_EQ(ResultSink::AggregatesToCsv(RunCampaign(serial).aggregates, true),
            ResultSink::AggregatesToCsv(RunCampaign(parallel).aggregates, true));
}

TEST(StreamingGolden, StreamingWriterRejectsDriftingMetricSet) {
  std::ostringstream out;
  StreamingCsvWriter writer(out);
  writer.OnRecord(MakeRecord(0, 1.0));
  ReplicationRecord drifted = MakeRecord(1, 1.0);
  drifted.metrics["extra"] = 2.0;
  EXPECT_THROW(writer.OnRecord(drifted), std::runtime_error);
}

TEST(StreamingGolden, StreamingWriterRejectsSecondCampaign) {
  // Reusing one writer across campaigns would append replication-0 rows
  // with no fresh header to the same stream — refuse, loudly.
  std::ostringstream out;
  StreamingCsvWriter writer(out);
  CampaignOptions options = ProbeCampaign(2, 4);
  options.consumers.push_back(&writer);
  RunCampaign(options);
  EXPECT_THROW(RunCampaign(options), std::logic_error);
}

// --- Sweep: exact-mode shard golden + stream mode ------------------------------

SweepOptions ProbeSweep(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.grid.AddAxis(ParseSweepAxis("n_metrics=1,2,3"));
  options.grid.AddAxis(ParseSweepAxis("samples=8,32"));
  options.base_seed = 5;
  options.replications = 6;
  options.jobs = jobs;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  return options;
}

TEST(StreamingGolden, ShardedSweepCsvMergesByteForByte) {
  const std::string full = SweepCsv(ProbeSweep(4, 0, 1));
  std::string merged;
  for (unsigned shard = 0; shard < 3; ++shard) {
    const std::string part = SweepCsv(ProbeSweep(4, shard, 3));
    merged += shard == 0 ? part : part.substr(part.find('\n') + 1);
  }
  EXPECT_EQ(full, merged);
}

TEST(SweepStream, DeterministicAcrossJobsAndLabeledApproximate) {
  SweepOptions serial = ProbeSweep(1, 0, 1);
  serial.stream = true;
  SweepOptions parallel = ProbeSweep(8, 0, 1);
  parallel.stream = true;
  const std::string csv_serial = SweepCsv(serial);
  const std::string csv_parallel = SweepCsv(parallel);
  EXPECT_EQ(csv_serial, csv_parallel);
  EXPECT_NE(csv_serial.find("p50_approx,p95_approx\n"), std::string::npos);

  // Same campaign in exact mode: identical everywhere except the quantile
  // columns' values and labels — count that the headers really diverge.
  const std::string csv_exact = SweepCsv(ProbeSweep(1, 0, 1));
  EXPECT_NE(csv_exact.find("p50,p95\n"), std::string::npos);
}

// --- Writer header stability ---------------------------------------------------

TEST(WriterHeaders, ApproxQuantileColumnsAreLabeled) {
  EXPECT_EQ(ResultSink::AggregatesToCsv({}, false),
            "metric,count,mean,stddev,ci95_half,min,max,p50,p95\n");
  EXPECT_EQ(ResultSink::AggregatesToCsv({}, true),
            "metric,count,mean,stddev,ci95_half,min,max,p50_approx,p95_approx\n");
  EXPECT_EQ(ResultSink::SweepLongCsvHeader({"a"}, true),
            "a,metric,count,mean,stddev,ci95_half,min,max,p50_approx,p95_approx\n");
  const std::string json = ResultSink::AggregatesToJson("s", 1, {MetricAggregate{}}, true);
  EXPECT_NE(json.find("\"p50_approx\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_approx\""), std::string::npos);
}

// --- dense_multi_bss per-station histogram through the recorder ----------------

TEST(DenseMultiBssHistogram, PerStationThroughputRecorded) {
  RecordCollector spy;
  CampaignOptions options;
  options.scenario = "dense_multi_bss";
  options.replications = 1;
  options.jobs = 1;
  options.params.Set("n_bss", "2");
  options.params.Set("stas_per_bss", "3");
  options.params.Set("sim_time_s", "0.3");
  options.params.Set("sta_hist", "true");
  options.consumers.push_back(&spy);
  const CampaignResult result = RunCampaign(options);

  bool saw_p50 = false;
  for (const MetricAggregate& a : result.aggregates) {
    if (a.metric == "per_sta_mbps_p50") {
      saw_p50 = true;
    }
  }
  EXPECT_TRUE(saw_p50);

  ASSERT_EQ(spy.records.size(), 1u);
  const DistributionSnapshot& dist = spy.records[0].distributions.at("per_sta_mbps");
  EXPECT_EQ(dist.total, 6u);  // 2 BSS x 3 stations
  EXPECT_GE(dist.min, 0.0);
  const auto& m = spy.records[0].metrics;
  EXPECT_LE(m.at("per_sta_mbps_p10"), m.at("per_sta_mbps_p90"));
  EXPECT_LE(m.at("per_sta_mbps_min"), m.at("per_sta_mbps_mean"));
}

TEST(DenseMultiBssHistogram, OffByDefaultKeepsColumnSetUnchanged) {
  CampaignOptions options;
  options.scenario = "dense_multi_bss";
  options.replications = 1;
  options.jobs = 1;
  options.params.Set("n_bss", "1");
  options.params.Set("stas_per_bss", "2");
  options.params.Set("sim_time_s", "0.3");
  const CampaignResult result = RunCampaign(options);
  for (const MetricAggregate& a : result.aggregates) {
    EXPECT_EQ(a.metric.find("per_sta_mbps"), std::string::npos) << a.metric;
  }
}

}  // namespace
}  // namespace wlansim
