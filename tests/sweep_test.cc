// Sweep engine tests: axis spec parsing (lists, ranges, malformed specs),
// cartesian grid expansion and ordering, shard partition properties, RFC 4180
// CSV escaping, and the end-to-end determinism guarantee — sweep results are
// byte-identical for any --jobs value and any --shard=i/n recombination.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/campaign.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "tests/support/result_helpers.h"

namespace wlansim {
namespace {

// --- ParseSweepAxis ------------------------------------------------------------

TEST(ParseSweepAxis, ValueList) {
  const SweepAxis axis = ParseSweepAxis("n_stas=1,5,10,20");
  EXPECT_EQ(axis.key, "n_stas");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "5", "10", "20"}));
}

TEST(ParseSweepAxis, SingleValue) {
  const SweepAxis axis = ParseSweepAxis("controller=arf");
  EXPECT_EQ(axis.key, "controller");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"arf"}));
}

TEST(ParseSweepAxis, IntegerRange) {
  const SweepAxis axis = ParseSweepAxis("distance=10:100:10");
  EXPECT_EQ(axis.key, "distance");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"10", "20", "30", "40", "50", "60", "70",
                                                   "80", "90", "100"}));
}

TEST(ParseSweepAxis, FractionalRangeIncludesUpperBound) {
  const SweepAxis axis = ParseSweepAxis("x=0.5:2:0.5");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"0.5", "1", "1.5", "2"}));
}

TEST(ParseSweepAxis, RangeUpperBoundNotOnLattice) {
  const SweepAxis axis = ParseSweepAxis("x=1:10:4");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"1", "5", "9"}));
}

TEST(ParseSweepAxis, MalformedSpecsRejected) {
  for (const char* spec : {
           "no_equals",        // no '='
           "=1,2",             // empty key
           "k=",               // empty value list
           "k=1,,2",           // empty element
           "k=1,2,",           // trailing comma
           "k=1:10",           // range needs three fields
           "k=1:10:2:3",       // too many fields
           "k=1:10:0",         // zero step
           "k=1:10:-2",        // negative step
           "k=10:1:2",         // hi < lo
           "k=a:10:2",         // non-numeric bound
           "k=1:10:x",         // non-numeric step
       }) {
    EXPECT_THROW(ParseSweepAxis(spec), std::invalid_argument) << spec;
  }
}

// --- SweepGrid -----------------------------------------------------------------

TEST(SweepGrid, CartesianExpansionRowMajor) {
  SweepGrid grid;
  grid.AddAxis(ParseSweepAxis("a=1,2"));
  grid.AddAxis(ParseSweepAxis("b=x,y,z"));
  ASSERT_EQ(grid.NumPoints(), 6u);
  EXPECT_EQ(grid.Keys(), (std::vector<std::string>{"a", "b"}));
  // First axis slowest, last axis fastest: nested-loop order.
  const std::vector<std::pair<std::string, std::string>> expected[] = {
      {{"a", "1"}, {"b", "x"}}, {{"a", "1"}, {"b", "y"}}, {{"a", "1"}, {"b", "z"}},
      {{"a", "2"}, {"b", "x"}}, {{"a", "2"}, {"b", "y"}}, {{"a", "2"}, {"b", "z"}},
  };
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(grid.Point(i), expected[i]) << i;
  }
}

TEST(SweepGrid, EmptyGridHasOnePoint) {
  SweepGrid grid;
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.NumPoints(), 1u);
  EXPECT_TRUE(grid.Point(0).empty());
}

TEST(SweepGrid, DuplicateKeyRejected) {
  SweepGrid grid;
  grid.AddAxis(ParseSweepAxis("a=1,2"));
  EXPECT_THROW(grid.AddAxis(ParseSweepAxis("a=3,4")), std::invalid_argument);
}

// --- ShardRange ----------------------------------------------------------------

TEST(ShardRange, DisjointExhaustiveStable) {
  for (size_t total : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (unsigned count : {1u, 2u, 3u, 7u, 16u}) {
      size_t expected_begin = 0;
      for (unsigned index = 0; index < count; ++index) {
        const auto [begin, end] = ShardRange(total, index, count);
        // Contiguous with the previous shard: together disjoint + exhaustive.
        EXPECT_EQ(begin, expected_begin) << total << " " << index << "/" << count;
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ShardRange, BalancedWithinOne) {
  const size_t total = 17;
  const unsigned count = 5;
  for (unsigned index = 0; index < count; ++index) {
    const auto [begin, end] = ShardRange(total, index, count);
    const size_t size = end - begin;
    EXPECT_GE(size, total / count);
    EXPECT_LE(size, total / count + 1);
  }
}

TEST(ShardRange, MoreShardsThanPointsLeavesSomeEmpty) {
  size_t covered = 0;
  for (unsigned index = 0; index < 8; ++index) {
    const auto [begin, end] = ShardRange(3, index, 8);
    covered += end - begin;
  }
  EXPECT_EQ(covered, 3u);
}

TEST(ShardRange, InvalidSpecRejected) {
  EXPECT_THROW(ShardRange(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(ShardRange(10, 2, 2), std::invalid_argument);
  EXPECT_THROW(ShardRange(10, 5, 3), std::invalid_argument);
}

// --- RFC 4180 CSV escaping -----------------------------------------------------

TEST(CsvEscaping, PlainFieldsPassThrough) {
  EXPECT_EQ(CsvField("goodput_mbps"), "goodput_mbps");
  EXPECT_EQ(CsvField(""), "");
  EXPECT_EQ(CsvField("1.5"), "1.5");
}

TEST(CsvEscaping, SpecialFieldsQuoted) {
  EXPECT_EQ(CsvField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvField("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvField("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvEscaping, MetricNamesEscapedInWriters) {
  ReplicationRecord record;
  record.metrics["throughput, up"] = 1.0;
  record.metrics["plain"] = 2.0;
  ExactAggregator aggregator;
  aggregator.OnRecord(record);
  const std::string agg_csv = ResultSink::AggregatesToCsv(aggregator.Aggregates());
  EXPECT_NE(agg_csv.find("\"throughput, up\",1,1"), std::string::npos) << agg_csv;
  std::ostringstream reps_csv;
  StreamingCsvWriter writer(reps_csv);
  writer.OnRecord(record);
  EXPECT_NE(reps_csv.str().find("\"throughput, up\""), std::string::npos) << reps_csv.str();
}

TEST(CsvEscaping, SweepLongCsvEscapesKeysAndValues) {
  MetricAggregate agg;
  agg.metric = "x,y";
  agg.count = 1;
  const std::string csv = ResultSink::SweepLongCsvHeader({"weird,key"}, false) +
                          ResultSink::SweepLongCsvRows({"va\"lue"}, {agg});
  EXPECT_NE(csv.find("\"weird,key\",metric,"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"va\"\"lue\",\"x,y\",1,"), std::string::npos) << csv;
}

// --- Sweep campaign determinism ------------------------------------------------

// Registered once into the global registry: reports its seed and parameters
// so any dependence on grid index, shard layout or worker count is visible.
void RegisterProbeScenario() {
  static bool registered = false;
  if (registered) {
    return;
  }
  registered = true;
  ScenarioRegistry::Global().Register(
      "sweep_probe_test", "sweep determinism probe",
      {{"a", "0", "axis a"}, {"b", "0", "axis b"}, {"base", "0", "base param"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        ReplicationResult r;
        r.metrics["seed_mod"] = static_cast<double>(ctx.seed % 1000003);
        r.metrics["a"] = params.GetDouble("a", 0);
        r.metrics["b"] = params.GetDouble("b", 0);
        r.metrics["base"] = params.GetDouble("base", 0);
        return r;
      });
}

SweepOptions ProbeOptions(unsigned jobs, unsigned shard_index, unsigned shard_count) {
  RegisterProbeScenario();
  SweepOptions options;
  options.scenario = "sweep_probe_test";
  options.base_params.Set("base", "7");
  options.grid.AddAxis(ParseSweepAxis("a=1:3:1"));
  options.grid.AddAxis(ParseSweepAxis("b=10,20"));
  options.base_seed = 99;
  options.replications = 4;
  options.jobs = jobs;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  return options;
}

TEST(SweepCampaign, RunsEveryPointWithMergedParams) {
  const SweepResult result = RunSweepCampaign(ProbeOptions(1, 0, 1));
  ASSERT_EQ(result.points.size(), 6u);
  EXPECT_EQ(result.param_keys, (std::vector<std::string>{"a", "b"}));
  // Row-major order, base param present everywhere.
  EXPECT_EQ(result.points[0].point,
            (std::vector<std::pair<std::string, std::string>>{{"a", "1"}, {"b", "10"}}));
  EXPECT_EQ(result.points[5].point,
            (std::vector<std::pair<std::string, std::string>>{{"a", "3"}, {"b", "20"}}));
  for (const SweepPointResult& point : result.points) {
    for (const MetricAggregate& a : point.aggregates) {
      if (a.metric == "base") {
        EXPECT_DOUBLE_EQ(a.mean, 7.0);
      }
    }
  }
}

TEST(SweepCampaign, CsvIdenticalAcrossJobs) {
  const std::string serial = SweepCsv(ProbeOptions(1, 0, 1));
  const std::string parallel = SweepCsv(ProbeOptions(8, 0, 1));
  EXPECT_EQ(serial, parallel);
}

TEST(SweepCampaign, CrossPointWorkQueueSaturatesAndStaysDeterministic) {
  // One replication per point used to clamp the pool to a single worker;
  // the global (point, rep) queue now spreads the 6 points across all 8
  // workers — and the CSV must not change, because seeds are keyed by the
  // parameter assignment, never by the executing worker.
  SweepOptions serial_options = ProbeOptions(1, 0, 1);
  serial_options.replications = 1;
  SweepOptions pooled_options = ProbeOptions(8, 0, 1);
  pooled_options.replications = 1;
  EXPECT_EQ(SweepCsv(serial_options), SweepCsv(pooled_options));
}

TEST(SweepCampaign, CsvIdenticalAcrossShardRecombination) {
  const std::string full = SweepCsv(ProbeOptions(2, 0, 1));
  for (unsigned count : {2u, 3u, 6u}) {
    std::string merged;
    for (unsigned index = 0; index < count; ++index) {
      const std::string shard = SweepCsv(ProbeOptions(2, index, count));
      const size_t header_end = shard.find('\n') + 1;
      merged += index == 0 ? shard : shard.substr(header_end);
    }
    EXPECT_EQ(full, merged) << count << " shards";
  }
}

TEST(SweepCampaign, PointSeedIndependentOfAxisOrderAndShard) {
  const uint64_t forward = SweepPointSeed(5, {{"a", "1"}, {"b", "2"}});
  const uint64_t reversed = SweepPointSeed(5, {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(forward, reversed);
  EXPECT_NE(forward, SweepPointSeed(5, {{"a", "1"}, {"b", "3"}}));
  EXPECT_NE(forward, SweepPointSeed(6, {{"a", "1"}, {"b", "2"}}));
}

TEST(SweepCampaign, PointSeedEncodingInjective) {
  // Values containing the encoding's separator characters must not make two
  // distinct assignments collide.
  EXPECT_NE(SweepPointSeed(5, {{"a", "1|b=2"}}),
            SweepPointSeed(5, {{"a", "1"}, {"b", "2"}}));
  EXPECT_NE(SweepPointSeed(5, {{"a", "1="}, {"b", ""}}),
            SweepPointSeed(5, {{"a", "1"}, {"=b", ""}}));
  EXPECT_NE(SweepPointSeed(5, {{"ab", "c"}}), SweepPointSeed(5, {{"a", "bc"}}));
}

TEST(SweepCampaign, ParamAndSweepKeyConflictRejected) {
  SweepOptions options = ProbeOptions(1, 0, 1);
  options.base_params.Set("a", "9");
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

TEST(SweepCampaign, UnknownSweepKeyRejected) {
  SweepOptions options = ProbeOptions(1, 0, 1);
  options.grid.AddAxis(ParseSweepAxis("not_a_param=1,2"));
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

TEST(SweepCampaign, UnknownScenarioErrorListsAvailable) {
  SweepOptions options = ProbeOptions(1, 0, 1);
  options.scenario = "no_such_scenario";
  try {
    RunSweepCampaign(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scenario 'no_such_scenario'; available:"), std::string::npos);
    EXPECT_NE(msg.find("saturation"), std::string::npos);
    EXPECT_NE(msg.find("sweep_probe_test"), std::string::npos);
    // One lookup serves both entry points: the campaign says the same.
    CampaignOptions campaign;
    campaign.scenario = options.scenario;
    try {
      RunCampaign(campaign);
      FAIL() << "expected std::invalid_argument from the campaign";
    } catch (const std::invalid_argument& c) {
      EXPECT_EQ(std::string(c.what()), msg);
    }
  }
}

TEST(SweepCampaign, UnknownKeyRejectedEvenOnEmptyShardSlice) {
  // 6 points over 8 shards: the last shard's slice is empty, but validation
  // still runs so a multi-host launch fails everywhere, not just on hosts
  // that happened to get work.
  SweepOptions options = ProbeOptions(1, 7, 8);
  options.grid.AddAxis(ParseSweepAxis("not_a_param=1,2"));
  EXPECT_THROW(RunSweepCampaign(options), std::invalid_argument);
}

// The acceptance-criteria case, on a real scenario: a rate_vs_distance
// distance sweep whose long-format CSV is byte-identical across jobs values
// and across a two-way shard recombination.
TEST(SweepCampaign, RateVsDistanceDeterministicAcrossJobsAndShards) {
  auto make_options = [](unsigned jobs, unsigned shard_index, unsigned shard_count) {
    SweepOptions options;
    options.scenario = "rate_vs_distance";
    options.base_params.Set("sim_time_s", "0.3");
    options.grid.AddAxis(ParseSweepAxis("distance=10:100:30"));
    options.base_seed = 42;
    options.replications = 3;
    options.jobs = jobs;
    options.shard_index = shard_index;
    options.shard_count = shard_count;
    return options;
  };

  const std::string serial = SweepCsv(make_options(1, 0, 1));
  const std::string parallel = SweepCsv(make_options(0, 0, 1));
  EXPECT_EQ(serial, parallel);

  const std::string half0 = SweepCsv(make_options(2, 0, 2));
  const std::string half1 = SweepCsv(make_options(2, 1, 2));
  EXPECT_EQ(serial, half0 + half1.substr(half1.find('\n') + 1));
}

}  // namespace
}  // namespace wlansim
