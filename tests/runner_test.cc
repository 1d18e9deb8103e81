// Campaign engine tests: substream seeding, params parsing, registry lookup,
// CI aggregation math, and jobs-independence of campaign results.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "core/random.h"
#include "runner/campaign.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/scenario.h"
#include "runner/scenario_registry.h"
#include "stats/p2_quantile.h"
#include "stats/summary.h"
#include "tests/support/result_helpers.h"

namespace wlansim {
namespace {

// --- Substream seeding ---------------------------------------------------------

TEST(Substream, DeterministicAndOrderIndependent) {
  const uint64_t a = SubstreamSeed(42, "saturation", 3);
  const uint64_t b = SubstreamSeed(42, "saturation", 3);
  EXPECT_EQ(a, b);

  Rng r1 = Rng::Substream(42, "saturation", 3);
  Rng r2 = Rng::Substream(42, "saturation", 3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(r1.NextU64(), r2.NextU64());
  }
}

TEST(Substream, DistinctAcrossIndexStreamAndSeed) {
  std::set<uint64_t> seeds;
  for (uint64_t index = 0; index < 100; ++index) {
    seeds.insert(SubstreamSeed(1, "s", index));
  }
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_NE(SubstreamSeed(1, "alpha", 0), SubstreamSeed(1, "beta", 0));
  EXPECT_NE(SubstreamSeed(1, "s", 0), SubstreamSeed(2, "s", 0));
}

// --- ScenarioParams ------------------------------------------------------------

TEST(ScenarioParams, TypedGetters) {
  ScenarioParams p;
  p.Set("n", "12");
  p.Set("x", "2.5");
  p.Set("flag", "true");
  p.Set("name", "hello");
  EXPECT_EQ(p.GetInt("n", 0), 12);
  EXPECT_DOUBLE_EQ(p.GetDouble("x", 0), 2.5);
  EXPECT_TRUE(p.GetBool("flag", false));
  EXPECT_EQ(p.GetString("name", ""), "hello");
  // Defaults for absent keys.
  EXPECT_EQ(p.GetInt("absent", 7), 7);
  EXPECT_FALSE(p.GetBool("absent", false));
}

TEST(ScenarioParams, MalformedValuesThrow) {
  ScenarioParams p;
  p.Set("n", "12abc");
  p.Set("b", "maybe");
  p.Set("neg", "-3");
  EXPECT_THROW(p.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(p.GetBool("b", false), std::invalid_argument);
  // Counts reject negatives instead of wrapping to 2^64-3.
  EXPECT_EQ(p.GetInt("neg", 0), -3);
  EXPECT_THROW(p.GetUint("neg", 0), std::invalid_argument);
}

// --- Registry ------------------------------------------------------------------

TEST(Registry, BuiltinScenariosRegistered) {
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  for (const char* name : {"saturation", "hidden_terminal", "edca", "rate_vs_distance",
                           "ism_interference", "adhoc_vs_infra", "coexistence", "fragmentation",
                           "roaming", "sensor_coexistence", "lora_coexistence"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);
}

TEST(Registry, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  registry.Register("dup", "first", {},
                    [](const ScenarioParams&, const ReplicationContext&) {
                      return ReplicationResult{};
                    });
  EXPECT_THROW(registry.Register("dup", "second", {},
                                 [](const ScenarioParams&, const ReplicationContext&) {
                                   return ReplicationResult{};
                                 }),
               std::invalid_argument);
}

TEST(Registry, UnknownScenarioErrorListsAvailable) {
  CampaignOptions options;
  options.scenario = "no_such_scenario";
  try {
    RunCampaign(options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_scenario"), std::string::npos);
    EXPECT_NE(msg.find("saturation"), std::string::npos);
  }
}

TEST(Registry, UnknownParameterRejected) {
  CampaignOptions options;
  options.scenario = "saturation";
  options.params.Set("n_stas_typo", "4");
  EXPECT_THROW(RunCampaign(options), std::invalid_argument);
}

// --- CI aggregation math -------------------------------------------------------

// Feeds `rows` through an ExactAggregator as replications 0..n-1.
std::vector<MetricAggregate> AggregateRows(
    const std::vector<std::map<std::string, double>>& rows) {
  ExactAggregator aggregator;
  for (size_t i = 0; i < rows.size(); ++i) {
    ReplicationRecord record;
    record.replication = i;
    record.metrics = rows[i];
    aggregator.OnRecord(record);
  }
  return aggregator.Aggregates();
}

TEST(ResultSinkTest, StudentTCriticalValues) {
  EXPECT_TRUE(std::isinf(StudentT95(0)));
  EXPECT_NEAR(StudentT95(1), 12.706, 1e-9);
  EXPECT_NEAR(StudentT95(4), 2.776, 1e-9);
  EXPECT_NEAR(StudentT95(30), 2.042, 1e-9);
  EXPECT_NEAR(StudentT95(1000), 1.960, 1e-9);
}

TEST(ResultSinkTest, AggregateMeanStddevCi) {
  const auto aggregates = AggregateRows({{{"x", 1.0}}, {{"x", 2.0}}, {{"x", 3.0}},
                                         {{"x", 4.0}}, {{"x", 5.0}}});
  ASSERT_EQ(aggregates.size(), 1u);
  const MetricAggregate& a = aggregates[0];
  EXPECT_EQ(a.metric, "x");
  EXPECT_EQ(a.count, 5u);
  EXPECT_DOUBLE_EQ(a.mean, 3.0);
  EXPECT_NEAR(a.stddev, std::sqrt(2.5), 1e-12);
  // t(df=4, 97.5%) * s / sqrt(n)
  EXPECT_NEAR(a.ci95_half, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 5.0);
}

TEST(ResultSinkTest, ExactQuantileMath) {
  EXPECT_DOUBLE_EQ(ExactQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({7.0}, 1.0), 7.0);
  // Input need not be sorted.
  EXPECT_DOUBLE_EQ(ExactQuantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  // Linear interpolation between order statistics (type 7): even count.
  EXPECT_DOUBLE_EQ(ExactQuantile({4.0, 3.0, 2.0, 1.0}, 0.5), 2.5);
  // 1..5 at q=0.95: rank h = 3.8, so 4 + 0.8 * (5 - 4) = 4.8.
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.95), 4.8);
  // Out-of-range q clamps to the extremes.
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0}, 2.0), 2.0);
}

TEST(ResultSinkTest, NaNsRankAboveEveryNumber) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // 1..10 shuffled plus one NaN, which ranks last (rank 10). q = 0.5 reads
  // rank 5; q = 0.85 interpolates between 9 and 10; q = 0.95 between 10 and
  // the NaN.
  const std::vector<double> v = {7.0, nan, 3.0, 10.0, 1.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.5), 6.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(v, 0.85), 9.5);
  EXPECT_TRUE(std::isnan(ExactQuantile(v, 0.95)));
  EXPECT_TRUE(std::isnan(ExactQuantile(v, 1.0)));
  // Ranks 0 and 1 are numbers. The interpolation reads rank lo+1 even at
  // weight 0, so at h = 1 the NaN at rank 2 reads NaN.
  const std::vector<double> w = {nan, 4.0, nan, 2.0};
  EXPECT_DOUBLE_EQ(ExactQuantile(w, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(ExactQuantile(w, 0.25), 3.5);
  EXPECT_TRUE(std::isnan(ExactQuantile(w, 1.0 / 3.0)));
  EXPECT_TRUE(std::isnan(ExactQuantile({nan}, 0.5)));

  // p50 reads rank 2; p95 interpolates between 4 and the NaN.
  const MetricAggregate a = ExactAggregate("x", {2.0, nan, 1.0, 3.0, 4.0});
  EXPECT_EQ(a.count, 5u);
  EXPECT_DOUBLE_EQ(a.min, 1.0);
  EXPECT_DOUBLE_EQ(a.max, 4.0);
  EXPECT_DOUBLE_EQ(a.p50, 3.0);
  EXPECT_TRUE(std::isnan(a.p95));
  EXPECT_TRUE(std::isnan(a.mean));
}

TEST(ResultSinkTest, AggregateQuantiles) {
  // Delivered unsorted: 5..1.
  const auto aggregates = AggregateRows({{{"x", 5.0}}, {{"x", 4.0}}, {{"x", 3.0}},
                                         {{"x", 2.0}}, {{"x", 1.0}}});
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_DOUBLE_EQ(aggregates[0].p50, 3.0);
  EXPECT_DOUBLE_EQ(aggregates[0].p95, 4.8);
}

// --- Exact aggregation against the sort it replaced ---------------------------

// The sort-based quantile that selection replaced, kept as the reference:
// ascending order with NaNs last (a strict weak order, which operator< is
// not once a NaN is present), then type-7 interpolation.
double SortedQuantile(std::vector<double> values, double q) {
  const auto nans_last = [](double a, double b) { return std::isnan(b) ? !std::isnan(a) : a < b; };
  std::sort(values.begin(), values.end(), nans_last);
  if (values.empty()) {
    return 0.0;
  }
  const double h = static_cast<double>(values.size() - 1) * std::clamp(q, 0.0, 1.0);
  const size_t lo = static_cast<size_t>(h);
  if (lo + 1 >= values.size()) {
    return values.back();
  }
  const double frac = h - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

// The whole aggregate as it was computed before selection: Welford over
// row order, the Student-t CI, and sorted quantiles.
MetricAggregate SortedAggregate(const std::string& name, const std::vector<double>& values) {
  Summary summary;
  for (double v : values) {
    summary.Add(v);
  }
  MetricAggregate agg;
  agg.metric = name;
  agg.count = summary.count();
  agg.mean = summary.mean();
  agg.stddev = summary.stddev();
  agg.ci95_half = summary.count() > 1
                      ? StudentT95(summary.count() - 1) * summary.stddev() /
                            std::sqrt(static_cast<double>(summary.count()))
                      : 0.0;
  agg.min = summary.min();
  agg.max = summary.max();
  agg.p50 = SortedQuantile(values, 0.50);
  agg.p95 = SortedQuantile(values, 0.95);
  return agg;
}

// Bit-for-bit equality, except that any two NaNs match: IEEE 754 leaves
// the sign and payload of a NaN result unspecified, and when two NaN
// operands meet (a data NaN and inf - inf) the compiler's operand order
// picks which one survives.
bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameAggregate(const MetricAggregate& got, const MetricAggregate& want) {
  EXPECT_EQ(got.metric, want.metric);
  EXPECT_EQ(got.count, want.count);
  EXPECT_TRUE(SameBits(got.mean, want.mean)) << got.mean << " vs " << want.mean;
  EXPECT_TRUE(SameBits(got.stddev, want.stddev)) << got.stddev << " vs " << want.stddev;
  EXPECT_TRUE(SameBits(got.ci95_half, want.ci95_half));
  EXPECT_TRUE(SameBits(got.min, want.min));
  EXPECT_TRUE(SameBits(got.max, want.max));
  EXPECT_TRUE(SameBits(got.p50, want.p50)) << got.p50 << " vs " << want.p50;
  EXPECT_TRUE(SameBits(got.p95, want.p95)) << got.p95 << " vs " << want.p95;
}

void ExpectSameQuantiles(const std::vector<double>& column) {
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.95, 0.999}) {
    EXPECT_TRUE(SameBits(ExactQuantile(column, q), SortedQuantile(column, q))) << "q=" << q;
  }
  // q = 1 returns the largest value as stored, not through the
  // interpolation; when that is a zero, which zero is as unspecified as the
  // sort's order of equal values, so only the value must match.
  const double max = ExactQuantile(column, 1.0);
  const double want = SortedQuantile(column, 1.0);
  EXPECT_TRUE((std::isnan(max) && std::isnan(want)) || max == want) << max << " vs " << want;
}

// A seeded column built to trip up order statistics: about half its values
// come from a small pool (heavy duplicates, both zeros, both infinities,
// denormals), the rest are distinct normals. With `with_nan`, about one in
// twenty is a NaN.
std::vector<double> TrickyColumn(Rng& rng, size_t n, bool with_nan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const double pool[] = {0.0, -0.0, 0.0, -0.0, 1.0, -2.5, inf, -inf, denorm, -denorm, tiny};
  const int64_t pool_size = static_cast<int64_t>(std::size(pool));
  std::vector<double> column;
  column.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (with_nan && rng.Chance(0.05)) {
      column.push_back(std::numeric_limits<double>::quiet_NaN());
    } else if (rng.Chance(0.5)) {
      column.push_back(pool[rng.UniformInt(0, pool_size - 1)]);
    } else {
      column.push_back(rng.Normal(0.0, 10.0));
    }
  }
  return column;
}

TEST(ExactAggregateTest, SelectionMatchesTheSortBitwise) {
  Rng rng(2024);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 300; ++n) {
    sizes.push_back(n);
  }
  for (size_t n : {511, 512, 1000, 4097, 20000, 100000}) {
    sizes.push_back(n);
  }
  for (size_t n : sizes) {
    for (int kind = 0; kind < 3; ++kind) {
      // kind 0: distinct values; 1: tricky values; 2: tricky values and NaNs.
      std::vector<double> column;
      if (kind == 0) {
        for (size_t i = 0; i < n; ++i) {
          column.push_back(rng.Uniform(-1.0, 1.0));
        }
      } else {
        column = TrickyColumn(rng, n, kind == 2);
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " kind=" + std::to_string(kind));
      ExpectSameAggregate(ExactAggregate("m", column), SortedAggregate("m", column));
      ExpectSameQuantiles(column);
    }
  }
}

TEST(ExactAggregateTest, SelectionMatchesTheSortOnOrderedColumns) {
  // Large columns in orders that stress a selection: sorted either way,
  // periodic, organ-pipe, and columns of one or two distinct values.
  const size_t n = 20000;
  std::vector<std::vector<double>> columns(9, std::vector<double>(n));
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    columns[0][i] = x;
    columns[1][i] = -x;
    columns[2][i] = static_cast<double>(i % 16);
    columns[3][i] = i % 16 == 0 ? -x : x;
    columns[4][i] = static_cast<double>(i % 7);
    columns[5][i] = static_cast<double>(std::min(i, n - i));
    columns[6][i] = 3.0;
    columns[7][i] = i % 2 == 0 ? 0.0 : -0.0;
    columns[8][i] = i < n / 2 ? 1.0 : 2.0;
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    ExpectSameAggregate(ExactAggregate("m", columns[c]), SortedAggregate("m", columns[c]));
    ExpectSameQuantiles(columns[c]);
  }
}

TEST(ExactAggregateTest, RaggedReplicationsFoldPerColumn) {
  // Replications that each report only some metrics: ExactAggregator must
  // equal ExactAggregate over each metric's values in replication order,
  // skipping the replications that lack it.
  Rng rng(77);
  std::vector<std::map<std::string, double>> rows(257);
  std::map<std::string, std::vector<double>> columns;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const char* name : {"a", "b", "c"}) {
      if (rng.Chance(0.7)) {
        const double v = TrickyColumn(rng, 1, false).front();
        rows[i][name] = v;
        columns[name].push_back(v);
      }
    }
  }
  rows[5]["only_once"] = 42.0;
  columns["only_once"].push_back(42.0);

  const std::vector<MetricAggregate> aggregates = AggregateRows(rows);
  ASSERT_EQ(aggregates.size(), columns.size());
  size_t i = 0;
  for (const auto& [name, column] : columns) {
    SCOPED_TRACE(name);
    ExpectSameAggregate(aggregates[i], ExactAggregate(name, column));
    ExpectSameAggregate(aggregates[i], SortedAggregate(name, column));
    ++i;
  }
}

TEST(OnlineAggregatorTest, RaggedReplicationsFoldPerColumn) {
  // The online aggregator walks each record's metrics and its own columns
  // in step. Records that skip metrics, and metrics that first appear
  // mid-stream and sort before or between the known names, must still fold
  // each value into its own column: the same bits as a Summary and two
  // P2Quantiles fed that column directly, in replication order.
  Rng rng(78);
  struct Column {
    Summary summary;
    P2Quantile p50{0.50};
    P2Quantile p95{0.95};
  };
  std::map<std::string, Column> columns;
  OnlineAggregator aggregator;
  for (uint64_t i = 0; i < 301; ++i) {
    ReplicationRecord record;
    record.replication = i;
    for (const char* name : {"b", "d", "f"}) {
      if (rng.Chance(0.7)) {
        record.metrics[name] = rng.Normal(0.0, 10.0);
      }
    }
    if (i >= 120 && rng.Chance(0.6)) {
      record.metrics["c"] = rng.Uniform(-1.0, 1.0);  // between b and d
    }
    if (i >= 200) {
      record.metrics["a"] = rng.Exponential(2.0);  // before every name
    }
    if (i == 150) {
      record.metrics["e_once"] = 42.0;
    }
    for (const auto& [name, value] : record.metrics) {
      Column& column = columns[name];
      column.summary.Add(value);
      column.p50.Add(value);
      column.p95.Add(value);
    }
    aggregator.OnRecord(record);
  }

  const std::vector<MetricAggregate> aggregates = aggregator.Aggregates();
  ASSERT_EQ(aggregates.size(), columns.size());
  size_t i = 0;
  for (const auto& [name, column] : columns) {
    SCOPED_TRACE(name);
    MetricAggregate want = SummaryAggregate(name, column.summary);
    want.p50 = column.p50.Value();
    want.p95 = column.p95.Value();
    ExpectSameAggregate(aggregates[i], want);
    ++i;
  }
}

TEST(ResultSinkTest, CsvHeadersAreStable) {
  // Downstream tooling keys on these exact headers; change them only
  // together with every CSV consumer (CI artifacts, figure scripts).
  EXPECT_EQ(ResultSink::AggregatesToCsv({}),
            "metric,count,mean,stddev,ci95_half,min,max,p50,p95\n");
  EXPECT_EQ(ResultSink::SweepLongCsvHeader({"a", "b"}, false),
            "a,b,metric,count,mean,stddev,ci95_half,min,max,p50,p95\n");
}

TEST(ResultSinkTest, EveryNaNFormatsAlike) {
  // printf writes "-nan" for a NaN with its sign bit set; the CSV writers
  // must not let that bit reach the bytes.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(CsvNum(nan), "nan");
  EXPECT_EQ(CsvNum(-nan), "nan");
  EXPECT_EQ(CsvNum(std::copysign(nan, -1.0)), "nan");
  EXPECT_EQ(CsvNum(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(CsvNum(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(CsvNum(1.0 / 3.0), "0.333333333");
}

// printf's "%.9g" in the C locale: the format CsvNum's bytes are defined by.
std::string PrintfG9(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

TEST(ResultSinkTest, CsvNumMatchesPrintfG9) {
  // Edge cases: both zeros, subnormals, the extremes, the infinities, the
  // switch between fixed and exponential notation, and values whose ninth
  // significant digit rounds (up into a new decade, or to even on a tie).
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::nextafter(std::numeric_limits<double>::min(), 0.0),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                std::numeric_limits<double>::epsilon(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                1.0,
                                -1.0,
                                0.5,
                                1.0 / 3.0,
                                2.0 / 3.0,
                                1e-4,
                                9.9999999949e-5,
                                9.99999999951e-5,
                                1e-5,
                                0.0001234567895,
                                123456789.0,
                                999999999.0,
                                999999999.4,
                                999999999.5,
                                1e9,
                                1234567890.0,
                                9.999999995,
                                9.9999999949999,
                                0.1,
                                0.125,
                                1.0000000005,
                                1.0000000015,
                                2.5e-308,
                                1e308,
                                4503599627370496.5,
                                9007199254740993.0};
  // Fixed-seed random bit patterns cover every exponent; values in the
  // ranges real metrics take (fractions, rates, counters near 1e7 with a
  // small jitter) cover the notation switch densely.
  Rng rng(916);
  for (int i = 0; i < 200000; ++i) {
    values.push_back(std::bit_cast<double>(rng.NextU64()));
  }
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-12, 12)));
    values.push_back(1e7 + static_cast<double>(rng.UniformInt(-5000, 5000)));
  }
  size_t compared = 0;
  for (double v : values) {
    if (std::isnan(v)) {
      continue;  // NaN prints "nan" whatever its sign (EveryNaNFormatsAlike)
    }
    ASSERT_EQ(CsvNum(v), PrintfG9(v)) << "bits " << std::bit_cast<uint64_t>(v);
    ++compared;
  }
  EXPECT_GT(compared, 399000u);
}

TEST(ResultSinkTest, SingleReplicationHasZeroCi) {
  const auto aggregates = AggregateRows({{{"x", 4.0}}});
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_DOUBLE_EQ(aggregates[0].stddev, 0.0);
  EXPECT_DOUBLE_EQ(aggregates[0].ci95_half, 0.0);
}

TEST(ResultSinkTest, CsvAndJsonShape) {
  const auto aggregates = AggregateRows({{{"goodput", 1.0}}, {{"goodput", 2.0}}});
  const std::string csv = ResultSink::AggregatesToCsv(aggregates);
  EXPECT_NE(csv.find("metric,count,mean,stddev,ci95_half,min,max"), std::string::npos);
  EXPECT_NE(csv.find("goodput,2,1.5"), std::string::npos);
  const std::string json = ResultSink::AggregatesToJson("sat", 2, aggregates);
  EXPECT_NE(json.find("\"scenario\": \"sat\""), std::string::npos);
  EXPECT_NE(json.find("\"replications\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"goodput\""), std::string::npos);
}

// --- Campaign ------------------------------------------------------------------

// A synthetic scenario that reports a function of its substream seed: cheap,
// and any scheduling-order dependence would show up immediately.
class SeedEchoScenario final : public Scenario {
 public:
  std::string_view name() const override { return "seed_echo"; }
  std::string_view description() const override { return "test scenario"; }
  ReplicationResult Run(const ScenarioParams&, const ReplicationContext& ctx) const override {
    ReplicationResult r;
    r.metrics["seed_mod"] = static_cast<double>(ctx.seed % 1000003);
    r.metrics["replication"] = static_cast<double>(ctx.replication);
    return r;
  }
};

TEST(Campaign, ResultsIndependentOfJobs) {
  SeedEchoScenario scenario;
  CampaignOptions options;
  options.scenario = "seed_echo";
  options.base_seed = 99;
  options.replications = 64;

  RecordCollector serial_records;
  options.jobs = 1;
  options.consumers = {&serial_records};
  const CampaignResult serial = Campaign(scenario).Run(options);
  RecordCollector parallel_records;
  options.jobs = 8;
  options.consumers = {&parallel_records};
  const CampaignResult parallel = Campaign(scenario).Run(options);

  ASSERT_EQ(serial_records.records.size(), 64u);
  ASSERT_EQ(parallel_records.records.size(), 64u);
  for (size_t i = 0; i < serial_records.records.size(); ++i) {
    EXPECT_EQ(serial_records.records[i].metrics, parallel_records.records[i].metrics) << i;
    // Replication i really ran as replication i, on any thread.
    EXPECT_DOUBLE_EQ(serial_records.records[i].metrics.at("replication"),
                     static_cast<double>(i));
  }
  ASSERT_EQ(serial.aggregates.size(), parallel.aggregates.size());
  for (size_t i = 0; i < serial.aggregates.size(); ++i) {
    EXPECT_EQ(serial.aggregates[i].metric, parallel.aggregates[i].metric);
    EXPECT_DOUBLE_EQ(serial.aggregates[i].mean, parallel.aggregates[i].mean);
    EXPECT_DOUBLE_EQ(serial.aggregates[i].stddev, parallel.aggregates[i].stddev);
  }
}

TEST(Campaign, RealScenarioDeterministicAcrossJobs) {
  CampaignOptions options;
  options.scenario = "saturation";
  options.base_seed = 7;
  options.replications = 4;
  options.params.Set("sim_time_s", "0.5");

  RecordCollector serial_records;
  options.jobs = 1;
  options.consumers = {&serial_records};
  const CampaignResult serial = RunCampaign(options);
  RecordCollector parallel_records;
  options.jobs = 4;
  options.consumers = {&parallel_records};
  const CampaignResult parallel = RunCampaign(options);

  ASSERT_EQ(serial_records.records.size(), 4u);
  ASSERT_EQ(parallel_records.records.size(), 4u);
  for (size_t i = 0; i < serial_records.records.size(); ++i) {
    EXPECT_EQ(serial_records.records[i].metrics, parallel_records.records[i].metrics) << i;
  }
  // Byte-identical serialized aggregates, the CLI-level guarantee.
  EXPECT_EQ(ResultSink::AggregatesToCsv(serial.aggregates),
            ResultSink::AggregatesToCsv(parallel.aggregates));
}

TEST(Campaign, DifferentSeedsAcrossReplications) {
  SeedEchoScenario scenario;
  CampaignOptions options;
  options.scenario = "seed_echo";
  options.base_seed = 5;
  options.replications = 32;
  options.jobs = 4;
  RecordCollector collector;
  options.consumers = {&collector};
  Campaign(scenario).Run(options);
  std::set<double> seen;
  for (const ReplicationRecord& r : collector.records) {
    seen.insert(r.metrics.at("seed_mod"));
  }
  EXPECT_EQ(collector.records.size(), 32u);
  EXPECT_EQ(seen.size(), collector.records.size());
}

// Counts every lifecycle call the pipeline makes on it.
class LifecycleSpy final : public ResultConsumer {
 public:
  void BeginCampaign(const CampaignManifest&) override { ++begins; }
  void OnRecord(const ReplicationRecord&) override { ++records; }
  void EndCampaign() override { ++ends; }

  int begins = 0;
  int records = 0;
  int ends = 0;
};

TEST(Campaign, ZeroReplicationsBeginAndEndEveryConsumerOnce) {
  // No replication ever completes, so nothing "last" can end the campaign:
  // it must still open and close every consumer exactly once.
  SeedEchoScenario scenario;
  for (bool stream : {false, true}) {
    CampaignOptions options;
    options.replications = 0;
    options.jobs = 4;
    options.stream = stream;
    LifecycleSpy first;
    LifecycleSpy second;
    options.consumers = {&first, &second};
    const CampaignResult result = Campaign(scenario).Run(options);
    EXPECT_TRUE(result.aggregates.empty());
    EXPECT_EQ(result.replication_count, 0u);
    for (const LifecycleSpy* spy : {&first, &second}) {
      EXPECT_EQ(spy->begins, 1) << stream;
      EXPECT_EQ(spy->records, 0) << stream;
      EXPECT_EQ(spy->ends, 1) << stream;
    }
  }
}

class ThrowingScenario final : public Scenario {
 public:
  std::string_view name() const override { return "throwing"; }
  std::string_view description() const override { return "always throws"; }
  ReplicationResult Run(const ScenarioParams&, const ReplicationContext&) const override {
    throw std::runtime_error("scenario blew up");
  }
};

TEST(Campaign, ScenarioExceptionsPropagate) {
  ThrowingScenario scenario;
  CampaignOptions options;
  options.replications = 8;
  options.jobs = 4;
  EXPECT_THROW(Campaign(scenario).Run(options), std::runtime_error);
}

}  // namespace
}  // namespace wlansim
