// Aggregation of per-replication metric columns into mean / stddev / 95 %
// confidence intervals and quantiles, plus the CSV and JSON formatters of
// those aggregates.

#ifndef WLANSIM_RUNNER_RESULT_SINK_H_
#define WLANSIM_RUNNER_RESULT_SINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats/summary.h"

namespace wlansim {

// Aggregate of one metric across replications.
struct MetricAggregate {
  std::string metric;
  uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;    // sample standard deviation
  double ci95_half = 0.0; // Student-t 95 % confidence half-width on the mean
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  // exact median over the stored replications
  double p95 = 0.0;  // exact 95th percentile over the stored replications
};

// The one exact aggregation of a metric column, shared by the campaign and
// sweep writers, `wlansim_results aggregate` and the query server so their
// bytes agree. `values` is the column in replication (row) order; callers
// move their buffer in. The Welford fields come from that order, then
// p50/p95 are found by selection, reordering `values` in place.
MetricAggregate ExactAggregate(const std::string& name, std::vector<double> values);

// The Welford fields of an aggregate (count, mean, stddev, Student-t CI95,
// min, max) from a summary of the metric's values; p50/p95 are left 0.
// The online aggregator fills them with its P-square estimates.
MetricAggregate SummaryAggregate(const std::string& name, const Summary& summary);

// Exact sample quantile with linear interpolation between order statistics
// (the R type-7 / NumPy default): for n values, rank h = (n-1)q, result is
// v[floor(h)] + (h - floor(h)) * (v[floor(h)+1] - v[floor(h)]) over the
// values in ascending order, NaNs last (NumPy's sort order), so a rank past
// the numbers reads NaN. Found by selection, as in ExactAggregate. Returns 0
// for an empty sample. Exposed for the quantile-math tests.
double ExactQuantile(std::vector<double> values, double q);

// Two-sided 95 % Student-t critical value for `df` degrees of freedom
// (asymptotically 1.960). Exposed for the aggregation test.
double StudentT95(uint64_t df);

// RFC 4180 field quoting: fields containing a comma, double quote, CR or LF
// are wrapped in double quotes with embedded quotes doubled; everything else
// passes through unchanged. Applied to every name/value the CSV writers
// emit, so a scenario, metric or parameter name can contain any character
// without corrupting rows.
std::string CsvField(const std::string& field);

// The fixed-width, locale-independent "%.9g" number format every CSV/JSON
// writer (and the sweep range expansion) uses. The bytes are printf's
// "%.9g" in the C locale; std::to_chars (general format, precision 9)
// produces them without calling printf. Every NaN prints as "nan",
// whatever its sign bit, so a column's bytes never depend on how the build
// produced the NaN.
std::string CsvNum(double v);

// The CSV and JSON formatters of aggregate results, shared by every writer
// (campaign aggregates, the streamed sweep CSV, the WLSR export path and the
// query server) so their bytes cannot drift. Per-replication rows are
// written by StreamingCsvWriter (result_consumer.h).
class ResultSink {
 public:
  // One CSV row per metric: metric,count,mean,stddev,ci95_half,min,max,p50,p95.
  // When `approx_quantiles` is set (online P-square aggregation), the
  // quantile columns are labeled p50_approx/p95_approx so downstream tooling
  // can never mistake an estimate for an exact sample quantile.
  static std::string AggregatesToCsv(const std::vector<MetricAggregate>& aggregates,
                                     bool approx_quantiles = false);

  // {"scenario": ..., "replications": N, "metrics": {name: {...}, ...}}
  // Approximate quantiles are keyed p50_approx/p95_approx, as in the CSV.
  static std::string AggregatesToJson(const std::string& scenario_name, uint64_t replications,
                                      const std::vector<MetricAggregate>& aggregates,
                                      bool approx_quantiles = false);

  // Long-format sweep CSV: header `<param_keys...>,metric,count,mean,stddev,
  // ci95_half,min,max,p50,p95`, then one grid point's block of per-metric
  // rows at a time. Rows from a shard slice concatenate under a single
  // header into exactly the unsharded output. `approx_quantiles` relabels
  // the quantile columns as above.
  static std::string SweepLongCsvHeader(const std::vector<std::string>& param_keys,
                                        bool approx_quantiles);
  static std::string SweepLongCsvRows(const std::vector<std::string>& param_values,
                                      const std::vector<MetricAggregate>& aggregates);
};

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_RESULT_SINK_H_
