// Collects per-replication metric rows and aggregates them into
// mean / stddev / 95 % confidence intervals, with CSV and JSON writers.

#ifndef WLANSIM_RUNNER_RESULT_SINK_H_
#define WLANSIM_RUNNER_RESULT_SINK_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runner/scenario.h"
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
// writer uses — shared so the streaming row writer is byte-identical to the
// batch one.
std::string CsvNum(double v);

// One row of a long-format sweep CSV: the swept parameter values (parallel
// to the key list handed to SweepLongCsv) plus that point's aggregates.
struct SweepRow {
  std::vector<std::string> param_values;
  std::vector<MetricAggregate> aggregates;
};

// Batch (buffer-everything) replication collector. The campaign runner now
// streams results through ResultPipeline/ResultConsumer instead; ResultSink
// remains the exact-aggregation building block for bounded collections (the
// perf harness, tests) and the home of the shared CSV/JSON formatters.
class ResultSink {
 public:
  // Sized upfront so workers can store results by replication index; the
  // aggregate therefore never depends on completion order.
  explicit ResultSink(size_t replications);

  // Thread-safe; each index must be set exactly once. Throws
  // std::out_of_range for an index beyond the sized capacity and
  // std::logic_error when the index was already stored — a double-set
  // replication is a seeding/scheduling bug, not a row to overwrite.
  void Store(size_t replication, ReplicationResult result);

  const std::vector<ReplicationResult>& replications() const { return replications_; }

  // Per-metric aggregates over every stored replication, ordered by metric
  // name. Metrics absent from some replications aggregate over the
  // replications that do report them.
  std::vector<MetricAggregate> Aggregate() const;

  // The exact aggregation underlying Aggregate(), over any row vector: each
  // metric's values in replication order, folded by ExactAggregate. The
  // in-memory pipeline consumer shares it so batch and exact-streamed
  // aggregates are the same numbers, hence the same bytes.
  static std::vector<MetricAggregate> AggregateReplications(
      const std::vector<ReplicationResult>& replications);

  // One CSV row per replication: replication,<metric columns sorted by name>.
  static std::string ReplicationsToCsv(const std::vector<ReplicationResult>& replications);

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
  // ci95_half,min,max,p50,p95`, then one row per (grid point, metric). Rows from a
  // shard slice concatenate under a single header into exactly the unsharded
  // output. `approx_quantiles` relabels the quantile columns as above.
  static std::string SweepLongCsv(const std::vector<std::string>& param_keys,
                                  const std::vector<SweepRow>& rows,
                                  bool approx_quantiles = false);

  // The pieces SweepLongCsv is assembled from, shared with the streaming
  // sweep writer and the binary-export path so their bytes cannot drift:
  // the header line, and one grid point's block of per-metric rows.
  static std::string SweepLongCsvHeader(const std::vector<std::string>& param_keys,
                                        bool approx_quantiles);
  static std::string SweepLongCsvRows(const std::vector<std::string>& param_values,
                                      const std::vector<MetricAggregate>& aggregates);

 private:
  mutable std::mutex mu_;
  std::vector<ReplicationResult> replications_;
  std::vector<bool> stored_;
};

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_RESULT_SINK_H_
