#include "runner/result_sink.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>

namespace wlansim {
namespace {

// The quantile column names under exact (type-7 by selection) and approximate
// (P-square) aggregation. Streamed campaigns must never present an estimate
// as an exact percentile, so the approximate path renames the columns.
const char* P50Label(bool approx) { return approx ? "p50_approx" : "p50"; }
const char* P95Label(bool approx) { return approx ? "p95_approx" : "p95"; }

}  // namespace

// Fixed-width, locale-independent number formatting so identical campaigns
// produce byte-identical files. The standard defines to_chars' general
// format with a precision as printf's in the C locale; it skips printf's
// format parsing and locale lookups.
std::string CsvNum(double v) {
  // printf spells a NaN with its sign bit set "-nan" on glibc, and which
  // sign an operation's NaN carries is up to the compiler and the CPU.
  if (std::isnan(v)) {
    return "nan";
  }
  char buf[32];  // "%.9g" needs at most 16: "-1.23456789e+308"
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 9);
  return std::string(buf, r.ptr);
}

std::string CsvField(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) {
    return field;
  }
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

double StudentT95(uint64_t df) {
  // Two-sided 95 % critical values; exact to three decimals for df <= 30,
  // then the standard interpolation anchors. Campaigns with one replication
  // have no variance estimate: return infinity so the CI is honest.
  static const double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) {
    return std::numeric_limits<double>::infinity();
  }
  if (df <= 30) {
    return kTable[df - 1];
  }
  if (df <= 40) {
    return 2.021;
  }
  if (df <= 60) {
    return 2.000;
  }
  if (df <= 120) {
    return 1.980;
  }
  return 1.960;
}

namespace {

// Type-7 quantiles of `v` at ascending `qs`, found by selection in place: no
// copy, no sort. operator< is no strict weak order once a NaN is present,
// so the NaNs first move behind the numbers, in O(n), and rank after them
// as in NumPy's sort order: a rank past the numbers reads NaN. Each
// selection partitions only the part above the previous quantile's rank.
template <size_t N>
std::array<double, N> SelectQuantiles(std::vector<double>& v, const double (&qs)[N]) {
  std::array<double, N> out{};
  if (v.empty()) {
    return out;
  }
  const auto at = [&v](size_t i) { return v.begin() + static_cast<ptrdiff_t>(i); };
  const size_t n = v.size();
  const size_t numbers = static_cast<size_t>(
      std::partition(v.begin(), v.end(), [](double x) { return !std::isnan(x); }) - v.begin());
  size_t placed = 0;  // ranks below this are in their final place
  for (size_t i = 0; i < N; ++i) {
    const double h = static_cast<double>(n - 1) * std::clamp(qs[i], 0.0, 1.0);
    const size_t lo = static_cast<size_t>(h);
    if (lo < numbers && lo >= placed) {
      std::nth_element(at(placed), at(lo), at(numbers));
      placed = lo + 1;
    }
    if (lo + 1 == n) {
      out[i] = v[lo];
      continue;
    }
    // Rank lo+1 is the smallest value above rank lo.
    const double next = lo + 1 < numbers ? *std::min_element(at(lo + 1), at(numbers)) : v[lo + 1];
    out[i] = v[lo] + (h - static_cast<double>(lo)) * (next - v[lo]);
  }
  return out;
}

}  // namespace

double ExactQuantile(std::vector<double> values, double q) {
  return SelectQuantiles(values, {q})[0];
}

MetricAggregate SummaryAggregate(const std::string& name, const Summary& summary) {
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
  return agg;
}

MetricAggregate ExactAggregate(const std::string& name, std::vector<double> values) {
  // Welford first: the mean and stddev bytes depend on the row order, which
  // the selection destroys.
  Summary summary;
  for (double v : values) {
    summary.Add(v);
  }
  MetricAggregate agg = SummaryAggregate(name, summary);
  const std::array<double, 2> quantiles = SelectQuantiles(values, {0.50, 0.95});
  agg.p50 = quantiles[0];
  agg.p95 = quantiles[1];
  return agg;
}

std::string ResultSink::AggregatesToCsv(const std::vector<MetricAggregate>& aggregates,
                                        bool approx_quantiles) {
  // The sweep layout without parameter columns.
  return SweepLongCsvHeader({}, approx_quantiles) + SweepLongCsvRows({}, aggregates);
}

std::string ResultSink::SweepLongCsvHeader(const std::vector<std::string>& param_keys,
                                           bool approx_quantiles) {
  std::string csv;
  for (const std::string& key : param_keys) {
    csv += CsvField(key) + ",";
  }
  csv += "metric,count,mean,stddev,ci95_half,min,max," +
         std::string(P50Label(approx_quantiles)) + "," + P95Label(approx_quantiles) + "\n";
  return csv;
}

std::string ResultSink::SweepLongCsvRows(const std::vector<std::string>& param_values,
                                         const std::vector<MetricAggregate>& aggregates) {
  std::string prefix;
  for (const std::string& value : param_values) {
    prefix += CsvField(value) + ",";
  }
  std::string csv;
  for (const MetricAggregate& a : aggregates) {
    csv += prefix + CsvField(a.metric) + "," + std::to_string(a.count) + "," + CsvNum(a.mean) +
           "," + CsvNum(a.stddev) + "," + CsvNum(a.ci95_half) + "," + CsvNum(a.min) + "," +
           CsvNum(a.max) + "," + CsvNum(a.p50) + "," + CsvNum(a.p95) + "\n";
  }
  return csv;
}

std::string ResultSink::AggregatesToJson(const std::string& scenario_name,
                                         uint64_t replications,
                                         const std::vector<MetricAggregate>& aggregates,
                                         bool approx_quantiles) {
  std::string json = "{\n  \"scenario\": \"" + scenario_name + "\",\n  \"replications\": " +
                     std::to_string(replications) + ",\n  \"metrics\": {";
  bool first = true;
  for (const MetricAggregate& a : aggregates) {
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + a.metric + "\": {\"count\": " + std::to_string(a.count) +
            ", \"mean\": " + CsvNum(a.mean) + ", \"stddev\": " + CsvNum(a.stddev) +
            ", \"ci95_half\": " + CsvNum(a.ci95_half) + ", \"min\": " + CsvNum(a.min) +
            ", \"max\": " + CsvNum(a.max) + ", \"" + P50Label(approx_quantiles) +
            "\": " + CsvNum(a.p50) + ", \"" + P95Label(approx_quantiles) +
            "\": " + CsvNum(a.p95) + "}";
  }
  json += "\n  }\n}\n";
  return json;
}

}  // namespace wlansim
