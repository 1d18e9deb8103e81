// Query subsystem tests: catalog registration (collections, schema union,
// drift/corruption rejection), extent-cache accounting and bitwise column
// fidelity, and the differential contract at the heart of invariant #8 —
// every served answer is byte-identical to the offline `wlansim_results
// aggregate` path and independent of registration order, cache state,
// worker-thread count and repetition.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "query/protocol.h"
#include "query/server.h"
#include "results/binary_reader.h"
#include "results/binary_writer.h"
#include "runner/campaign.h"
#include "runner/metric_recorder.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/sweep.h"

namespace wlansim {
namespace {

// --- fixtures -------------------------------------------------------------------

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

// One shard of the pipeline_probe sweep grid (n_metrics sweeps the metric
// set itself, exercising the per-point schema union).
std::string SweepShardBytes(unsigned shard_index, unsigned shard_count) {
  std::ostringstream bin;
  BinarySweepWriter writer(bin);
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.grid.AddAxis(ParseSweepAxis("n_metrics=1,2,3"));
  options.grid.AddAxis(ParseSweepAxis("samples=8,32"));
  options.base_seed = 5;
  options.replications = 6;
  options.jobs = 2;
  options.shard_index = shard_index;
  options.shard_count = shard_count;
  options.point_sinks.push_back(&writer);
  RunSweepCampaign(options);
  return bin.str();
}

std::string CampaignBytes(uint64_t seed, const char* counters = "3") {
  std::ostringstream bin;
  BinaryCampaignWriter writer(bin, /*streamed=*/false);
  CampaignOptions options;
  options.scenario = "pipeline_probe";
  options.base_seed = seed;
  options.replications = 16;
  options.jobs = 2;
  options.params.Set("counters", counters);
  options.params.Set("hist", "true");
  options.consumers.push_back(&writer);
  RunCampaign(options);
  return bin.str();
}

struct SweepFixture {
  std::string path0;
  std::string path1;
  Catalog catalog;

  SweepFixture() {
    path0 = WriteTempFile("query_sweep_s0.wlsr", SweepShardBytes(0, 2));
    path1 = WriteTempFile("query_sweep_s1.wlsr", SweepShardBytes(1, 2));
    catalog.RegisterFile(path0);
    catalog.RegisterFile(path1);
  }

  // The offline answer over the same files, in the catalog's canonical
  // (sorted-path) order.
  std::string Offline() const {
    const BinaryResultsFile f0 = ReadBinaryResultsFile(path0);
    const BinaryResultsFile f1 = ReadBinaryResultsFile(path1);
    return AggregateBinary(std::vector<const BinaryResultsFile*>{&f0, &f1});
  }
};

std::string RunQuery(const Catalog& catalog, const std::string& query,
                     size_t cache_bytes = 64u << 20) {
  ExtentCache cache(cache_bytes);
  QueryEngine engine(&catalog, &cache);
  return engine.Execute(query);
}

// --- catalog --------------------------------------------------------------------

TEST(QueryCatalog, ShardsPoolIntoOneCollectionWithUnionSchema) {
  SweepFixture fx;
  EXPECT_EQ(fx.catalog.CollectionNames(),
            std::vector<std::string>{"pipeline_probe:sweep"});
  const Collection* c = fx.catalog.Find("pipeline_probe:sweep");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, BinaryFileKind::kSweep);
  EXPECT_EQ(c->param_keys, (std::vector<std::string>{"n_metrics", "samples"}));
  EXPECT_EQ(c->points.size(), 6u);      // full 3x2 grid across the two shards
  EXPECT_EQ(c->total_rows, 36u);        // 6 points x 6 replications
  // n_metrics=3 points carry value_2; n_metrics=1 points do not — the
  // collection schema is the union.
  const std::vector<std::string>& names = c->scalar_names;
  EXPECT_NE(std::find(names.begin(), names.end(), "value_0"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "value_2"), names.end());
  // Member files are sorted by path regardless of registration order.
  Catalog reversed;
  reversed.RegisterFile(fx.path1);
  reversed.RegisterFile(fx.path0);
  const Collection* r = reversed.Find("pipeline_probe:sweep");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->files.size(), 2u);
  EXPECT_EQ(r->files[0]->path, fx.path0);
  EXPECT_EQ(r->files[1]->path, fx.path1);
}

TEST(QueryCatalog, RejectsCorruptTruncatedForeignAndDuplicateFiles) {
  const std::string good = CampaignBytes(99);
  Catalog catalog;

  const std::string truncated =
      WriteTempFile("query_truncated.wlsr", good.substr(0, good.size() / 2));
  EXPECT_THROW(catalog.RegisterFile(truncated), std::runtime_error);

  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x40;  // CRC must catch a mid-body bit flip
  const std::string corrupt = WriteTempFile("query_corrupt.wlsr", flipped);
  EXPECT_THROW(catalog.RegisterFile(corrupt), std::runtime_error);

  const std::string foreign =
      WriteTempFile("query_foreign.wlsr", "metric,count,mean\nx,3,1.5\n");
  EXPECT_THROW(catalog.RegisterFile(foreign), std::runtime_error);

  EXPECT_THROW(catalog.RegisterFile(testing::TempDir() + "query_absent.wlsr"),
               std::runtime_error);

  // Failed registrations leave no trace: no files, no half-built collection.
  EXPECT_EQ(catalog.file_count(), 0u);
  EXPECT_TRUE(catalog.CollectionNames().empty());

  const std::string ok = WriteTempFile("query_dup.wlsr", good);
  catalog.RegisterFile(ok);
  EXPECT_THROW(catalog.RegisterFile(ok), std::runtime_error);  // duplicate path
  EXPECT_EQ(catalog.file_count(), 1u);
}

TEST(QueryCatalog, RejectsCampaignSchemaDriftDuplicatePointsAndAxisMismatch) {
  Catalog catalog;
  catalog.RegisterFile(WriteTempFile("query_drift_a.wlsr", CampaignBytes(1, "3")));
  // Same scenario, different counter count => different scalar column set:
  // pooling it would silently poison the campaign sample set.
  const std::string drifted =
      WriteTempFile("query_drift_b.wlsr", CampaignBytes(2, "1"));
  EXPECT_THROW(catalog.RegisterFile(drifted), std::runtime_error);

  // A sweep shard re-registered under a new path re-supplies its grid points.
  Catalog sweep_catalog;
  const std::string bytes = SweepShardBytes(0, 2);
  sweep_catalog.RegisterFile(WriteTempFile("query_point_a.wlsr", bytes));
  const std::string dup_points = WriteTempFile("query_point_b.wlsr", bytes);
  EXPECT_THROW(sweep_catalog.RegisterFile(dup_points), std::runtime_error);

  // A file swept over different axes cannot join the collection.
  std::ostringstream bin;
  BinarySweepWriter writer(bin);
  SweepOptions options;
  options.scenario = "pipeline_probe";
  options.grid.AddAxis(ParseSweepAxis("samples=4,16"));
  options.base_seed = 5;
  options.replications = 2;
  options.jobs = 1;
  options.point_sinks.push_back(&writer);
  RunSweepCampaign(options);
  const std::string other_axes = WriteTempFile("query_axes.wlsr", bin.str());
  EXPECT_THROW(sweep_catalog.RegisterFile(other_axes), std::runtime_error);
}

TEST(QueryCatalog, RegisterDirectoryPicksUpWlsrFilesSorted) {
  const std::string dir = testing::TempDir() + "query_dir";
  std::filesystem::create_directory(dir);
  std::ofstream(dir + "/b.wlsr", std::ios::binary) << SweepShardBytes(1, 2);
  std::ofstream(dir + "/a.wlsr", std::ios::binary) << SweepShardBytes(0, 2);
  std::ofstream(dir + "/notes.txt") << "ignored";
  Catalog catalog;
  EXPECT_EQ(catalog.RegisterDirectory(dir), 2u);
  const Collection* c = catalog.Find("pipeline_probe:sweep");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->points.size(), 6u);
}

// --- differential contract: served == offline, invariant #8 ---------------------

TEST(QueryEngine, SweepAggregateIsByteIdenticalToOfflineAggregate) {
  SweepFixture fx;
  const std::string offline = fx.Offline();
  ASSERT_FALSE(offline.empty());
  EXPECT_EQ(RunQuery(fx.catalog, "AGGREGATE pipeline_probe:sweep"), offline);
  // SELECT * with the default grouping (every axis) is the same answer.
  EXPECT_EQ(RunQuery(fx.catalog, "SELECT * FROM pipeline_probe:sweep"), offline);
}

TEST(QueryEngine, CampaignAggregatePoolsFilesLikeOfflineAggregate) {
  const std::string path_a = WriteTempFile("query_camp_a.wlsr", CampaignBytes(7));
  const std::string path_b = WriteTempFile("query_camp_b.wlsr", CampaignBytes(8));
  Catalog catalog;
  catalog.RegisterFile(path_b);  // registration order != path order
  catalog.RegisterFile(path_a);
  const BinaryResultsFile fa = ReadBinaryResultsFile(path_a);
  const BinaryResultsFile fb = ReadBinaryResultsFile(path_b);
  // The catalog pools in sorted-path order; hand the offline path the same
  // order (Welford folds are order-dependent, so this is part of the
  // contract, not a convenience).
  EXPECT_EQ(RunQuery(catalog, "AGGREGATE pipeline_probe:campaign"),
            AggregateBinary(std::vector<const BinaryResultsFile*>{&fa, &fb}));
}

TEST(QueryEngine, AnswerIndependentOfRegistrationOrderCacheStateAndRepetition) {
  SweepFixture fx;
  Catalog reversed;
  reversed.RegisterFile(fx.path1);
  reversed.RegisterFile(fx.path0);

  const std::string query = "SELECT value_0 FROM pipeline_probe:sweep WHERE n_metrics=2";
  const std::string baseline = RunQuery(fx.catalog, query);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(RunQuery(reversed, query), baseline);

  // A 1-byte budget forces a miss+eviction on every column; a warm repeat
  // on a big cache hits every column. All three answers must be the bytes.
  EXPECT_EQ(RunQuery(fx.catalog, query, /*cache_bytes=*/1), baseline);
  ExtentCache cache(64u << 20);
  QueryEngine engine(&fx.catalog, &cache);
  EXPECT_EQ(engine.Execute(query), baseline);
  EXPECT_EQ(engine.Execute(query), baseline);  // warm repeat
  cache.Clear();
  EXPECT_EQ(engine.Execute(query), baseline);  // cold again
}

TEST(QueryEngine, WhereAndGroupByMatchManualPerPointAggregation) {
  SweepFixture fx;
  const Collection* c = fx.catalog.Find("pipeline_probe:sweep");
  ASSERT_NE(c, nullptr);

  // WHERE n_metrics=2 with the default grouping: one row set per matching
  // grid point, ascending, each aggregated exactly like the offline path.
  std::string expected = ResultSink::SweepLongCsvHeader(c->param_keys, /*approx=*/false);
  for (const auto& [point, ref] : c->points) {
    const BinaryGroupHeader& h = ref.group().header;
    if (h.param_values[0] != "2") {
      continue;
    }
    size_t column = 0;
    while (h.scalar_names[column] != "value_0") {
      ++column;
    }
    std::vector<double> values;
    ReadScalarColumn(ref.group(), column, &values);
    expected += ResultSink::SweepLongCsvRows(h.param_values, {ExactAggregate("value_0", values)});
  }
  EXPECT_EQ(
      RunQuery(fx.catalog, "SELECT value_0 FROM pipeline_probe:sweep WHERE n_metrics=2"),
      expected);

  // GROUP BY samples pools the three n_metrics points of each samples
  // value, ascending point index within the bucket.
  std::map<std::string, std::vector<double>> buckets;
  for (const auto& [point, ref] : c->points) {
    const BinaryGroupHeader& h = ref.group().header;
    size_t column = 0;
    while (h.scalar_names[column] != "value_0") {
      ++column;
    }
    std::vector<double> values;
    ReadScalarColumn(ref.group(), column, &values);
    auto& pool = buckets[h.param_values[1]];
    pool.insert(pool.end(), values.begin(), values.end());
  }
  std::string grouped = ResultSink::SweepLongCsvHeader({"samples"}, /*approx=*/false);
  for (const char* samples : {"8", "32"}) {  // first-appearance order: point 0 has samples=8
    const MetricAggregate pooled = ExactAggregate("value_0", buckets.at(samples));
    grouped += ResultSink::SweepLongCsvRows({samples}, {pooled});
  }
  EXPECT_EQ(RunQuery(fx.catalog,
                     "SELECT value_0 FROM pipeline_probe:sweep GROUP BY samples"),
            grouped);
}

TEST(QueryEngine, HistMergesDistColumnsAcrossFilesExactly) {
  const std::string path_a = WriteTempFile("query_hist_a.wlsr", CampaignBytes(7));
  const std::string path_b = WriteTempFile("query_hist_b.wlsr", CampaignBytes(8));
  Catalog catalog;
  catalog.RegisterFile(path_a);
  catalog.RegisterFile(path_b);

  // Fold the snapshots by hand, straight off the files.
  uint64_t total = 0, underflow = 0, overflow = 0;
  std::vector<uint64_t> bins;
  for (const std::string& path : {path_a, path_b}) {
    const BinaryResultsFile file = ReadBinaryResultsFile(path);
    for (const BinaryGroup& group : file.groups) {
      size_t dist = 0;
      while (group.header.dist_names[dist] != "latency_hist") {
        ++dist;
      }
      std::vector<DistributionSnapshot> snaps;
      ReadDistColumn(group, dist, &snaps);
      for (const DistributionSnapshot& s : snaps) {
        total += s.total;
        underflow += s.underflow;
        overflow += s.overflow;
        bins.resize(std::max(bins.size(), s.bins.size()), 0);
        for (size_t i = 0; i < s.bins.size(); ++i) {
          bins[i] += s.bins[i];
        }
      }
    }
  }
  ASSERT_GT(total, 0u);

  const std::string body =
      RunQuery(catalog, "HIST pipeline_probe:campaign latency_hist");
  std::istringstream lines(body);
  std::string summary;
  ASSERT_TRUE(std::getline(lines, summary));
  EXPECT_NE(summary.find("count=" + std::to_string(total)), std::string::npos) << summary;
  EXPECT_NE(summary.find("underflow=" + std::to_string(underflow)), std::string::npos);
  EXPECT_NE(summary.find("overflow=" + std::to_string(overflow)), std::string::npos);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header, "bin,lo,count");
  // Every non-zero bin appears with its exact merged count, in order.
  uint64_t binned = 0;
  std::string row;
  while (std::getline(lines, row)) {
    const size_t first = row.find(',');
    const size_t last = row.rfind(',');
    ASSERT_NE(first, std::string::npos);
    const size_t bin = std::stoul(row.substr(0, first));
    const uint64_t count = std::stoull(row.substr(last + 1));
    ASSERT_LT(bin, bins.size());
    EXPECT_EQ(count, bins[bin]) << "bin " << bin;
    binned += count;
  }
  EXPECT_EQ(binned, total - underflow - overflow);
}

TEST(QueryEngine, RejectsBadQueriesWithUsefulErrors) {
  SweepFixture fx;
  EXPECT_THROW(RunQuery(fx.catalog, "AGGREGATE nope:sweep"), std::runtime_error);
  EXPECT_THROW(RunQuery(fx.catalog, "FROB pipeline_probe:sweep"), std::runtime_error);
  EXPECT_THROW(RunQuery(fx.catalog, "SELECT bogus FROM pipeline_probe:sweep"),
               std::runtime_error);
  EXPECT_THROW(
      RunQuery(fx.catalog, "SELECT value_0 FROM pipeline_probe:sweep WHERE nope=1"),
      std::runtime_error);
  // value_2 exists only at n_metrics=3 points: pooling it across the grid
  // must fail loudly, not zero-fill.
  EXPECT_THROW(RunQuery(fx.catalog, "SELECT value_2 FROM pipeline_probe:sweep"),
               std::runtime_error);
  // ...but restricted to the points that have it, it works.
  EXPECT_FALSE(
      RunQuery(fx.catalog, "SELECT value_2 FROM pipeline_probe:sweep WHERE n_metrics=3")
          .empty());
  // no matching grid points
  EXPECT_THROW(
      RunQuery(fx.catalog, "SELECT value_0 FROM pipeline_probe:sweep WHERE n_metrics=9"),
      std::runtime_error);
  // Metrics split across tokens need commas; bare "a b" must be a syntax
  // error about the missing comma, not a lookup for a fused metric "ab".
  try {
    RunQuery(fx.catalog, "SELECT value_0 value_1 FROM pipeline_probe:sweep");
    FAIL() << "space-separated metric list was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("comma"), std::string::npos) << e.what();
  }
  // ...while a comma-joined list split across tokens stays legal.
  EXPECT_FALSE(
      RunQuery(fx.catalog, "SELECT value_0, value_1 FROM pipeline_probe:sweep WHERE n_metrics=3")
          .empty());
}

// --- extent cache ---------------------------------------------------------------

TEST(ExtentCache, CountsHitsMissesEvictionsAndHonoursByteBudget) {
  SweepFixture fx;
  const Collection* c = fx.catalog.Find("pipeline_probe:sweep");
  ASSERT_NE(c, nullptr);
  const std::vector<GroupRef> groups = c->GroupsInOrder();
  ASSERT_EQ(groups.size(), 6u);

  // Budget of one column (6 rows): every distinct fetch evicts the last.
  ExtentCache small(6 * sizeof(double));
  for (const GroupRef& ref : groups) {
    small.GetScalarColumn(ref, 0);
  }
  ExtentCacheStats s = small.Stats();
  EXPECT_EQ(s.lookups, 6u);
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 5u);
  EXPECT_LE(s.cached_bytes, small.byte_budget());
  EXPECT_EQ(s.cached_columns, 1u);
  // Warm repeat of the resident column is a hit; a column larger than the
  // whole budget is served but not retained.
  small.GetScalarColumn(groups.back(), 0);
  EXPECT_EQ(small.Stats().hits, 1u);
  ExtentCache tiny(1);
  const ColumnPtr served = tiny.GetScalarColumn(groups[0], 0);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->size(), 6u);
  EXPECT_EQ(tiny.Stats().cached_columns, 0u);
  EXPECT_EQ(tiny.Stats().cached_bytes, 0u);
}

TEST(ExtentCache, NanAndNegativeZeroSurviveTheCachedPathBitwise) {
  // Hand-built campaign whose column holds every bit pattern the codec must
  // not normalize: NaN, -0.0, denormals, infinities.
  const double hard[] = {std::numeric_limits<double>::quiet_NaN(),
                         -0.0,
                         0.0,
                         std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::infinity(),
                         1.0e300};
  std::ostringstream bin;
  BinaryCampaignWriter writer(bin, /*streamed=*/false);
  writer.BeginCampaign({"hard_values", 1, 6});
  for (uint64_t rep = 0; rep < 6; ++rep) {
    ReplicationRecord record;
    record.replication = rep;
    record.metrics["x"] = hard[rep];
    writer.OnRecord(record);
  }
  writer.EndCampaign();

  Catalog catalog;
  catalog.RegisterFile(WriteTempFile("query_hard.wlsr", bin.str()));
  const Collection* c = catalog.Find("hard_values:campaign");
  ASSERT_NE(c, nullptr);
  ExtentCache cache(64u << 20);
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 decodes, pass 1 hits
    const ColumnPtr col = cache.GetScalarColumn(c->GroupsInOrder()[0], 0);
    ASSERT_EQ(col->size(), 6u);
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(std::memcmp(&(*col)[i], &hard[i], sizeof(double)), 0)
          << "pass " << pass << " row " << i;
    }
  }
  EXPECT_EQ(cache.Stats().hits, 1u);
}

// --- server ---------------------------------------------------------------------

std::string RoundTrip(int fd, const std::string& query, uint8_t* status) {
  WriteFrame(fd, query);
  std::string payload;
  EXPECT_TRUE(ReadFrame(fd, &payload));
  std::string body;
  *status = DecodeResponse(payload, &body);
  return body;
}

int ConnectTo(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  EXPECT_LT(socket_path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << socket_path;
  return fd;
}

TEST(QueryServer, ServesOfflineIdenticalBytesAcrossThreadCountsAndConnections) {
  SweepFixture fx;
  const std::string offline = fx.Offline();

  Catalog reversed;
  reversed.RegisterFile(fx.path1);
  reversed.RegisterFile(fx.path0);

  const struct {
    const Catalog* catalog;
    int threads;
    const char* socket_name;
  } configs[] = {{&fx.catalog, 1, "query_t1.sock"}, {&reversed, 8, "query_t8.sock"}};
  for (const auto& config : configs) {
    QueryServerOptions options;
    options.socket_path = testing::TempDir() + config.socket_name;
    options.threads = config.threads;
    QueryServer server(config.catalog, options);
    server.Start();

    const int fd = ConnectTo(options.socket_path);
    uint8_t status = kStatusError;
    EXPECT_EQ(RoundTrip(fd, "AGGREGATE pipeline_probe:sweep", &status), offline);
    EXPECT_EQ(status, kStatusOk);
    // A failed query reports on the same connection without ending it.
    const std::string error = RoundTrip(fd, "FROB everything", &status);
    EXPECT_EQ(status, kStatusError);
    EXPECT_FALSE(error.empty());
    // Warm repeat (cache now populated) still serves the same bytes.
    EXPECT_EQ(RoundTrip(fd, "AGGREGATE pipeline_probe:sweep", &status), offline);
    EXPECT_EQ(status, kStatusOk);
    const std::string stats = RoundTrip(fd, "STATS", &status);
    EXPECT_EQ(status, kStatusOk);
    EXPECT_NE(stats.find("served="), std::string::npos);
    EXPECT_NE(stats.find("cache lookups="), std::string::npos);
    EXPECT_NE(stats.find("latency AGGREGATE"), std::string::npos);
    ::close(fd);

    // A second connection is served by a (possibly) different worker.
    const int fd2 = ConnectTo(options.socket_path);
    EXPECT_EQ(RoundTrip(fd2, "AGGREGATE pipeline_probe:sweep", &status), offline);
    EXPECT_EQ(status, kStatusOk);
    ::close(fd2);

    server.Stop();
    EXPECT_GE(server.queries_served(), 5u);
  }
}

}  // namespace
}  // namespace wlansim
