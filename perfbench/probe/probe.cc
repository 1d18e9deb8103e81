// perfbench_probe — the benchmark's own client and traced harness, linked
// against libwlansim. run.py drives it; see perfbench/README.md.
//
//   perfbench_probe campaign --scenario=S [--param K=V]... --reps=N --jobs=J --seed=B
//                            --csv=F --reps-csv=F --binary-out=F --trace=F [--sample]
//       Runs one campaign the way wlansim_run does and writes the same three
//       files, with spans around Campaign::Run, every Scenario::Run (through
//       a delegating Scenario that keeps the name, so seeds are unchanged)
//       and every call into the WLSR and CSV writers.
//   perfbench_probe query --register=F... --mix=F --socket=P --cache-mb=N
//                         --seconds=S --trace=F --bodies=DIR [--sample]
//       Registers the files (spans around Catalog::RegisterFile), serves them
//       from an in-process QueryServer to two closed-loop client threads (the
//       load under the sampler), then times QueryEngine::Execute in-process
//       over one pass of the mix. Client latencies and cache counters are
//       taken against the shipped wlansim_queryd instead (the client command).
//   perfbench_probe client --socket=P --mix=F --seconds=S --pid=N --bodies=DIR --out=F
//       Untraced load generator against a running wlansim_queryd: two
//       closed-loop connections, client-side latency per query, daemon CPU
//       per round, and the first served body of every distinct query.
//   perfbench_probe answers --register=F... --mix=F --out=DIR
//       The expected body of every distinct query, from QueryEngine::Execute
//       on a fresh catalog.
//   perfbench_probe crc-loop --seconds=S --trace=F
//       A tight Crc32 loop under the sampler (the sampler's own test).
//
// A mix file holds one query per line as "P<TAB>query" (point) or
// "S<TAB>query" (scan); one round runs every line once, in order, shared
// between the two clients.

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/hotpath_stats.h"
#include "crypto/crc32.h"
#include "probe/trace.h"
#include "query/catalog.h"
#include "query/engine.h"
#include "query/extent_cache.h"
#include "query/protocol.h"
#include "query/server.h"
#include "results/binary_writer.h"
#include "runner/campaign.h"
#include "runner/result_consumer.h"
#include "runner/result_sink.h"
#include "runner/scenario_registry.h"

namespace perfbench {
namespace {

using wlansim::ReplicationContext;
using wlansim::ReplicationResult;
using wlansim::ScenarioParams;

// Same threshold as wlansim_run's automatic switch to the streaming path.
constexpr uint64_t kAutoStreamReplications = 10000;
constexpr int kSampleHz = 1000;
constexpr int kClients = 2;
constexpr int kServerThreads = 2;

struct Args {
  std::multimap<std::string, std::string> values;
  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  std::vector<std::string> All(const std::string& key) const {
    std::vector<std::string> out;
    for (auto [it, end] = values.equal_range(key); it != end; ++it) {
      out.push_back(it->second);
    }
    return out;
  }
  uint64_t GetU64(const std::string& key) const { return std::stoull(Get(key)); }
  double GetDouble(const std::string& key) const { return std::stod(Get(key)); }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      args.values.emplace(arg.substr(2), "");
    } else {
      args.values.emplace(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
  return args;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::map<std::string, double> HotPathCounters() {
  return {{"core.event_heap_fallbacks",
           static_cast<double>(wlansim::HotPathStats::event_heap_fallbacks.load())},
          {"phy.bytes_copied",
           static_cast<double>(wlansim::HotPathStats::channel_bytes_copied.load())}};
}

// ---------------------------------------------------------------- campaign

// Delegates to a registered scenario, keeping its name (the seed of
// replication i is derived from it) and timing every Run.
class TimedScenario final : public wlansim::Scenario {
 public:
  TimedScenario(const wlansim::Scenario& inner, uint32_t parent)
      : inner_(inner), parent_(parent) {}
  std::string_view name() const override { return inner_.name(); }
  std::string_view description() const override { return inner_.description(); }
  std::vector<wlansim::ParamSpec> param_specs() const override { return inner_.param_specs(); }
  ReplicationResult Run(const ScenarioParams& params,
                        const ReplicationContext& ctx) const override {
    ScopedSpan span("runner.scenario", parent_);
    return inner_.Run(params, ctx);
  }

 private:
  const wlansim::Scenario& inner_;
  uint32_t parent_;
};

// Times every call into a library ResultConsumer.
class TimedConsumer final : public wlansim::ResultConsumer {
 public:
  TimedConsumer(const char* span_name, wlansim::ResultConsumer& inner, uint32_t parent)
      : span_name_(span_name), inner_(inner), parent_(parent) {}
  void BeginCampaign(const wlansim::CampaignManifest& manifest) override {
    ScopedSpan span(span_name_, parent_);
    inner_.BeginCampaign(manifest);
  }
  void OnRecord(const wlansim::ReplicationRecord& record) override {
    ScopedSpan span(span_name_, parent_);
    inner_.OnRecord(record);
  }
  void EndCampaign() override {
    ScopedSpan span(span_name_, parent_);
    inner_.EndCampaign();
  }

 private:
  const char* span_name_;
  wlansim::ResultConsumer& inner_;
  uint32_t parent_;
};

std::ofstream OpenOut(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
  return out;
}

int RunCampaignCommand(const Args& args) {
  wlansim::CampaignOptions options;
  options.scenario = args.Get("scenario");
  for (const std::string& kv : args.All("param")) {
    const size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("--param expects KEY=VALUE, got '" + kv + "'");
    }
    options.params.Set(kv.substr(0, eq), kv.substr(eq + 1));
  }
  options.replications = args.GetU64("reps");
  options.jobs = static_cast<unsigned>(args.GetU64("jobs"));
  options.base_seed = args.GetU64("seed");
  options.stream = options.replications >= kAutoStreamReplications;

  const wlansim::Scenario* scenario =
      wlansim::ScenarioRegistry::Global().Find(options.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario '" + options.scenario + "'");
  }
  scenario->ValidateParams(options.params);

  std::ofstream reps_out = OpenOut(args.Get("reps-csv"));
  std::ofstream binary_out = OpenOut(args.Get("binary-out"));
  wlansim::StreamingCsvWriter csv_writer(reps_out);
  wlansim::BinaryCampaignWriter binary_writer(binary_out, options.stream);

  const bool sample = args.Has("sample");
  if (sample) {
    StartSampler(kSampleHz);
  }
  wlansim::CampaignResult result;
  {
    ScopedSpan campaign_span("runner.campaign", 0);
    TimedScenario timed(*scenario, campaign_span.id());
    TimedConsumer timed_csv("results.csv_write", csv_writer, campaign_span.id());
    TimedConsumer timed_binary("results.wlsr_write", binary_writer, campaign_span.id());
    options.consumers = {&timed_csv, &timed_binary};
    result = wlansim::Campaign(timed).Run(options);
  }
  if (sample) {
    StopSampler();
  }
  reps_out.close();
  binary_out.close();
  if (!reps_out || !binary_out) {
    throw std::runtime_error("error writing the campaign's output files");
  }
  std::ofstream csv_out = OpenOut(args.Get("csv"));
  csv_out << wlansim::ResultSink::AggregatesToCsv(result.aggregates, result.streamed);
  csv_out.close();
  if (!csv_out) {
    throw std::runtime_error("error writing " + args.Get("csv"));
  }
  WriteTrace(args.Get("trace"), HotPathCounters(), {}, {});
  return 0;
}

// ------------------------------------------------------------------- query

struct MixEntry {
  bool scan = false;
  std::string query;
  size_t distinct = 0;  // index among the mix's distinct query texts
};

struct Mix {
  std::vector<MixEntry> entries;
  std::vector<std::string> distinct;
};

Mix ReadMix(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  Mix mix;
  std::map<std::string, size_t> index;
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 3 || (line[0] != 'P' && line[0] != 'S') || line[1] != '\t') {
      throw std::runtime_error("bad mix line '" + line + "'");
    }
    MixEntry entry;
    entry.scan = line[0] == 'S';
    entry.query = line.substr(2);
    auto [it, inserted] = index.emplace(entry.query, mix.distinct.size());
    if (inserted) {
      mix.distinct.push_back(entry.query);
    }
    entry.distinct = it->second;
    mix.entries.push_back(std::move(entry));
  }
  if (mix.entries.empty()) {
    throw std::runtime_error("empty mix " + path);
  }
  return mix;
}

class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string reason = std::strerror(errno);
      if (fd_ >= 0) {
        ::close(fd_);
      }
      throw std::runtime_error("cannot connect to " + socket_path + ": " + reason);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Returns the response status; the body goes to *body.
  uint8_t Ask(const std::string& query, std::string* body) {
    wlansim::WriteFrame(fd_, query);
    std::string payload;
    if (!wlansim::ReadFrame(fd_, &payload)) {
      throw std::runtime_error("server closed the connection");
    }
    return wlansim::DecodeResponse(payload, body);
  }

 private:
  int fd_ = -1;
};

// CPU seconds (user + system) consumed so far by process `pid`.
double ProcessCpuSeconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) + "/stat");
  }
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) {
      utime = std::stoull(field);
    } else if (i == 15) {
      stime = std::stoull(field);
    }
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct ClientRun {
  std::vector<double> round_wall_s;
  std::vector<double> round_cpu_s;  // daemon CPU per round; empty without a pid
  std::vector<double> latency_ms;   // one per query, grouped by client
  std::vector<double> is_scan;      // 1 for a scan, parallel to latency_ms
  uint64_t failures = 0;            // error status or transport failure
  uint64_t mismatches = 0;          // a body unlike the first one served for its text
  std::vector<std::optional<std::string>> bodies;  // first body per distinct query
};

// Closed loop: each client sends its next query only after the previous
// answer arrived. Rounds repeat until `seconds` have passed.
ClientRun RunClients(const std::string& socket_path, const Mix& mix, double seconds, long pid) {
  ClientRun run;
  run.bodies.resize(mix.distinct.size());
  std::mutex mu;  // guards run
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kClients; ++c) {
    connections.push_back(std::make_unique<Connection>(socket_path));
  }
  const int64_t start = NowNs();
  while (run.round_wall_s.empty() || Seconds(NowNs() - start) < seconds) {
    const double cpu_before = pid > 0 ? ProcessCpuSeconds(pid) : 0.0;
    const int64_t round_start = NowNs();
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> latency;
        std::vector<double> scan;
        uint64_t failures = 0;
        uint64_t mismatches = 0;
        std::string body;
        for (size_t i = next.fetch_add(1); i < mix.entries.size(); i = next.fetch_add(1)) {
          const MixEntry& entry = mix.entries[i];
          const int64_t t0 = NowNs();
          uint8_t status = wlansim::kStatusError;
          try {
            status = connections[c]->Ask(entry.query, &body);
          } catch (const std::exception&) {
            status = wlansim::kStatusError;
          }
          latency.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
          scan.push_back(entry.scan ? 1.0 : 0.0);
          if (status != wlansim::kStatusOk) {
            ++failures;
            continue;
          }
          std::lock_guard<std::mutex> lock(mu);
          std::optional<std::string>& first = run.bodies[entry.distinct];
          if (!first) {
            first = body;
          } else if (*first != body) {
            ++mismatches;
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        run.latency_ms.insert(run.latency_ms.end(), latency.begin(), latency.end());
        run.is_scan.insert(run.is_scan.end(), scan.begin(), scan.end());
        run.failures += failures;
        run.mismatches += mismatches;
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    run.round_wall_s.push_back(Seconds(NowNs() - round_start));
    if (pid > 0) {
      run.round_cpu_s.push_back(ProcessCpuSeconds(pid) - cpu_before);
    }
  }
  return run;
}

void WriteBodies(const std::string& dir, const std::vector<std::optional<std::string>>& bodies) {
  for (size_t i = 0; i < bodies.size(); ++i) {
    if (bodies[i]) {
      std::ofstream out = OpenOut(dir + "/" + std::to_string(i) + ".body");
      out << *bodies[i];
    }
  }
}

std::map<std::string, std::vector<double>> ClientLists(const ClientRun& run) {
  return {{"round_wall_s", run.round_wall_s},
          {"round_cpu_s", run.round_cpu_s},
          {"latency_ms", run.latency_ms},
          {"is_scan", run.is_scan}};
}

int RunClientCommand(const Args& args) {
  const Mix mix = ReadMix(args.Get("mix"));
  const ClientRun run = RunClients(args.Get("socket"), mix, args.GetDouble("seconds"),
                                   static_cast<long>(args.GetU64("pid")));
  WriteBodies(args.Get("bodies"), run.bodies);
  WriteTrace(args.Get("out"),
             {{"failures", static_cast<double>(run.failures)},
              {"mismatches", static_cast<double>(run.mismatches)}},
             ClientLists(run), {});
  return 0;
}

void RegisterAll(wlansim::Catalog& catalog, const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    ScopedSpan span("query.register", 0);
    catalog.RegisterFile(path);
  }
}

int RunQueryCommand(const Args& args) {
  const Mix mix = ReadMix(args.Get("mix"));
  const size_t cache_bytes = static_cast<size_t>(args.GetU64("cache-mb")) << 20;
  wlansim::Catalog catalog;
  RegisterAll(catalog, args.All("register"));

  wlansim::QueryServerOptions options;
  options.socket_path = args.Get("socket");
  options.threads = kServerThreads;
  options.cache_bytes = cache_bytes;
  wlansim::QueryServer server(&catalog, options);
  server.Start();
  const bool sample = args.Has("sample");
  if (sample) {
    StartSampler(kSampleHz);
  }
  const ClientRun run = RunClients(options.socket_path, mix, args.GetDouble("seconds"), 0);
  if (sample) {
    StopSampler();
  }
  server.Stop();

  // One in-process pass over the mix with a cache of the same budget.
  wlansim::ExtentCache local_cache(cache_bytes);
  wlansim::QueryEngine engine(&catalog, &local_cache);
  for (const MixEntry& entry : mix.entries) {
    ScopedSpan span(entry.scan ? "query.execute_scan" : "query.execute_point", 0);
    engine.Execute(entry.query);
  }

  WriteBodies(args.Get("bodies"), run.bodies);
  WriteTrace(args.Get("trace"),
             {{"failures", static_cast<double>(run.failures)},
              {"mismatches", static_cast<double>(run.mismatches)}},
             ClientLists(run), {});
  return 0;
}

int RunAnswersCommand(const Args& args) {
  const Mix mix = ReadMix(args.Get("mix"));
  wlansim::Catalog catalog;
  RegisterAll(catalog, args.All("register"));
  wlansim::ExtentCache cache(size_t{64} << 20);
  wlansim::QueryEngine engine(&catalog, &cache);
  std::vector<std::optional<std::string>> bodies;
  for (const std::string& query : mix.distinct) {
    bodies.emplace_back(engine.Execute(query));
  }
  WriteBodies(args.Get("out"), bodies);
  return 0;
}

int RunCrcLoopCommand(const Args& args) {
  std::vector<uint8_t> buffer(4096);
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<uint8_t>(i * 131u + 7u);
  }
  const int64_t deadline = NowNs() + static_cast<int64_t>(args.GetDouble("seconds") * 1e9);
  uint32_t sink = 0;
  uint64_t calls = 0;
  StartSampler(kSampleHz);
  while (NowNs() < deadline) {
    for (int i = 0; i < 64; ++i) {
      buffer[0] = static_cast<uint8_t>(sink);
      sink ^= wlansim::Crc32(buffer);
      ++calls;
    }
  }
  StopSampler();
  WriteTrace(args.Get("trace"),
             {{"calls", static_cast<double>(calls)}, {"sink", static_cast<double>(sink)}}, {},
             {});
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_probe campaign|query|client|answers|crc-loop ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = ParseArgs(argc, argv);
    if (command == "campaign") {
      return RunCampaignCommand(args);
    }
    if (command == "query") {
      return RunQueryCommand(args);
    }
    if (command == "client") {
      return RunClientCommand(args);
    }
    if (command == "answers") {
      return RunAnswersCommand(args);
    }
    if (command == "crc-loop") {
      return RunCrcLoopCommand(args);
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
