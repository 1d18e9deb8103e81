#include "probe/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>

#include <sys/time.h>
#include <ucontext.h>

namespace perfbench {
namespace {

std::mutex g_span_mu;
std::vector<Span> g_spans;  // guarded by g_span_mu
std::atomic<uint32_t> g_next_span_id{1};

// 2^20 samples is over an hour of one busy thread at 250 Hz; samples past
// the end of the buffer are not recorded.
constexpr size_t kMaxSamples = size_t{1} << 20;
std::unique_ptr<uint64_t[]> g_samples;
std::atomic<size_t> g_sample_count{0};

void OnProf(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const uint64_t pc = static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const uint64_t pc = static_cast<uint64_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  const uint64_t pc = 0;  // unknown architecture: every sample maps to "other"
#endif
  const size_t slot = g_sample_count.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) {
    g_samples[slot] = pc;
  }
}

void SetTimer(int hz) {
  itimerval timer{};
  if (hz > 0) {
    timer.it_interval.tv_usec = 1000000 / hz;
    timer.it_value = timer.it_interval;
  }
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

void RecordSpan(const Span& span) {
  std::lock_guard<std::mutex> lock(g_span_mu);
  g_spans.push_back(span);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScopedSpan::ScopedSpan(const char* name, uint32_t parent) {
  span_.name = name;
  span_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  RecordSpan(span_);
}

void StartSampler(int hz) {
  if (!g_samples) {
    g_samples = std::make_unique<uint64_t[]>(kMaxSamples);
  }
  struct sigaction action {};
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  SetTimer(hz);
}

void StopSampler() {
  SetTimer(0);
  // A signal already raised is still delivered with the handler installed;
  // ignoring SIGPROF afterwards drops it instead of killing the process.
  std::signal(SIGPROF, SIG_IGN);
}

void WriteTrace(const std::string& path, const std::map<std::string, double>& values,
                const std::map<std::string, std::vector<double>>& lists,
                std::map<std::string, std::string> texts) {
  // The address-space layout, so samples outside the executable can be
  // told apart by shared object.
  std::ifstream maps("/proc/self/maps");
  texts["maps"].assign(std::istreambuf_iterator<char>(maps), std::istreambuf_iterator<char>());

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  std::fputs("{\"spans\": [", out);
  {
    std::lock_guard<std::mutex> lock(g_span_mu);
    for (size_t i = 0; i < g_spans.size(); ++i) {
      const Span& s = g_spans[i];
      std::fprintf(out, "%s\n[\"%s\", %lld, %lld, %u, %u]", i == 0 ? "" : ",", s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.id,
                   s.parent);
    }
  }
  std::fputs("],\n\"samples\": [", out);
  const size_t n = std::min(g_sample_count.load(), kMaxSamples);
  for (size_t i = 0; i < n; ++i) {
    std::fprintf(out, "%s%llu", i == 0 ? "" : ",", static_cast<unsigned long long>(g_samples[i]));
  }
  std::fputs("],\n\"values\": {", out);
  const char* sep = "";
  for (const auto& [key, value] : values) {
    std::fprintf(out, "%s\n\"%s\": %.17g", sep, key.c_str(), value);
    sep = ",";
  }
  std::fputs("},\n\"lists\": {", out);
  sep = "";
  for (const auto& [key, list] : lists) {
    std::fprintf(out, "%s\n\"%s\": [", sep, key.c_str());
    for (size_t i = 0; i < list.size(); ++i) {
      std::fprintf(out, "%s%.17g", i == 0 ? "" : ",", list[i]);
    }
    std::fputs("]", out);
    sep = ",";
  }
  std::fputs("},\n\"texts\": {", out);
  sep = "";
  for (const auto& [key, text] : texts) {
    std::fprintf(out, "%s\n\"%s\": \"", sep, key.c_str());
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        std::fprintf(out, "\\%c", c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
      } else {
        std::fputc(c, out);
      }
    }
    std::fputs("\"", out);
    sep = ",";
  }
  std::fputs("}}\n", out);
  if (std::fclose(out) != 0) {
    throw std::runtime_error("error writing " + path);
  }
}

}  // namespace perfbench
