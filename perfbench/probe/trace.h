// Tracing for perfbench_probe: wall-clock spans recorded around the calls
// the benchmark makes into libwlansim, and a SIGPROF sampler that records
// the leaf program counter of whichever thread is burning CPU. Both keep
// everything in memory; WriteTrace dumps it once the measured work is over.
// Nothing here feeds a result file of the program under test.
#ifndef PERFBENCH_PROBE_TRACE_H_
#define PERFBENCH_PROBE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = no parent
};

// Records one span from construction to destruction into a thread-safe,
// append-only store.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return span_.id; }

 private:
  Span span_;
};

// Process-wide CPU-time sampler (ITIMER_PROF): each tick of consumed CPU
// records the interrupted thread's program counter. Start and Stop are
// called from one thread; the signal handler only writes into a
// preallocated buffer.
void StartSampler(int hz);
void StopSampler();

// Writes one JSON object: every recorded span, every sampled PC, the
// caller's named values, value lists and texts, and /proc/self/maps as the
// text "maps".
void WriteTrace(const std::string& path, const std::map<std::string, double>& values,
                const std::map<std::string, std::vector<double>>& lists,
                std::map<std::string, std::string> texts);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_TRACE_H_
