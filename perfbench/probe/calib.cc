// perfbench_calib — a fixed reference program that tells run.py how fast
// the host is running right now. It links nothing from wlansim, so no
// change to the program under test can change it. run.py spawns it next to
// every campaign run, the same way it spawns wlansim_run, and scales the
// campaign workloads' times by the ratio of its median start-to-exit time
// to a fixed reference time (see "Noise" in perfbench/README.md).
//
// The work mixes what a short wlansim_run spends its time on: process start
// and dynamic loading of libstdc++, page faults on fresh memory, sorting,
// and string-keyed map inserts. It prints one checksum so that none of it
// can be optimised away.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

int main() {
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<uint32_t> keys(1 << 16);
  for (auto& k : keys) k = static_cast<uint32_t>(next());
  std::sort(keys.begin(), keys.end());
  std::map<std::string, uint64_t> names;
  for (int i = 0; i < 2000; ++i) names.emplace("metric_" + std::to_string(next() % 100000), i);
  std::vector<char> pages(4 << 20);
  for (size_t i = 0; i < pages.size(); i += 4096) pages[i] = static_cast<char>(i >> 12);
  uint64_t sum = keys[keys.size() / 2] + static_cast<unsigned char>(pages[4096]);
  for (const auto& [name, v] : names) sum += name.size() + v;
  std::printf("%llu\n", static_cast<unsigned long long>(sum));
  return 0;
}
