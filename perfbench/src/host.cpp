#include "host.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t proc_write_bytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

double process_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

double reference_task_s() {
  auto thread_cpu_s = [] {
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
  };
  const double start = thread_cpu_s();
  std::vector<std::uint64_t> keys(std::size_t{1} << 20);
  std::uint64_t state = 0;
  for (std::uint64_t& key : keys) {  // splitmix64
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    key = z ^ (z >> 31);
  }
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  for (const std::uint64_t key : keys) ++counts[key & 0xffff];
  std::sort(keys.begin(), keys.end());
  // Use the results, so the work cannot be optimised away.
  static volatile std::uint64_t sink = 0;
  sink = sink + keys[keys.size() / 2] + counts.size();
  return thread_cpu_s() - start;
}

std::size_t nproc() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online) : 1;
}

std::string compiler() { return PERFBENCH_COMPILER; }
std::string build_type() { return PERFBENCH_BUILD_TYPE; }

}  // namespace perfbench
