// Host facts and process counters read from outside the program.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Bytes this process caused to be sent to storage (/proc/self/io
/// write_bytes); 0 when the file is unavailable.
[[nodiscard]] std::uint64_t proc_write_bytes();

/// Online processors (at least 1).
[[nodiscard]] std::size_t nproc();

/// CPU seconds (user + system) this process has used so far.
[[nodiscard]] double process_cpu_s();

/// CPU seconds the calling thread spends on a fixed reference task that
/// uses no program code: 2^20 hashed keys (8 MiB) counted in a hash map and
/// sorted. Its time measures how fast the host runs at that moment.
[[nodiscard]] double reference_task_s();

[[nodiscard]] std::string compiler();
[[nodiscard]] std::string build_type();

}  // namespace perfbench
