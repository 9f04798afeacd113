// Host facts and process counters the benchmark records next to every
// result, so a slow run can be traced to the machine rather than the code.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// User + system CPU seconds consumed so far by every thread of the process.
double process_cpu_seconds();

/// Peak resident set of the process so far, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Aggregate CPU counters (jiffies) from the first line of /proc/stat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};
CpuJiffies read_cpu_jiffies();

/// Share of all vCPU time that the hypervisor stole between two samples;
/// 0 when /proc/stat is unavailable or the counters did not advance.
double steal_fraction(const CpuJiffies& begin, const CpuJiffies& end);

/// Online processors (sysconf), at least 1.
int host_nproc();

/// Compiler that built this binary, e.g. "g++ 12.2.0".
std::string compiler_version();

}  // namespace perfbench
