#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

CpuJiffies read_cpu_jiffies() {
  CpuJiffies out;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return out;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  unsigned long long v[10] = {};
  const int got = std::fscanf(
      f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7], &v[8], &v[9]);
  std::fclose(f);
  if (got < 8) return out;
  // guest time is already included in user/nice, so only the first eight
  // fields partition the CPU's time.
  for (int i = 0; i < 8; ++i) out.total += v[i];
  out.steal = v[7];
  out.valid = true;
  return out;
}

double steal_fraction(const CpuJiffies& begin, const CpuJiffies& end) {
  if (!begin.valid || !end.valid || end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

int host_nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace perfbench
