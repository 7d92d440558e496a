// report.h - What one benchmark run hands back to main(): correctness,
// operation counts, named metrics, and the notes that explain a failure.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (stores, sockets), relative
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Free-form facts for the run record (sizes, rates, counts).
  std::map<std::string, double> facts;
  std::vector<std::string> problems;  ///< why correct is false

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Process CPU seconds (user, sys) so far, from getrusage.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};

inline CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

/// Process peak resident set in MB (ru_maxrss is KiB on Linux).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

RunResult run_offline(const RunOptions& opt);
RunResult run_serve_steady(const RunOptions& opt);

}  // namespace perfbench
