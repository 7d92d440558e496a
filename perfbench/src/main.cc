// sddd_perfbench - the SDDD benchmark binary.
//
//   sddd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Workloads: offline_table1, serve_steady (see
// perfbench/README.md).  The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  The line
// before it is the run record: the same numbers plus host facts, also
// appended to DIR/records.jsonl; a traced run writes its spans to
// DIR/trace-<workload>-<seed>.json.  Exit code 0 = the run completed
// (correct or not), 2 = usage error, 1 = the run threw.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/log.h"
#include "store/query.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

using sddd::store::json_quote;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_quote(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_quote(metric.unit) + "}";
  }
  return out + "}";
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

/// Every per-layer metric (BENCHMARK.json "per_layer").  A traced run of
/// any workload prints all of them; a layer the workload does not reach
/// reads 0.
constexpr const char* kPerLayer[][2] = {
    {"netlist.standin_s", "s"},
    {"timing.field_build_s", "s"},
    {"atpg.calibration_s", "s"},
    {"atpg.generate_s", "s"},
    {"atpg.generate_calls", "count"},
    {"atpg.patterns_per_call", "count"},
    {"atpg.accept_ratio", "fraction"},
    {"atpg.gate_s", "s"},
    {"timing.observe_s", "s"},
    {"timing.observe_calls", "count"},
    {"timing.mc_samples", "count"},
    {"diagnosis.diagnose_s", "s"},
    {"diagnosis.logic_baseline_s", "s"},
    {"diagnosis.suspects_per_chip", "count"},
    {"diagnosis.phi_evals", "count"},
    {"diagnosis.columns_built", "count"},
    {"diagnosis.sig_cache_hit_ratio", "fraction"},
    {"diagnosis.topk_hit_rate", "fraction"},
    {"runtime.busy_frac", "fraction"},
    {"offline.chips_per_s", "chips/s"},
    {"offline.experiment_s", "s"},
    {"offline.draw_p90_ms", "ms"},
    {"store.serialize_s", "s"},
    {"store.write_s", "s"},
    {"store.open_s", "s"},
    {"store.bytes", "bytes"},
    {"store.query_ms", "ms"},
    {"store.render_ms", "ms"},
    {"serve.phase.parse_us", "us"},
    {"serve.phase.queue_us", "us"},
    {"serve.phase.score_us", "us"},
    {"serve.phase.render_us", "us"},
    {"serve.phase.write_us", "us"},
    {"serve.overhead_ms", "ms"},
    {"wire.request_bytes", "bytes"},
    {"wire.response_bytes", "bytes"},
    {"serve.gen_late_ms", "ms"},
    {"serve.p90_ms", "ms"},
    {"serve.p99_ms", "ms"},
    {"serve.sheds", "count"},
    {"serve.reconnects", "count"},
    {"serve.mismatches", "count"},
    {"serve.max_rps", "1/s"},
    {"serve.invalid_rungs", "count"},
    {"run.peak_rss_mb", "MB"},
    {"trace.coverage", "fraction"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sddd_perfbench --workload offline_table1|serve_steady\n"
               "                      --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.work_dir = ".bench_build/work";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opt.seconds > 0.0;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage();
      opt.trace = val == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else {
      usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage();
  RunResult (*run)(const RunOptions&) = nullptr;
  if (opt.workload == "offline_table1") run = run_offline;
  if (opt.workload == "serve_steady") run = run_serve_steady;
  if (run == nullptr) usage();

  sddd::obs::set_log_level(sddd::obs::LogLevel::kWarn);
  std::filesystem::create_directories(opt.work_dir);
  const std::string load_start = loadavg();
  const CpuTimes cpu0 = process_cpu();
  const std::uint64_t t0 = now_ns();
  RunResult res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sddd_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const CpuTimes cpu1 = process_cpu();
  res.per_layer["run.peak_rss_mb"] = {peak_rss_mb(), "MB"};
  for (const auto& [name, unit] : kPerLayer) {
    if (res.per_layer.count(name) == 0) res.per_layer[name] = {0.0, unit};
  }
  for (const auto& [name, metric] : res.per_layer) {
    const bool known = std::any_of(
        std::begin(kPerLayer), std::end(kPerLayer),
        [&](const auto& e) { return name == e[0]; });
    if (!known) res.fail("per-layer metric not in the catalog: " + name);
  }
  if (res.attempted == 0) res.fail("no operation was attempted");
  for (const std::string& p : res.problems) {
    std::fprintf(stderr, "sddd_perfbench: %s: %s\n", opt.workload.c_str(),
                 p.c_str());
  }

  if (opt.trace) {
    const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream(path) << spans_to_chrome_json(Tracer::instance().spans());
  }

  // The run record: every metric plus the host facts that tell host
  // noise from a regression.
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": " << json_quote(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"seconds\": "
      << json_number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"correct\": " << (res.correct ? "true" : "false")
      << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
      << ", \"wall_s\": " << json_number(wall_s)
      << ", \"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"loadavg_start\": " << json_quote(load_start)
      << ", \"loadavg_end\": " << json_quote(loadavg())
      << ", \"cpu_user_s\": " << json_number(cpu1.user_s - cpu0.user_s)
      << ", \"cpu_sys_s\": " << json_number(cpu1.sys_s - cpu0.sys_s)
      << ", \"build_type\": " << json_quote(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_quote(PERFBENCH_COMPILER)
      << ", \"git_sha\": " << json_quote(env_or("PERFBENCH_GIT_SHA", "unknown"))
      << ", \"source_digest\": "
      << json_quote(env_or("PERFBENCH_SOURCE_DIGEST", "unknown")) << "}"
      << ", \"end_to_end\": " << metrics_json(res.end_to_end)
      << ", \"per_layer\": " << metrics_json(res.per_layer) << ", \"facts\": {";
  bool first = true;
  for (const auto& [k, v] : res.facts) {
    rec << (first ? "" : ", ") << json_quote(k) << ": " << json_number(v);
    first = false;
  }
  rec << "}, \"problems\": [";
  for (std::size_t i = 0; i < res.problems.size(); ++i) {
    rec << (i ? ", " : "") << json_quote(res.problems[i]);
  }
  rec << "]}}";
  std::ofstream(opt.work_dir + "/records.jsonl", std::ios::app)
      << rec.str() << "\n";

  std::printf("%s\n", rec.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              metrics_json(opt.trace ? res.per_layer : res.end_to_end).c_str());
  return 0;
}
