// bench_table1 - Regenerates the paper's Table I ("Diagnosis Accuracy on
// Benchmark Examples"): success rate of Alg_sim Methods I/II (plus the
// text-only Method III) and Alg_rev at the paper's per-circuit K values,
// over N = 20 statistically injected failing chips per circuit.
//
// Circuits are ISCAS-89-class stand-ins (see DESIGN.md substitution table);
// drop real `.bench` files into a directory and pass --bench-dir to use
// them instead.
//
// Usage:
//   bench_table1 [--scale S] [--samples N] [--chips N] [--seed N]
//                [--threads N] [--bench-dir DIR] [--csv FILE]
//                [--json FILE] [--git-sha SHA] [--lint] [circuit ...]
//
// --lint runs the static-analysis preflight (netlist + statistical-model
// rule packs) on every circuit and aborts on error-severity findings.
// --git-sha (or the SDDD_GIT_SHA environment variable) stamps the JSON
// record so the perf trajectory is attributable across PRs.
//
// Defaults favour a laptop-scale run (scale 0.35, 200 Monte-Carlo samples,
// ~2-4 minutes); --scale 1.0 --samples 400 reproduces the full-size setup.
// --threads 0 uses every hardware thread; results (table, CSV) are
// bit-identical for any thread count.  Wall-clock timings are written to
// BENCH_table1.json (override with --json FILE, disable with --json '')
// so the perf trajectory is tracked PR over PR.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "eval/table1.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "runtime/parallel_for.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: bench_table1 [--scale S] [--samples N] [--chips N]\n"
               "                    [--seed N] [--threads N] [--bench-dir DIR]\n"
               "                    [--csv FILE] [--json FILE] [circuit ...]\n"
               "%s",
               sddd::obs::observability_usage());
}

}  // namespace

int main(int argc, char** argv) {
  sddd::obs::configure_observability_from_args(&argc, argv);
  sddd::eval::Table1Config config;
  config.scale = 0.35;
  config.base.mc_samples = 200;
  config.base.n_chips = 20;
  std::string csv_path;
  std::string json_path = "BENCH_table1.json";
  const char* sha_env = std::getenv("SDDD_GIT_SHA");
  std::string git_sha = sha_env != nullptr ? sha_env : "unknown";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      config.scale = std::atof(next());
    } else if (arg == "--samples") {
      config.base.mc_samples = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--chips") {
      config.base.n_chips = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--seed") {
      config.base.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--bench-dir") {
      config.bench_dir = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--git-sha") {
      git_sha = next();
    } else if (arg == "--lint") {
      config.lint_preflight = true;
    } else if (arg == "--threads") {
      sddd::runtime::set_thread_count(
          static_cast<std::size_t>(std::atoi(next())));
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
      return 2;
    } else {
      config.circuits.push_back(arg);
    }
  }

  // One id per invocation: stamped into the JSON artifact, the ledger
  // record and the flight recorder, so a stale BENCH_table1.json can be
  // told apart from a fresh one.
  const std::string run_id =
      sddd::obs::new_invocation_run_id("bench_table1", git_sha);
  sddd::obs::Recorder::instance().set_run_id(run_id);

  SDDD_LOG_INFO("== Table I reproduction ==");
  SDDD_LOG_INFO("scale=%.2f samples=%zu chips=%zu seed=%llu threads=%zu",
                config.scale, config.base.mc_samples, config.base.n_chips,
                static_cast<unsigned long long>(config.base.seed),
                sddd::runtime::thread_count());

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = sddd::eval::run_table1(config);
  const double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("%s\n", result.to_string().c_str());

  std::printf("per-circuit experiment statistics:\n");
  for (const auto& exp : result.experiments) {
    std::printf(
        "  %-8s clk=%8.1f tu  diagnosable=%zu/%zu  avg |S|=%5.1f  "
        "avg injection attempts=%5.1f  wall=%6.2fs\n",
        exp.circuit_name.c_str(), exp.clk, exp.diagnosable_trials(),
        exp.trials.size(), exp.avg_suspects(), exp.avg_injection_attempts(),
        exp.wall_seconds);
  }
  std::printf("total wall time: %.2fs at %zu thread(s)\n", total_seconds,
              sddd::runtime::thread_count());

  if (!json_path.empty() &&
      sddd::eval::write_table1_json_file(json_path, config, result,
                                         total_seconds, git_sha, run_id)) {
    SDDD_LOG_INFO("timings written to %s", json_path.c_str());
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << result.to_csv();
    SDDD_LOG_INFO("csv written to %s", csv_path.c_str());
  }

  if (!sddd::obs::ledger_out_path().empty()) {
    sddd::obs::LedgerRecord rec;
    rec.run_id = run_id;
    rec.tool = "bench_table1";
    rec.git_sha = git_sha;
    rec.seed = config.base.seed;
    rec.threads = sddd::runtime::thread_count();
    rec.mc_samples = config.base.mc_samples;
    rec.n_chips = config.base.n_chips;
    rec.wall_seconds = total_seconds;
    for (const auto& exp : result.experiments) {
      if (!rec.circuit.empty()) rec.circuit.push_back(',');
      rec.circuit += exp.circuit_name;
      rec.phases["setup_s"] += exp.phases.setup_seconds;
      rec.phases["calibration_s"] += exp.phases.calibration_seconds;
      rec.phases["trials_s"] += exp.phases.trials_seconds;
      rec.phases["dict_build_cpu_s"] += exp.phases.dict_build_cpu_seconds;
      rec.phases["score_cpu_s"] += exp.phases.score_cpu_seconds;
    }
    rec.result_path = json_path;
    if (sddd::obs::append_ledger_record(sddd::obs::ledger_out_path(), rec)) {
      SDDD_LOG_INFO("ledger: appended run %s to %s", rec.run_id.c_str(),
                    sddd::obs::ledger_out_path().c_str());
    }
  }
  return 0;
}
