// bench_serve - Serve-path throughput: the batch diagnosis server
// answering canonical diagnose requests over its wire protocol, measured
// end to end (framing, routing, mmapped-store scoring, response render).
//
// The harness builds a dictionary store for each circuit stand-in, boots
// an in-process DiagnosisServer on a unix socket, draws a batch of
// failing chips from the instance Monte-Carlo world, and then replays the
// same diagnose request from 1 and then --clients concurrent load-gen
// threads, each following the production retry/backoff discipline
// (request_with_retry).  The headline number is chips/sec per width.
//
// Every response from every client is asserted BYTE-IDENTICAL to the
// in-process StoreQueryEngine render of the same batch - a serve run that
// returns even one divergent byte exits non-zero, so a BENCH_serve.json
// with "bit_identical": true is itself the referee's verdict that the
// socket path answers exactly what an offline `sddd_cli dict query`
// would.  Sheds and reconnects absorbed by the retry policy are counted
// per width (normally 0; nonzero means the in-flight budget was hit).
//
// Usage:
//   bench_serve [--scale S] [--samples N] [--batch N] [--clients N]
//               [--requests N] [--seed N] [--json FILE] [--git-sha SHA]
//               [circuit ...]
//
// Defaults favour a laptop-scale run: s9234 stand-in at scale 0.35, 120
// Monte-Carlo samples, 6 chips per request, 4 clients x 6 requests.
// Timings append to BENCH_history.jsonl via tools/run_benchmarks.sh
// ("bench": "serve" records carry the clients/batch shape fields).
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/iscas_catalog.h"
#include "obs/atomic_file.h"
#include "obs/ledger.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "runtime/parallel_for.h"
#include "store/client.h"
#include "store/query.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"

using namespace sddd;

namespace {

struct BenchConfig {
  double scale = 0.35;
  std::size_t mc_samples = 120;
  std::size_t batch = 6;       // chips per diagnose request
  std::size_t clients = 4;     // peak concurrent load-gen threads
  std::size_t requests = 6;    // requests per client per width
  std::uint64_t seed = 2003;
  std::vector<std::string> circuits;
};

struct WidthResult {
  std::size_t clients = 0;
  double wall_s = 0.0;
  double chips_per_s = 0.0;
  std::size_t sheds = 0;
  std::size_t reconnects = 0;
  bool identical = true;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_serve [--scale S] [--samples N] [--batch N]\n"
               "                   [--clients N] [--requests N] [--seed N]\n"
               "                   [--json FILE] [--git-sha SHA]\n"
               "                   [circuit ...]\n");
  std::exit(2);
}

/// One load-gen width: `clients` threads, each sending `requests` copies
/// of `request` and checking every response against `expected`.
WidthResult run_width(const std::string& socket_path, std::size_t clients,
                      std::size_t requests, const std::string& request,
                      const std::string& expected, std::size_t batch) {
  std::atomic<std::size_t> sheds{0};
  std::atomic<std::size_t> reconnects{0};
  std::atomic<bool> identical{true};
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      store::ServeClient client = store::ServeClient::connect(socket_path, -1);
      for (std::size_t r = 0; r < requests; ++r) {
        store::RetryStats stats;
        const std::string response = store::request_with_retry(
            client, socket_path, -1, request, store::RetryPolicy{}, &stats);
        sheds += stats.sheds;
        reconnects += stats.reconnects;
        // The scored payload inside the trace envelope is the
        // byte-identity surface; the envelope itself carries the id.
        if (store::response_payload(response) != expected) identical = false;
      }
    });
  }
  for (auto& t : threads) t.join();
  WidthResult out;
  out.clients = clients;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  out.chips_per_s = out.wall_s > 0.0
                        ? static_cast<double>(clients * requests * batch) /
                              out.wall_s
                        : 0.0;
  out.sheds = sheds;
  out.reconnects = reconnects;
  out.identical = identical;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  obs::configure_observability_from_args(&argc, argv);
  runtime::configure_threads_from_args(&argc, argv);

  BenchConfig cfg;
  const char* sha_env = std::getenv("SDDD_GIT_SHA");
  std::string git_sha = sha_env != nullptr ? sha_env : "unknown";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--scale") {
      cfg.scale = std::atof(next());
    } else if (arg == "--samples") {
      cfg.mc_samples = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--batch") {
      cfg.batch = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--clients") {
      cfg.clients = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--requests") {
      cfg.requests = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--git-sha") {
      git_sha = next();
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      cfg.circuits.push_back(arg);
    }
  }
  if (cfg.circuits.empty()) cfg.circuits.push_back("s9234");
  if (cfg.clients == 0 || cfg.requests == 0 || cfg.batch == 0) usage();

  const std::string run_id =
      obs::new_invocation_run_id("bench_serve", git_sha);
  std::printf("bench_serve: scale %.2f, %zu samples, batch %zu, "
              "%zu clients x %zu requests, run %s\n",
              cfg.scale, cfg.mc_samples, cfg.batch, cfg.clients, cfg.requests,
              run_id.c_str());

  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() /
      ("bench_serve." + std::to_string(::getpid()));
  std::filesystem::create_directories(tmp);

  bool all_identical = true;
  std::ostringstream circuits_js;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t ci = 0; ci < cfg.circuits.size(); ++ci) {
    const auto& name = cfg.circuits[ci];
    const netlist::IscasProfile* profile = netlist::find_profile(name);
    if (profile == nullptr) {
      std::fprintf(stderr, "bench_serve: unknown circuit %s\n", name.c_str());
      return 2;
    }
    const auto c0 = std::chrono::steady_clock::now();
    const auto nl = netlist::make_standin(*profile, cfg.scale, cfg.seed);

    store::StoreBuildConfig build;
    build.mc_samples = cfg.mc_samples;
    build.seed = cfg.seed;
    const std::string store_path = (tmp / (name + ".dict")).string();
    store::build_dictionary_store(nl, build, store_path);

    const store::DictionaryStore st(store_path);
    const store::StoreQueryEngine engine(st);
    const auto sampled = store::sample_failing_chips(nl, st, cfg.batch);
    if (sampled.empty()) {
      std::fprintf(stderr, "bench_serve: %s drew no failing chips\n",
                   name.c_str());
      return 1;
    }
    std::vector<store::ChipQuery> chips;
    for (std::size_t t = 0; t < sampled.size(); ++t) {
      chips.push_back(
          store::ChipQuery{"chip" + std::to_string(t), sampled[t].B});
    }
    const std::string request = store::make_diagnose_request(
        st.run_id(), "e", /*top_k=*/10, /*deadline_ms=*/0, chips);
    const std::string expected =
        store::diagnose_batch_json(engine, chips, true, 10);

    store::ServerConfig server_cfg;
    server_cfg.store_paths = {store_path};
    server_cfg.unix_socket = (tmp / (name + ".sock")).string();
    server_cfg.max_inflight = std::max<std::size_t>(cfg.clients, 4);
    server_cfg.git_sha = git_sha;
    store::DiagnosisServer server(server_cfg);
    server.start();

    std::vector<WidthResult> runs;
    for (const std::size_t width :
         std::vector<std::size_t>{1, cfg.clients}) {
      if (width != 1 && width == runs.back().clients) break;
      runs.push_back(run_width(server_cfg.unix_socket, width, cfg.requests,
                               request, expected, chips.size()));
      const auto& r = runs.back();
      all_identical = all_identical && r.identical;
      std::printf("  %s @%zu clients: %.2fs, %.1f chips/s "
                  "(%zu sheds, %zu reconnects)%s\n",
                  name.c_str(), r.clients, r.wall_s, r.chips_per_s, r.sheds,
                  r.reconnects, r.identical ? "" : "  RESPONSES DIVERGED");
    }
    // Server-reported request latency: ask the live server's `stats` op
    // (the production observability surface) before draining it.
    double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
    {
      store::ServeClient sc =
          store::ServeClient::connect(server_cfg.unix_socket, -1);
      const std::string stats_payload =
          store::response_payload(sc.request("{\"op\":\"stats\"}"));
      const store::JsonValue stats_json = store::parse_json(stats_payload);
      const store::JsonValue* window = stats_json.get("window");
      const store::JsonValue* hists =
          window != nullptr ? window->get("histograms") : nullptr;
      const store::JsonValue* hist =
          hists != nullptr ? hists->get("serve.request_us") : nullptr;
      if (hist == nullptr || hist->get_number("total") <= 0.0) {
        std::fprintf(stderr,
                     "bench_serve: stats response has no serve.request_us "
                     "latency histogram\n");
        return 1;
      }
      p50_ms = hist->get_number("p50") / 1000.0;
      p95_ms = hist->get_number("p95") / 1000.0;
      p99_ms = hist->get_number("p99") / 1000.0;
    }

    server.request_drain();
    server.wait();

    const double circuit_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
            .count();
    circuits_js << "    {\"name\": \"" << name << "\", \"seconds\": "
                << circuit_s << ",\n      \"latency_p50_ms\": " << p50_ms
                << ", \"latency_p95_ms\": " << p95_ms
                << ", \"latency_p99_ms\": " << p99_ms << ",\n"
                << "      \"runs\": [\n";
    for (std::size_t ri = 0; ri < runs.size(); ++ri) {
      const auto& r = runs[ri];
      circuits_js << "      {\"clients\": " << r.clients
                  << ", \"wall_s\": " << r.wall_s
                  << ", \"chips_per_s\": " << r.chips_per_s
                  << ", \"sheds\": " << r.sheds
                  << ", \"reconnects\": " << r.reconnects << "}"
                  << (ri + 1 < runs.size() ? "," : "") << "\n";
    }
    circuits_js << "    ]}" << (ci + 1 < cfg.circuits.size() ? "," : "")
                << "\n";
  }
  const double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Headline latency across every circuit and width: the cumulative
  // serve.request_us histogram all in-process servers recorded into (the
  // same one the serve ledger records at drain).
  double lat_p50_ms = 0.0, lat_p95_ms = 0.0, lat_p99_ms = 0.0;
  {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    const auto it = snap.histograms.find("serve.request_us");
    if (it == snap.histograms.end() || it->second.total() == 0) {
      std::fprintf(stderr,
                   "bench_serve: cumulative serve.request_us histogram is "
                   "empty\n");
      return 1;
    }
    lat_p50_ms = it->second.quantile(0.50) / 1000.0;
    lat_p95_ms = it->second.quantile(0.95) / 1000.0;
    lat_p99_ms = it->second.quantile(0.99) / 1000.0;
  }

  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"bit_identical\": " << (all_identical ? "true" : "false") << ",\n"
     << "  \"run_id\": \"" << run_id << "\",\n"
     << "  \"git_sha\": \"" << git_sha << "\",\n"
     << "  \"threads\": " << runtime::thread_count() << ",\n"
     << "  \"scale\": " << cfg.scale << ",\n"
     << "  \"samples\": " << cfg.mc_samples << ",\n"
     << "  \"clients\": " << cfg.clients << ",\n"
     << "  \"batch\": " << cfg.batch << ",\n"
     << "  \"requests\": " << cfg.requests << ",\n"
     << "  \"chips\": " << cfg.batch << ",\n"
     << "  \"latency_p50_ms\": " << lat_p50_ms << ",\n"
     << "  \"latency_p95_ms\": " << lat_p95_ms << ",\n"
     << "  \"latency_p99_ms\": " << lat_p99_ms << ",\n"
     << "  \"total_seconds\": " << total_seconds << ",\n"
     << "  \"circuits\": [\n"
     << circuits_js.str() << "  ]\n}\n";
  if (!json_path.empty()) {
    obs::atomic_write_file_or_throw(json_path, js.str());
    SDDD_LOG_INFO("timings written to %s", json_path.c_str());
  }
  std::printf("total wall time: %.2fs; bit-identical: %s\n", total_seconds,
              all_identical ? "yes" : "NO");
  std::printf("server-reported latency: p50 %.2fms, p95 %.2fms, p99 %.2fms\n",
              lat_p50_ms, lat_p95_ms, lat_p99_ms);

  if (!obs::ledger_out_path().empty()) {
    obs::LedgerRecord rec;
    rec.run_id = run_id;
    rec.tool = "bench_serve";
    rec.git_sha = git_sha;
    rec.seed = cfg.seed;
    rec.threads = runtime::thread_count();
    rec.mc_samples = cfg.mc_samples;
    rec.n_chips = cfg.batch * cfg.requests * cfg.clients;
    rec.bench = "serve";
    rec.clients = cfg.clients;
    rec.batch = cfg.batch;
    rec.wall_seconds = total_seconds;
    for (const auto& name : cfg.circuits) {
      if (!rec.circuit.empty()) rec.circuit.push_back(',');
      rec.circuit += name;
    }
    rec.phases["latency_p50_ms"] = lat_p50_ms;
    rec.phases["latency_p95_ms"] = lat_p95_ms;
    rec.phases["latency_p99_ms"] = lat_p99_ms;
    rec.result_path = json_path;
    if (obs::append_ledger_record(obs::ledger_out_path(), rec)) {
      SDDD_LOG_INFO("ledger: appended run %s to %s", rec.run_id.c_str(),
                    obs::ledger_out_path().c_str());
    }
  }
  std::filesystem::remove_all(tmp);
  return all_identical ? 0 : 1;
}
