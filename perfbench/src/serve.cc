// serve.cc - The serve_steady workload: one prebuilt SDDDICT1 store (the
// s9234 stand-in) answered by an in-process store::DiagnosisServer over
// its unix-socket wire protocol, driven open loop by seeded Poisson
// arrivals of 6-chip diagnose requests over 4 client connections.
// Scoring and store reads dominate the latency.  The store is built with
// a 2-thread runtime pool; requests are scored with a 1-thread pool, so
// each connection scores its own request (see kServeThreads).
//
// A run:
//   1. set-up, three times: build the store, start a server on it and
//      wait for the first answered request (a health op); the last
//      server stays up;
//   2. input preparation (not timed): open the store in-process, draw a
//      pool of failing chips with store::sample_failing_chips and render
//      the requests, each 6 distinct pool chips chosen from --seed;
//   3. the nominal phase: after a 2 s warm-up at the same rate,
//      --seconds of Poisson arrivals at 100 req/s; every request is
//      timed from its due time;
//   4. saturation: the 4 connections send back to back (closed loop) for
//      3 s; the median over 0.25 s windows of completed requests per
//      second is ops_per_s;
//   5. the fixed rate ladder, each rung a short Poisson run, climbed while
//      a rung meets the p90 limit without backlog (serve.max_rps);
//   6. verification: every served payload must equal the in-process
//      store::diagnose_batch_json render of the same request.
// With --trace 1 the run also records spans around the set-up calls and
// every request, reads the server's per-phase latencies through its
// public "stats" op, and times each request's in-process parse, query and
// render.
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "atpg/diag_patterns.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "obs/atomic_file.h"
#include "report.h"
#include "runtime/parallel_for.h"
#include "stats.h"
#include "stats/rng.h"
#include "stats/sample_vector.h"
#include "store/client.h"
#include "store/query.h"
#include "store/server.h"
#include "store/store.h"
#include "store/wire.h"
#include "timing/delay_model.h"
#include "trace.h"

namespace perfbench {

using namespace sddd;

namespace {

constexpr const char* kCircuit = "s9234";
constexpr double kScale = 0.35;
constexpr std::uint64_t kStandinSeed = 2003;
// The store is the fixed artifact under test, built at the program's
// default seed; --seed draws the requests and their arrival times.
constexpr std::uint64_t kStoreSeed = 2003;
constexpr std::size_t kSamples = 120;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kChipsPerRequest = 6;
constexpr std::size_t kPoolChips = 96;
// A third of the closed-loop capacity (ops_per_s, ~300 req/s here).  At
// 150 req/s a slower host stretched p90 more (19-35 ms over five runs).
constexpr double kNominalRate = 100.0;  // requests/s
// Untimed traffic at the nominal rate before the nominal phase: the
// server's first touches of its store mapping happen here.
constexpr double kWarmupSeconds = 2.0;
constexpr double kSaturationSeconds = 3.0;
constexpr double kLadder[] = {100.0, 150.0, 200.0, 250.0, 300.0, 350.0};
constexpr double kRungSeconds = 1.0;
constexpr int kSetupReps = 3;
// Runtime pool width for set-up (the store build), input preparation
// (expected renders, not timed) and serving.  StoreQueryEngine::diagnose
// forks and joins the pool once per pattern, hundreds of times per
// request, so at 2 threads a request's latency followed how fast the host
// woke the pool's workers: p50 read 12-25 ms and p90 17-44 ms between runs
// of the same code.  At 1 thread each connection thread scores its own
// request with no wake-ups inside it; p50 is about the same and follows
// CPU speed only.  Concurrency comes from the 4 connections.
constexpr std::size_t kBuildThreads = 2;
constexpr std::size_t kPrepThreads = 4;
constexpr std::size_t kServeThreads = 1;
// A connection thread sleeps until this long before a request is due and
// spins the rest, so a late timer wake-up does not delay the send.
constexpr double kSpinSeconds = 1e-3;
// The server's threads run this much nicer than the load generator's.
// Without it, on a busy host a generator thread whose request fell due
// waited behind scoring threads for a scheduler slice, and the nominal
// phase's generator lateness reached a p90 of 2.0 ms even with the spin.
// The generator needs little CPU, so this costs the server almost none.
constexpr int kServerNice = 5;
// Generator lateness (p90) above which a rung says nothing about the
// server and is marked invalid.
constexpr double kGenLateLimitMs = 2.0;
const LadderRule kLadderRule = {60.0, kGenLateLimitMs, 0.25};

struct Request {
  std::vector<std::size_t> chips;  ///< indices into the chip pool
  std::string frame;               ///< wire request
  std::string expected;            ///< in-process render
};

struct Outcome {
  double due_s = 0.0;
  double picked_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  bool ok = false;
  bool mismatch = false;
  bool shed = false;
  bool reconnected = false;
  std::size_t request = 0;
  std::size_t response_bytes = 0;
};

std::vector<store::ChipQuery> chip_queries(
    const std::vector<store::SampledChip>& pool,
    const std::vector<std::size_t>& idx) {
  std::vector<store::ChipQuery> out;
  for (const std::size_t i : idx) {
    std::string id = "c";
    id += std::to_string(i);
    out.push_back({std::move(id), pool[i].B});
  }
  return out;
}

/// Sends requests[order[i] ] at due[i] over kConnections connections and
/// returns one outcome per scheduled request.
std::vector<Outcome> run_open_loop(const std::string& socket,
                                   const std::vector<Request>& requests,
                                   const std::vector<std::size_t>& order,
                                   const std::vector<double>& due) {
  std::vector<Outcome> out(due.size());
  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const auto now_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  std::vector<std::jthread> threads;  // joined on every exit path
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      std::optional<store::ServeClient> client;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= due.size()) break;
        Outcome& o = out[i];
        o.request = order[i];
        o.due_s = due[i];
        o.picked_s = now_s();
        std::this_thread::sleep_until(at(due[i] - kSpinSeconds));
        while (std::chrono::steady_clock::now() < at(due[i])) {
        }
        const Request& req = requests[order[i]];
        Span span("serve.request", i, 0);
        o.send_s = now_s();
        try {
          if (!client) {
            Span s("wire.connect", i);
            client.emplace(store::ServeClient::connect(socket, -1));
          }
          std::string response;
          {
            Span s("wire.request", i);
            response = client->request(req.frame);
          }
          o.done_s = now_s();
          Span s("serve.check", i);
          const std::string payload = store::response_payload(response);
          o.response_bytes = response.size();
          if (payload == req.expected) {
            o.ok = true;
          } else if (payload.find("\"error\":\"overloaded\"") !=
                     std::string::npos) {
            o.shed = true;
          } else {
            o.mismatch = true;
          }
        } catch (const std::exception&) {
          o.done_s = now_s();
          o.reconnected = true;
          client.reset();
        }
      }
    });
  }
  threads.clear();  // joins
  return out;
}

// Saturation throughput is the median over windows of this length, so a
// short scheduler stall moves one window, not the result.
constexpr double kWindowSeconds = 0.25;

struct ClosedLoopStats {
  std::size_t completed = 0;  ///< answered with the expected payload
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< sorted
  std::vector<double> window_rps;  ///< completions per second, per window
};

/// kConnections clients sending back to back for `seconds`, cycling
/// through the request list from `offset`.
ClosedLoopStats run_closed_loop(const std::string& socket,
                                const std::vector<Request>& requests,
                                std::size_t offset, double seconds) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::uint64_t> last_done{0};
  std::mutex lat_mu;
  std::vector<double> latency_ms;
  const auto n_windows =
      static_cast<std::size_t>(std::floor(seconds / kWindowSeconds));
  std::vector<std::atomic<std::size_t>> window_done(n_windows);
  const std::uint64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::jthread> threads;  // joined on every exit path
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      std::optional<store::ServeClient> client;
      std::vector<double> lat;
      while (now_ns() < end) {
        const Request& req =
            requests[(offset + next.fetch_add(1)) % requests.size()];
        const std::uint64_t sent = now_ns();
        try {
          if (!client) client.emplace(store::ServeClient::connect(socket, -1));
          const std::string payload =
              store::response_payload(client->request(req.frame));
          if (payload == req.expected) {
            ++completed;
            const auto w = static_cast<std::size_t>(
                static_cast<double>(now_ns() - t0) * 1e-9 / kWindowSeconds);
            if (w < n_windows) ++window_done[w];
          } else {
            ++failed;
            if (payload.find("\"error\":\"overloaded\"") == std::string::npos) {
              ++mismatches;
            }
          }
        } catch (const std::exception&) {
          ++failed;
          client.reset();
        }
        std::uint64_t done = now_ns();
        lat.push_back(static_cast<double>(done - sent) * 1e-6);
        std::uint64_t seen = last_done.load();
        while (done > seen && !last_done.compare_exchange_weak(seen, done)) {
        }
      }
      const std::lock_guard<std::mutex> lock(lat_mu);
      latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    });
  }
  threads.clear();  // joins
  ClosedLoopStats out;
  out.completed = completed;
  out.failed = failed;
  out.mismatches = mismatches;
  out.wall_s = static_cast<double>(last_done.load() - t0) * 1e-9;
  out.latency_ms = std::move(latency_ms);
  for (const auto& w : window_done) {
    out.window_rps.push_back(static_cast<double>(w.load()) / kWindowSeconds);
  }
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  return out;
}

struct PhaseStats {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  std::size_t sheds = 0;
  std::size_t reconnects = 0;
  std::vector<double> latency_ms;  ///< sorted; failures sort last
  std::vector<double> gen_late_ms;  ///< sorted
  double finish_late_s = 0.0;
  double response_bytes = 0.0;
};

PhaseStats summarize(const std::vector<Outcome>& outcomes) {
  PhaseStats p;
  double last_due = 0.0;
  double last_done = 0.0;
  for (const Outcome& o : outcomes) {
    ++p.attempted;
    p.mismatches += o.mismatch ? 1 : 0;
    p.sheds += o.shed ? 1 : 0;
    p.reconnects += o.reconnected ? 1 : 0;
    if (!o.ok) ++p.failed;
    // A failed request misses every latency limit.
    p.latency_ms.push_back(o.ok ? (o.done_s - o.due_s) * 1e3
                                : std::numeric_limits<double>::max());
    p.gen_late_ms.push_back(
        std::max(0.0, o.send_s - std::max(o.due_s, o.picked_s)) * 1e3);
    last_due = std::max(last_due, o.due_s);
    last_done = std::max(last_done, o.done_s);
    p.response_bytes += static_cast<double>(o.response_bytes);
  }
  std::sort(p.latency_ms.begin(), p.latency_ms.end());
  std::sort(p.gen_late_ms.begin(), p.gen_late_ms.end());
  p.finish_late_s = last_done - last_due;
  p.response_bytes /= static_cast<double>(std::max<std::size_t>(1, p.attempted));
  return p;
}

/// Starts `server` from a helper thread at nice +kServerNice.  Linux nice
/// values are per thread and inherited by new threads, so the server's
/// accept and connection threads run nicer while the benchmark's own
/// threads keep their priority.
void start_server_nicer(store::DiagnosisServer& server) {
  std::exception_ptr error;
  std::thread([&] {
    const auto tid = static_cast<id_t>(::syscall(SYS_gettid));
    errno = 0;
    const int nice = ::getpriority(PRIO_PROCESS, tid);
    if (errno != 0 ||
        ::setpriority(PRIO_PROCESS, tid, nice + kServerNice) != 0) {
      error = std::make_exception_ptr(
          std::runtime_error("cannot lower the server threads' priority"));
      return;
    }
    try {
      server.start();
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
}

/// The first healthy round trip on a fresh server: the end of set-up.
void first_request(const std::string& socket) {
  store::ServeClient c = store::ServeClient::connect(socket, -1);
  const std::string payload =
      store::response_payload(c.request("{\"op\":\"health\"}"));
  if (payload.find("\"ok\":true") == std::string::npos) {
    throw std::runtime_error("server health check failed: " + payload);
  }
}

/// The store's clk calibration replayed through the public ATPG calls
/// (what serialize_dictionary_store runs first).
double replay_store_calibration(const netlist::Netlist& nl,
                                const store::StoreBuildConfig& cfg) {
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib(cfg.library);
  const timing::ArcDelayModel model(nl, lib);
  const atpg::DiagnosticPatternConfig pattern_config;
  stats::Rng rng(cfg.seed, 0xca1bULL);
  std::vector<double> delays;
  for (std::size_t s = 0; s < cfg.calibration_sites; ++s) {
    const auto site = static_cast<netlist::ArcId>(
        rng.below(static_cast<std::uint32_t>(nl.arc_count())));
    const auto patterns =
        atpg::generate_diagnostic_patterns(model, lev, site, pattern_config,
                                           rng);
    const double d = atpg::site_best_nominal_delay(model, lev, patterns, site);
    if (d > 0.0) delays.push_back(d);
  }
  return stats::SampleVector(std::move(delays))
      .quantile(cfg.clk_site_quantile);
}

double p50_of(const store::JsonValue* hists, const char* name) {
  const store::JsonValue* h = hists != nullptr ? hists->get(name) : nullptr;
  return h != nullptr ? h->get_number("p50") : 0.0;
}

}  // namespace

RunResult run_serve_steady(const RunOptions& opt) {
  RunResult res;
  runtime::set_thread_count(kBuildThreads);
  std::filesystem::create_directories(opt.work_dir);
  const std::string tag = "serve_steady." + std::to_string(::getpid());
  const std::string socket = opt.work_dir + "/" + tag + ".sock";
  const std::string path = opt.work_dir + "/" + tag + ".dict";

  store::StoreBuildConfig build;
  build.mc_samples = kSamples;
  build.seed = kStoreSeed;

  // 1. Set-up, repeated; the last server keeps serving.
  std::vector<double> setup_s;
  std::optional<netlist::Netlist> nl;
  std::unique_ptr<store::DiagnosisServer> server;
  double serialize_s = 0.0;
  double write_s = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) {
      server->request_drain();
      server->wait();
      server.reset();
    }
    const bool traced = opt.trace && rep == kSetupReps - 1;
    Tracer::instance().enable(traced);
    {
      Span setup_span("serve.setup", static_cast<std::uint64_t>(rep), 0);
      const std::uint64_t t0 = now_ns();
      {
        Span n("netlist.standin");
        nl.emplace(netlist::make_standin(*netlist::find_profile(kCircuit),
                                         kScale, kStandinSeed));
      }
      if (traced) {
        // build_dictionary_store split into its two public steps.
        std::string bytes;
        {
          Span sp("store.serialize");
          const std::uint64_t a = now_ns();
          bytes = store::serialize_dictionary_store(*nl, build);
          serialize_s = since_s(a);
        }
        Span sp("store.write");
        const std::uint64_t a = now_ns();
        obs::atomic_write_file_or_throw(path, bytes);
        write_s = since_s(a);
      } else {
        store::build_dictionary_store(*nl, build, path);
      }
      store::ServerConfig cfg;
      cfg.store_paths = {path};
      cfg.unix_socket = socket;
      cfg.max_inflight = kConnections;
      cfg.default_top_k = kTopK;
      {
        Span sp("serve.start");
        server = std::make_unique<store::DiagnosisServer>(cfg);
        start_server_nicer(*server);
      }
      {
        Span sp("wire.first_request");
        first_request(socket);
      }
      setup_s.push_back(since_s(t0));
    }
    Tracer::instance().enable(false);
  }
  res.end_to_end["setup_peak_rss_mb"] = {peak_rss_mb(), "MB"};
  for (const store::StoreState& st : server->store_states()) {
    if (st.quarantined) res.fail("store quarantined at open: " + st.error);
  }
  const double store_bytes = static_cast<double>(std::filesystem::file_size(path));

  // 2. Input preparation: in-process store, chip pool, requests.
  const std::uint64_t prep0 = now_ns();
  const std::uint64_t open0 = now_ns();
  const store::DictionaryStore st(path);
  const double open_s = since_s(open0);
  const store::StoreQueryEngine engine(st);
  const std::vector<store::SampledChip> pool =
      store::sample_failing_chips(*nl, st, kPoolChips);
  if (pool.size() < kChipsPerRequest) {
    res.fail("too few failing chips in the pool");
    return res;
  }
  const auto n_nominal =
      static_cast<std::size_t>(std::ceil(kNominalRate * opt.seconds));
  const std::uint64_t chip_seed = derive_seed(opt.seed, 0xc41b);
  std::vector<Request> requests(n_nominal);
  for (std::size_t i = 0; i < n_nominal; ++i) {
    Request& r = requests[i];
    r.chips = choose_distinct(chip_seed, i, pool.size(), kChipsPerRequest);
    r.frame = store::make_diagnose_request(kCircuit, "e", kTopK, 0,
                                           chip_queries(pool, r.chips));
  }
  // Expected payloads: the in-process render of every request.
  runtime::set_thread_count(kPrepThreads);
  runtime::parallel_for(requests.size(), [&](std::size_t i) {
    Request& r = requests[i];
    r.expected = store::diagnose_batch_json(
        engine, chip_queries(pool, requests[i].chips), true, kTopK);
  });

  res.facts["serve.prep_s"] = since_s(prep0);
  // 3. Nominal phase; from here on the server and the in-process
  // per-layer timings score at the serving pool width.
  runtime::set_thread_count(kServeThreads);
  const auto n_warm =
      static_cast<std::size_t>(std::ceil(kNominalRate * kWarmupSeconds));
  std::vector<std::size_t> warm_order(n_warm);
  for (std::size_t i = 0; i < n_warm; ++i) warm_order[i] = i % n_nominal;
  const PhaseStats warm = summarize(run_open_loop(
      socket, requests, warm_order,
      poisson_schedule(derive_seed(opt.seed, 0x3a4), kNominalRate, n_warm)));
  Tracer::instance().enable(opt.trace);
  std::vector<std::size_t> order(n_nominal);
  for (std::size_t i = 0; i < n_nominal; ++i) order[i] = i;
  const std::vector<double> due = poisson_schedule(
      derive_seed(opt.seed, 0xd0e), kNominalRate, n_nominal);
  const std::vector<Outcome> nominal =
      run_open_loop(socket, requests, order, due);
  Tracer::instance().enable(false);
  const PhaseStats nom = summarize(nominal);

  // Server-side phase latencies of the nominal phase, through the
  // public stats op (rolling window: read before the ladder adds to it).
  double phase_us[5] = {0, 0, 0, 0, 0};
  {
    store::ServeClient c = store::ServeClient::connect(socket, -1);
    const store::JsonValue stats =
        store::parse_json(store::response_payload(c.request("{\"op\":\"stats\"}")));
    const store::JsonValue* window = stats.get("window");
    const store::JsonValue* hists =
        window != nullptr ? window->get("histograms") : nullptr;
    const char* names[5] = {"serve.phase.parse_us", "serve.phase.queue_us",
                            "serve.phase.score_us", "serve.phase.render_us",
                            "serve.phase.write_us"};
    for (int k = 0; k < 5; ++k) phase_us[k] = p50_of(hists, names[k]);
  }

  // 4. Saturation.
  const ClosedLoopStats sat = run_closed_loop(
      socket, requests,
      static_cast<std::size_t>(derive_seed(opt.seed, 0x5a7) % n_nominal),
      kSaturationSeconds);

  // 5. Rate ladder; rung k replays the request list from a seeded offset.
  std::vector<Rung> rungs;
  std::size_t ladder_attempted = 0;
  std::size_t ladder_failed = 0;
  std::size_t ladder_mismatches = 0;
  std::size_t invalid_rungs = 0;
  for (std::size_t k = 0; k < std::size(kLadder); ++k) {
    const double rate = kLadder[k];
    const auto n = static_cast<std::size_t>(std::ceil(rate * kRungSeconds));
    std::vector<std::size_t> rung_order(n);
    const std::size_t offset =
        static_cast<std::size_t>(derive_seed(opt.seed, 0x1add + k) % n_nominal);
    for (std::size_t i = 0; i < n; ++i) {
      rung_order[i] = (offset + i) % n_nominal;
    }
    const std::vector<double> rung_due =
        poisson_schedule(derive_seed(opt.seed, 0x2add + k), rate, n);
    const PhaseStats p =
        summarize(run_open_loop(socket, requests, rung_order, rung_due));
    ladder_attempted += p.attempted;
    ladder_mismatches += p.mismatches;
    Rung r;
    r.rate = rate;
    r.attempted = p.attempted;
    r.failed = p.failed;
    r.p90_ms = percentile_sorted(p.latency_ms, 90);
    r.gen_late_p90_ms = percentile_sorted(p.gen_late_ms, 90);
    r.finish_late_s = p.finish_late_s;
    if (!rung_valid(r, kLadderRule)) ++invalid_rungs;
    // Sheds and errors past the limit are the ladder's signal, not a
    // wrong answer; a mismatch is always wrong.
    const bool passes = rung_passes(r, kLadderRule);
    if (passes) ladder_failed += p.failed;
    rungs.push_back(r);
    if (!passes) break;
  }
  const double max_rate = max_passing_rate(rungs, kLadderRule);

  // Server stays up until here; drain it.
  server->request_drain();
  server->wait();
  server.reset();

  // 5. Accounting and correctness.
  const std::size_t mismatches =
      warm.mismatches + nom.mismatches + sat.mismatches + ladder_mismatches;
  res.attempted = warm.attempted + nom.attempted + sat.completed + sat.failed +
                  ladder_attempted;
  res.failed = warm.failed + nom.failed + sat.failed + ladder_failed;
  if (mismatches > 0) {
    res.fail(std::to_string(mismatches) +
             " served payloads differ from the in-process render");
  }
  if (sat.failed > 0) {
    res.fail(std::to_string(sat.failed) + " saturation-phase requests failed");
  }
  if (warm.failed > 0) {
    res.fail(std::to_string(warm.failed) + " warm-up requests failed");
  }
  if (nom.failed > 0) {
    res.fail(std::to_string(nom.failed) + " nominal-phase requests failed");
  }
  if (!percentile_supported(nom.attempted, 90.0)) {
    res.fail("too few nominal requests to state a p90");
  }
  if (percentile_sorted(nom.gen_late_ms, 90) > kGenLateLimitMs) {
    res.fail("load generator ran late in the nominal phase");
  }

  // Top-K hits of the injected arc in the served rankings.
  std::size_t hit_pairs = 0;
  std::size_t hits = 0;
  for (const Outcome& o : nominal) {
    if (!o.ok) continue;
    const Request& r = requests[o.request];
    const store::JsonValue doc = store::parse_json(r.expected);
    const store::JsonValue* chips = doc.get("chips");
    for (std::size_t c = 0; chips != nullptr && c < chips->array.size(); ++c) {
      const auto arc = pool[r.chips[c]].chip.defect_arc;
      const store::JsonValue* methods = chips->array[c].get("methods");
      for (const char* m : {"Alg_sim-I", "Alg_sim-II", "Alg_rev"}) {
        const store::JsonValue* list =
            methods != nullptr ? methods->get(m) : nullptr;
        if (list == nullptr) continue;
        ++hit_pairs;
        for (const store::JsonValue& e : list->array) {
          if (static_cast<netlist::ArcId>(e.get_number("arc")) == arc) {
            ++hits;
            break;
          }
        }
      }
    }
  }

  res.end_to_end["setup_s"] = {median(setup_s), "s"};
  res.end_to_end["ops_per_s"] = {median(sat.window_rps), "1/s"};
  res.end_to_end["op_p50_ms"] = {percentile_sorted(nom.latency_ms, 50), "ms"};

  // Per-layer: in-process parse / query / render of an evenly spaced
  // sample of the nominal requests (traced runs only), set against the
  // client latency of the same requests.
  auto& L = res.per_layer;
  const SpanTotals spans = summarize_spans(Tracer::instance().spans());
  if (opt.trace) {
    std::vector<double> query_ms;
    std::vector<double> render_ms;
    std::vector<double> overhead_ms;
    const std::size_t stride = std::max<std::size_t>(1, nominal.size() / 300);
    for (std::size_t n = 0; n < nominal.size(); n += stride) {
      const Outcome& o = nominal[n];
      const Request& r = requests[o.request];
      const std::uint64_t a = now_ns();
      (void)store::parse_json(r.frame);
      const double parse_ms = static_cast<double>(now_ns() - a) * 1e-6;
      const auto chips = chip_queries(pool, r.chips);
      const std::vector<diagnosis::Method> methods = {
          diagnosis::Method::kSimI, diagnosis::Method::kSimII,
          diagnosis::Method::kSimIII, diagnosis::Method::kRev};
      double q_ms = 0.0;
      for (const auto& chip : chips) {
        const std::uint64_t b = now_ns();
        (void)engine.diagnose(chip.B, methods, true, true);
        const double ms = static_cast<double>(now_ns() - b) * 1e-6;
        query_ms.push_back(ms);
        q_ms += ms;
      }
      const std::uint64_t c = now_ns();
      const std::string rendered =
          store::diagnose_batch_json(engine, chips, true, kTopK);
      const double batch_ms = static_cast<double>(now_ns() - c) * 1e-6;
      if (rendered != r.expected) res.fail("in-process render not stable");
      render_ms.push_back(std::max(0.0, batch_ms - q_ms));
      if (o.ok) {
        overhead_ms.push_back((o.done_s - o.send_s) * 1e3 -
                              (parse_ms + batch_ms));
      }
    }
    L["store.query_ms"] = {median(query_ms), "ms"};
    L["store.render_ms"] = {median(render_ms), "ms"};
    L["serve.overhead_ms"] = {median(overhead_ms), "ms"};
  } else {
    L["store.query_ms"] = {0.0, "ms"};
    L["store.render_ms"] = {0.0, "ms"};
    L["serve.overhead_ms"] = {0.0, "ms"};
  }
  L["store.serialize_s"] = {serialize_s, "s"};
  L["store.write_s"] = {write_s, "s"};
  L["store.open_s"] = {open_s, "s"};
  L["store.bytes"] = {store_bytes, "bytes"};
  L["serve.phase.parse_us"] = {phase_us[0], "us"};
  L["serve.phase.queue_us"] = {phase_us[1], "us"};
  L["serve.phase.score_us"] = {phase_us[2], "us"};
  L["serve.phase.render_us"] = {phase_us[3], "us"};
  L["serve.phase.write_us"] = {phase_us[4], "us"};
  double request_bytes = 0.0;
  for (const Outcome& o : nominal) {
    request_bytes += static_cast<double>(requests[o.request].frame.size());
  }
  L["wire.request_bytes"] = {request_bytes / static_cast<double>(nom.attempted),
                             "bytes"};
  L["wire.response_bytes"] = {nom.response_bytes, "bytes"};
  L["serve.gen_late_ms"] = {percentile_sorted(nom.gen_late_ms, 90), "ms"};
  L["serve.p90_ms"] = {percentile_sorted(nom.latency_ms, 90), "ms"};
  L["serve.p99_ms"] = {percentile_sorted(nom.latency_ms, 99), "ms"};
  L["serve.sheds"] = {static_cast<double>(nom.sheds), "count"};
  L["serve.reconnects"] = {static_cast<double>(nom.reconnects), "count"};
  L["serve.mismatches"] = {
      static_cast<double>(mismatches), "count"};
  L["diagnosis.topk_hit_rate"] = {
      hit_pairs == 0 ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(hit_pairs),
      "fraction"};
  L["serve.max_rps"] = {max_rate, "1/s"};
  L["serve.invalid_rungs"] = {static_cast<double>(invalid_rungs), "count"};
  L["trace.coverage"] = {spans.coverage, "fraction"};
  // The last set-up ran traced; the earlier ones did the same work
  // untraced.
  L["trace.overhead"] = {
      opt.trace ? setup_s.back() / median({setup_s.begin(), setup_s.end() - 1})
                : 0.0,
      "ratio"};

  if (opt.trace) {
    // The store's calibration, replayed through the public ATPG calls;
    // its clk must equal the store's.
    const std::uint64_t a = now_ns();
    const double clk = replay_store_calibration(*nl, build);
    L["atpg.calibration_s"] = {since_s(a), "s"};
    if (clk != st.clk()) res.fail("store calibration replay clk differs");
  }

  res.facts["serve.nominal_rate"] = kNominalRate;
  res.facts["saturation.p50_ms"] = percentile_sorted(sat.latency_ms, 50);
  res.facts["saturation.p99_ms"] = percentile_sorted(sat.latency_ms, 99);
  res.facts["saturation.max_ms"] = sat.latency_ms.back();
  res.facts["saturation.wall_s"] = sat.wall_s;
  res.facts["saturation.mean_rps"] =
      static_cast<double>(sat.completed) / sat.wall_s;
  // Spread of the windows behind ops_per_s: how steady one run was.
  res.facts["saturation.window_spread"] = relative_iqr(sat.window_rps);
  res.facts["serve.nominal_requests"] = static_cast<double>(nom.attempted);
  res.facts["serve.rungs_run"] = static_cast<double>(rungs.size());
  res.facts["serve.tail_percentile"] =
      highest_supported_percentile(nom.attempted);
  for (const Rung& r : rungs) {
    res.facts["rung." + std::to_string(static_cast<int>(r.rate)) + ".p90_ms"] =
        r.p90_ms;
    res.facts["rung." + std::to_string(static_cast<int>(r.rate)) +
              ".gen_late_ms"] = r.gen_late_p90_ms;
    res.facts["rung." + std::to_string(static_cast<int>(r.rate)) +
              ".finish_late_s"] = r.finish_late_s;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(socket);
  return res;
}

}  // namespace perfbench
