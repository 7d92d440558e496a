// offline.cc - The offline_table1 workload: the paper's Table-I loop
// (inject, generate diagnostic patterns, observe, diagnose) on the s5378
// and s9234 stand-ins, through eval::run_diagnosis_experiment.
//
// A run has three parts:
//   1. set-up, three times: build both stand-ins and make one zero-chip
//      experiment call per circuit (model, fields, clk calibration);
//   2. the product path: run_diagnosis_experiment over the fixed work set
//      (ROUNDS rounds x both circuits x CHIPS chips, one experiment seed
//      per (round, circuit) derived from --seed), repeated until --seconds
//      have passed;
//   3. a replay of the work set's trials (the first two rounds untraced,
//      every round with --trace 1) through the layers' public
//      calls (DefectInjector::draw, generate_diagnostic_patterns,
//      site_best_nominal_delay, observe_behavior[_multi],
//      Diagnoser::diagnose, LogicBaselineDiagnoser::diagnose) with the
//      experiment's own seeds and parameters.  Its trial records must equal
//      the experiment's, or the run fails.  The replay times every draw
//      (the workload's unit operation); with --trace 1 it also records a
//      span around every layer call.
#include <memory>
#include <optional>

#include "defect/defect_model.h"
#include "defect/injector.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/logic_baseline.h"
#include "diagnosis/signature_matrix.h"
#include "eval/experiment.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "obs/metrics.h"
#include "report.h"
#include "runtime/parallel_for.h"
#include "stats/rng.h"
#include "stats/rv.h"
#include "stats/sample_vector.h"
#include "stats.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"
#include "trace.h"

namespace perfbench {

using namespace sddd;

namespace {

constexpr const char* kCircuits[] = {"s5378", "s9234"};
constexpr double kScale = 0.35;
constexpr std::uint64_t kStandinSeed = 2003;  // the catalog's stand-ins
constexpr std::size_t kSamples = 120;
constexpr std::size_t kRounds = 4;
constexpr std::size_t kChips = 4;
constexpr std::size_t kUntracedReplayRounds = 2;
constexpr int kSetupReps = 3;
// Set-up is timed at the program's default seed: the same work every run.
constexpr std::uint64_t kSetupSeed = 2003;
// Methods whose top-K hits topk_hit_rate counts (Table I's columns).
constexpr diagnosis::Method kHitMethods[] = {
    diagnosis::Method::kSimI, diagnosis::Method::kSimII,
    diagnosis::Method::kRev};

eval::ExperimentConfig experiment_config(std::uint64_t seed,
                                         std::size_t chips) {
  eval::ExperimentConfig cfg;
  cfg.mc_samples = kSamples;
  cfg.n_chips = chips;
  cfg.seed = seed;
  return cfg;  // methods I/II/III/rev and the logic baseline by default
}

std::uint64_t experiment_seed(std::uint64_t seed, std::size_t round,
                              std::size_t circuit) {
  return derive_seed(seed, 0x7ab1e000ULL + round * 16 + circuit) >> 16;
}

int largest_k(const char* circuit) {
  const auto k = netlist::find_profile(circuit)->table1_k;
  return *std::max_element(k.begin(), k.end());
}

/// The experiment's environment, rebuilt from public constructors in the
/// order run_diagnosis_experiment builds it.
struct ReplayEnv {
  const netlist::Netlist& nl;
  const eval::ExperimentConfig& cfg;
  std::unique_ptr<netlist::Levelization> lev;
  std::unique_ptr<timing::StatisticalCellLibrary> lib;
  std::unique_ptr<timing::ArcDelayModel> model;
  std::unique_ptr<logicsim::BitSimulator> logic_sim;
  std::unique_ptr<timing::DelayField> dict_field;
  std::unique_ptr<timing::DelayField> inst_field;
  std::unique_ptr<timing::DynamicTimingSimulator> dict_sim;
  std::unique_ptr<timing::DynamicTimingSimulator> inst_sim;
  std::unique_ptr<defect::DefectSizeModel> size_model;
  std::unique_ptr<defect::SegmentDefectModel> location_model;
  std::unique_ptr<defect::DefectInjector> injector;
  std::unique_ptr<diagnosis::SignatureCache> sig_cache;
  std::unique_ptr<diagnosis::Diagnoser> diagnoser;
  std::unique_ptr<diagnosis::LogicBaselineDiagnoser> logic_baseline;
  std::size_t instance_samples = 0;
  double clk = 0.0;
  double detect_lo = 0.0;
  double detect_hi = 0.0;

  ReplayEnv(const netlist::Netlist& nl_in, const eval::ExperimentConfig& c)
      : nl(nl_in), cfg(c) {
    instance_samples = cfg.instance_samples != 0 ? cfg.instance_samples
                                                 : cfg.mc_samples;
    {
      Span s("timing.field_build");
      lev = std::make_unique<netlist::Levelization>(nl);
      lib = std::make_unique<timing::StatisticalCellLibrary>(cfg.library);
      model = std::make_unique<timing::ArcDelayModel>(nl, *lib);
      logic_sim = std::make_unique<logicsim::BitSimulator>(nl, *lev);
      dict_field = std::make_unique<timing::DelayField>(
          *model, cfg.mc_samples, cfg.global_weight, cfg.seed ^ 0xd1c7ULL);
      inst_field = std::make_unique<timing::DelayField>(
          *model, instance_samples, cfg.global_weight, cfg.seed ^ 0xc41bULL);
      dict_sim =
          std::make_unique<timing::DynamicTimingSimulator>(*dict_field, *lev);
      inst_sim =
          std::make_unique<timing::DynamicTimingSimulator>(*inst_field, *lev);
    }
    {
      Span s("defect.model");
      size_model = std::make_unique<defect::DefectSizeModel>(
          model->mean_cell_delay(), cfg.defect_mean_lo, cfg.defect_mean_hi,
          cfg.defect_three_sigma, cfg.seed ^ 0x5e1fULL);
      const auto size_rv = stats::RandomVariable::Normal(
          size_model->marginal_mean(), size_model->marginal_mean() / 6.0);
      location_model = std::make_unique<defect::SegmentDefectModel>(
          defect::SegmentDefectModel::uniform_single(nl, size_rv));
      injector = std::make_unique<defect::DefectInjector>(*location_model,
                                                          *size_model);
    }
    {
      Span s("atpg.calibration");
      stats::Rng cal_rng(cfg.seed, 0xca1bULL);
      std::vector<double> site_delays;
      for (std::size_t i = 0; i < cfg.calibration_sites; ++i) {
        const auto site = static_cast<netlist::ArcId>(
            cal_rng.below(static_cast<std::uint32_t>(nl.arc_count())));
        const auto patterns = atpg::generate_diagnostic_patterns(
            *model, *lev, site, cfg.pattern_config, cal_rng);
        const double d =
            atpg::site_best_nominal_delay(*model, *lev, patterns, site);
        if (d > 0.0) site_delays.push_back(d);
      }
      clk = stats::SampleVector(std::move(site_delays))
                .quantile(cfg.clk_site_quantile);
      detect_lo = clk - cfg.detectable_lambda_lo * size_model->marginal_mean();
      detect_hi = clk + cfg.detectable_lambda_hi * size_model->marginal_mean();
    }
    {
      Span s("diagnosis.setup");
      sig_cache = std::make_unique<diagnosis::SignatureCache>(
          *dict_sim, *logic_sim, *lev, *size_model, clk,
          !cfg.match_on_signature);
      diagnosis::DiagnoserConfig dc;
      dc.max_suspects = cfg.max_suspects;
      dc.match_on_total_probability = !cfg.match_on_signature;
      dc.collapse_unobservable = cfg.collapse_unobservable;
      if (cfg.use_score_kernel) dc.cache = sig_cache.get();
      diagnoser = std::make_unique<diagnosis::Diagnoser>(
          *dict_sim, *logic_sim, *lev, *size_model, dc);
      logic_baseline =
          std::make_unique<diagnosis::LogicBaselineDiagnoser>(*logic_sim,
                                                              *lev);
    }
    if (runtime::would_parallelize(cfg.n_chips)) {
      Span s("timing.field_build");
      dict_sim->prewarm();
    }
  }
};

struct ReplayTrial {
  eval::TrialRecord record;
  std::vector<double> op_ms;  ///< one entry per draw
  std::size_t patterns_generated = 0;
  std::size_t observe_calls = 0;
};

int rank_of(const diagnosis::DiagnosisResult& d, diagnosis::Method m,
            netlist::ArcId arc) {
  const auto ranked = d.ranked(m);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].arc == arc) return static_cast<int>(i);
  }
  return -1;
}

/// One trial, step for step as the experiment runs it (single-defect
/// model, detectability gate).
ReplayTrial replay_trial(const ReplayEnv& E, std::size_t trial,
                         std::uint64_t chip_id) {
  const eval::ExperimentConfig& cfg = E.cfg;
  ReplayTrial out;
  eval::TrialRecord& rec = out.record;
  rec.rank_of_true.assign(cfg.methods.size(), -1);
  Span trial_span("offline.trial", chip_id, 0);
  stats::Rng rng = stats::Rng(cfg.seed, 0xe4a1ULL).split(trial + 1);
  std::vector<logicsim::PatternPair> patterns;
  diagnosis::BehaviorMatrix B(E.nl.outputs().size(), 0);
  for (std::size_t attempt = 0; attempt < cfg.max_injection_retries;
       ++attempt) {
    const std::uint64_t op0 = now_ns();
    const auto op_done = [&] {
      out.op_ms.push_back(static_cast<double>(now_ns() - op0) * 1e-6);
    };
    ++rec.injection_attempts;
    {
      Span s("defect.draw", chip_id);
      rec.chip = E.injector->draw(E.instance_samples, rng);
    }
    {
      Span s("atpg.generate", chip_id);
      patterns = atpg::generate_diagnostic_patterns(
          *E.model, *E.lev, rec.chip.defect_arc, cfg.pattern_config, rng);
    }
    out.patterns_generated += patterns.size();
    if (patterns.empty()) {
      op_done();
      continue;
    }
    double d = 0.0;
    {
      Span s("atpg.gate", chip_id);
      d = atpg::site_best_nominal_delay(*E.model, *E.lev, patterns,
                                        rec.chip.defect_arc);
    }
    if (d < E.detect_lo || d > E.detect_hi) {
      op_done();
      continue;
    }
    const std::vector<std::pair<netlist::ArcId, double>> defects = {
        {rec.chip.defect_arc, rec.chip.defect_size}};
    {
      Span s("timing.observe", chip_id);
      B = diagnosis::observe_behavior_multi(*E.inst_sim, *E.logic_sim,
                                            *E.lev, patterns,
                                            rec.chip.sample_index, defects,
                                            E.clk);
    }
    ++out.observe_calls;
    if (!B.any_failure()) {
      op_done();
      continue;
    }
    diagnosis::BehaviorMatrix B0(0, 0);
    {
      Span s("timing.observe", chip_id);
      B0 = diagnosis::observe_behavior(*E.inst_sim, *E.logic_sim, *E.lev,
                                       patterns, rec.chip.sample_index,
                                       std::nullopt, E.clk);
    }
    ++out.observe_calls;
    bool contributes = false;
    for (std::size_t i = 0; i < B.output_count() && !contributes; ++i) {
      for (std::size_t j = 0; j < B.pattern_count(); ++j) {
        if (B.at(i, j) && !B0.at(i, j)) {
          contributes = true;
          break;
        }
      }
    }
    if (!contributes) {
      op_done();
      continue;
    }
    rec.failed_test = true;
    rec.n_patterns = patterns.size();
    rec.n_failing_cells = B.failure_count();
    diagnosis::DiagnosisResult diag;
    {
      Span s("diagnosis.diagnose", chip_id);
      diag = E.diagnoser->diagnose(patterns, B, cfg.methods, E.clk);
    }
    rec.n_suspects = diag.suspects.size();
    rec.true_arc_in_suspects =
        std::find(diag.suspects.begin(), diag.suspects.end(),
                  rec.chip.defect_arc) != diag.suspects.end();
    for (std::size_t m = 0; m < cfg.methods.size(); ++m) {
      rec.rank_of_true[m] = rank_of(diag, cfg.methods[m], rec.chip.defect_arc);
    }
    if (cfg.include_logic_baseline) {
      std::vector<diagnosis::LogicRankedSuspect> ranked;
      {
        Span s("diagnosis.logic_baseline", chip_id);
        ranked = E.logic_baseline->diagnose(patterns, B);
      }
      for (std::size_t i = 0; i < ranked.size(); ++i) {
        if (ranked[i].arc == rec.chip.defect_arc) {
          rec.logic_baseline_rank = static_cast<int>(i);
          break;
        }
      }
    }
    op_done();
    break;
  }
  rec.status = rec.failed_test ? eval::TrialStatus::kDiagnosed
                               : eval::TrialStatus::kNotFailing;
  return out;
}

bool same_record(const eval::TrialRecord& a, const eval::TrialRecord& b) {
  return a.status == b.status && a.failed_test == b.failed_test &&
         a.injection_attempts == b.injection_attempts &&
         a.chip.defect_arc == b.chip.defect_arc &&
         a.chip.defect_size == b.chip.defect_size &&
         a.chip.sample_index == b.chip.sample_index &&
         a.n_patterns == b.n_patterns &&
         a.n_failing_cells == b.n_failing_cells &&
         a.n_suspects == b.n_suspects &&
         a.true_arc_in_suspects == b.true_arc_in_suspects &&
         a.rank_of_true == b.rank_of_true &&
         a.logic_baseline_rank == b.logic_baseline_rank;
}

std::uint64_t counter(const obs::MetricsSnapshot& a,
                      const obs::MetricsSnapshot& b, const char* name) {
  return obs::MetricsSnapshot::counter_delta(a, b, name);
}

}  // namespace

RunResult run_offline(const RunOptions& opt) {
  RunResult res;
  runtime::set_thread_count(2);
  const std::size_t n_circuits = std::size(kCircuits);

  // 1. Set-up, repeated; the last netlists are kept for the measurement.
  std::vector<netlist::Netlist> netlists;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    netlists.clear();
    const std::uint64_t t0 = now_ns();
    for (std::size_t c = 0; c < n_circuits; ++c) {
      netlists.push_back(netlist::make_standin(
          *netlist::find_profile(kCircuits[c]), kScale, kStandinSeed));
      (void)eval::run_diagnosis_experiment(netlists.back(),
                                           experiment_config(kSetupSeed, 0));
    }
    setup_s.push_back(since_s(t0));
  }

  res.end_to_end["setup_peak_rss_mb"] = {peak_rss_mb(), "MB"};

  // 2. The product path over the fixed work set.
  struct Call {
    std::size_t circuit = 0;
    eval::ExperimentConfig cfg;
    eval::ExperimentResult result;
    double wall_s = 0.0;  ///< of the last pass
  };
  std::vector<Call> calls;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < n_circuits; ++c) {
      calls.push_back(
          {c, experiment_config(experiment_seed(opt.seed, r, c), kChips), {}});
    }
  }
  double exp_wall = 0.0;
  double trial_wall = 0.0;
  std::size_t passes = 0;
  const CpuTimes cpu0 = process_cpu();
  const std::uint64_t measure0 = now_ns();
  do {
    for (Call& call : calls) {
      const std::uint64_t t0 = now_ns();
      eval::ExperimentResult r =
          eval::run_diagnosis_experiment(netlists[call.circuit], call.cfg);
      call.wall_s = since_s(t0);
      exp_wall += call.wall_s;
      trial_wall += r.phases.trials_seconds;
      if (passes > 0 && r.trials.size() == call.result.trials.size()) {
        for (std::size_t t = 0; t < r.trials.size(); ++t) {
          if (!same_record(r.trials[t], call.result.trials[t])) {
            res.fail("experiment repeated with the same seed gave a "
                     "different trial record");
          }
        }
      }
      call.result = std::move(r);
    }
    ++passes;
  } while (since_s(measure0) < opt.seconds);
  const CpuTimes cpu1 = process_cpu();
  const double measure_wall = since_s(measure0);

  std::size_t draws = 0;
  std::size_t diagnosed = 0;
  std::size_t hit_pairs = 0;
  std::size_t hits = 0;
  std::size_t suspects = 0;
  for (const Call& call : calls) {
    const auto& methods = call.cfg.methods;
    const int k = largest_k(kCircuits[call.circuit]);
    for (const eval::TrialRecord& t : call.result.trials) {
      ++res.attempted;
      if (t.status == eval::TrialStatus::kQuarantined ||
          t.status == eval::TrialStatus::kSkipped) {
        ++res.failed;
      }
      draws += t.injection_attempts;
      if (!t.failed_test) continue;
      ++diagnosed;
      suspects += t.n_suspects;
      for (const auto m : kHitMethods) {
        const auto mi = static_cast<std::size_t>(
            std::find(methods.begin(), methods.end(), m) - methods.begin());
        ++hit_pairs;
        if (t.rank_of_true[mi] >= 0 && t.rank_of_true[mi] < k) ++hits;
      }
    }
  }
  if (res.failed > 0) res.fail("quarantined or skipped trials");
  if (diagnosed == 0) res.fail("no trial was diagnosable");

  // 3. Replay trials through the layers' public calls.
  Tracer::instance().enable(opt.trace);
  const obs::MetricsSnapshot snap0 = obs::MetricsRegistry::instance().snapshot();
  std::vector<double> op_ms;
  std::size_t patterns_generated = 0;
  std::size_t observe_calls = 0;
  std::size_t replay_mismatches = 0;
  const std::uint64_t replay0 = now_ns();
  // The untraced run replays the first two rounds (about 600 draws); the
  // traced run replays every trial.
  const std::size_t replay_calls =
      opt.trace ? calls.size() : kUntracedReplayRounds * n_circuits;
  double replayed_wall = 0.0;
  for (std::size_t e = 0; e < replay_calls; ++e) {
    const Call& call = calls[e];
    replayed_wall += call.wall_s;
    std::optional<netlist::Netlist> nl;
    std::optional<ReplayEnv> env;
    {
      Span s("offline.setup", e, 0);
      {
        Span n("netlist.standin");
        nl.emplace(netlist::make_standin(
            *netlist::find_profile(kCircuits[call.circuit]), kScale,
            kStandinSeed));
      }
      env.emplace(*nl, call.cfg);
    }
    if (env->clk != call.result.clk) {
      res.fail("replayed clk calibration differs from the experiment's");
    }
    std::vector<ReplayTrial> trials(call.cfg.n_chips);
    runtime::parallel_for(call.cfg.n_chips, [&](std::size_t t) {
      trials[t] = replay_trial(*env, t, e * 1000 + t);
    });
    for (std::size_t t = 0; t < trials.size(); ++t) {
      if (!same_record(trials[t].record, call.result.trials[t])) {
        ++replay_mismatches;
      }
      op_ms.insert(op_ms.end(), trials[t].op_ms.begin(),
                   trials[t].op_ms.end());
      patterns_generated += trials[t].patterns_generated;
      observe_calls += trials[t].observe_calls;
    }
  }
  const double replay_wall = since_s(replay0);
  const obs::MetricsSnapshot snap1 = obs::MetricsRegistry::instance().snapshot();
  Tracer::instance().enable(false);
  if (replay_mismatches > 0) {
    res.fail("replay trial records differ from run_diagnosis_experiment (" +
             std::to_string(replay_mismatches) + " trials)");
  }
  std::size_t replayed_draws = 0;
  for (std::size_t e = 0; e < replay_calls; ++e) {
    for (const auto& t : calls[e].result.trials) {
      replayed_draws += t.injection_attempts;
    }
  }
  if (op_ms.size() != replayed_draws) res.fail("replay draw count differs");

  // End-to-end metrics.
  std::sort(op_ms.begin(), op_ms.end());
  const double pass_wall = exp_wall / static_cast<double>(passes);
  const double pass_trials = trial_wall / static_cast<double>(passes);
  res.end_to_end["setup_s"] = {median(setup_s), "s"};
  res.end_to_end["ops_per_s"] = {static_cast<double>(draws) / pass_trials,
                                 "1/s"};
  res.end_to_end["op_p50_ms"] = {percentile_sorted(op_ms, 50), "ms"};

  // Per-layer metrics (the span-derived ones are 0 without --trace 1).
  const SpanTotals spans = summarize_spans(Tracer::instance().spans());
  const auto span_s = [&](const char* name) {
    const auto it = spans.seconds.find(name);
    return it == spans.seconds.end() ? 0.0 : it->second;
  };
  auto& L = res.per_layer;
  L["offline.chips_per_s"] = {static_cast<double>(diagnosed) / pass_wall,
                              "chips/s"};
  L["offline.experiment_s"] = {pass_wall, "s"};
  L["offline.draw_p90_ms"] = {percentile_sorted(op_ms, 90), "ms"};
  L["netlist.standin_s"] = {span_s("netlist.standin"), "s"};
  L["timing.field_build_s"] = {span_s("timing.field_build"), "s"};
  L["atpg.calibration_s"] = {span_s("atpg.calibration"), "s"};
  L["atpg.generate_s"] = {span_s("atpg.generate"), "s"};
  L["atpg.generate_calls"] = {static_cast<double>(draws), "count"};
  L["atpg.patterns_per_call"] = {
      static_cast<double>(patterns_generated) / static_cast<double>(draws),
      "count"};
  L["atpg.accept_ratio"] = {
      static_cast<double>(diagnosed) / static_cast<double>(draws), "fraction"};
  L["atpg.gate_s"] = {span_s("atpg.gate"), "s"};
  L["timing.observe_s"] = {span_s("timing.observe"), "s"};
  L["timing.observe_calls"] = {static_cast<double>(observe_calls), "count"};
  L["timing.mc_samples"] = {
      static_cast<double>(counter(snap0, snap1, "mc.samples")), "count"};
  L["diagnosis.diagnose_s"] = {span_s("diagnosis.diagnose"), "s"};
  L["diagnosis.logic_baseline_s"] = {span_s("diagnosis.logic_baseline"), "s"};
  L["diagnosis.suspects_per_chip"] = {
      static_cast<double>(suspects) / static_cast<double>(diagnosed), "count"};
  L["diagnosis.phi_evals"] = {
      static_cast<double>(counter(snap0, snap1, "diag.phi_evals")), "count"};
  L["diagnosis.columns_built"] = {
      static_cast<double>(counter(snap0, snap1, "dict.columns_built")),
      "count"};
  const double cache_hits =
      static_cast<double>(counter(snap0, snap1, "dict.sig_cache.hits"));
  const double cache_misses =
      static_cast<double>(counter(snap0, snap1, "dict.sig_cache.misses"));
  L["diagnosis.sig_cache_hit_ratio"] = {
      cache_hits + cache_misses > 0.0
          ? cache_hits / (cache_hits + cache_misses)
          : 0.0,
      "fraction"};
  L["diagnosis.topk_hit_rate"] = {
      hit_pairs == 0 ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(hit_pairs),
      "fraction"};
  L["runtime.busy_frac"] = {
      (cpu1.user_s + cpu1.sys_s - cpu0.user_s - cpu0.sys_s) /
          (measure_wall * static_cast<double>(runtime::thread_count())),
      "fraction"};
  L["trace.coverage"] = {spans.coverage, "fraction"};
  L["trace.overhead"] = {replay_wall / replayed_wall, "ratio"};

  res.facts["offline.passes"] = static_cast<double>(passes);
  res.facts["offline.draws"] = static_cast<double>(draws);
  res.facts["offline.diagnosed"] = static_cast<double>(diagnosed);
  res.facts["offline.trials_s"] = pass_trials;
  res.facts["offline.replay_s"] = replay_wall;
  return res;
}

}  // namespace perfbench
