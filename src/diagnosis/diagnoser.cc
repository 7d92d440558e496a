#include "diagnosis/diagnoser.h"

#include <algorithm>
#include <stdexcept>

#include "diagnosis/score_kernel.h"
#include "diagnosis/signature_matrix.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "paths/path_enum.h"
#include "runtime/parallel_for.h"

namespace sddd::diagnosis {

using netlist::ArcId;
using netlist::GateId;

namespace {

// Diagnosis accounting: CPU split between suspect extraction and the
// per-pattern scoring loop (counters sum across threads).
obs::Counter& diag_extract_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.extract_ns");
  return c;
}

obs::Counter& diag_score_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.score_ns");
  return c;
}

obs::Counter& diag_suspects_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.suspects");
  return c;
}

// Per-diagnosis wall latency shape (one sample per diagnosed chip); the
// p50/p95/p99 summaries land in the metrics JSON.  Wall-clock valued, so
// not part of any byte-identity contract.
obs::Histogram& diag_chip_ms_histogram() {
  static constexpr double kBoundsMs[] = {0.25, 0.5, 1,    2.5,  5,    10,
                                         25,   50,  100,  250,  500,  1000,
                                         2500, 5000};
  static obs::Histogram& h = obs::MetricsRegistry::instance()
                                 .register_histogram("diag.chip_ms",
                                                     kBoundsMs);
  return h;
}

}  // namespace

Diagnoser::Diagnoser(const timing::DynamicTimingSimulator& sim,
                     const logicsim::BitSimulator& logic_sim,
                     const netlist::Levelization& lev,
                     const defect::DefectSizeModel& size_model,
                     DiagnoserConfig config)
    : sim_(&sim),
      logic_sim_(&logic_sim),
      lev_(&lev),
      size_model_(&size_model),
      config_(config) {}

std::vector<ArcId> Diagnoser::extract_suspects(
    std::span<const logicsim::PatternPair> patterns,
    const BehaviorMatrix& B) const {
  SDDD_SPAN(span, "diag.extract");
  span.arg("failing_patterns",
           static_cast<std::int64_t>(B.failing_patterns().size()));
  const obs::ScopedNsTimer timer(diag_extract_ns_counter());
  const auto& nl = logic_sim_->netlist();
  std::vector<std::uint32_t> support(nl.arc_count(), 0);
  for (const std::size_t j : B.failing_patterns()) {
    const paths::TransitionGraph tg(*logic_sim_, *lev_, patterns[j]);
    for (const GateId o : B.failing_output_gates(nl, j)) {
      const auto cone = tg.cone_to_output(o);
      for (ArcId a = 0; a < nl.arc_count(); ++a) {
        if (cone[a]) ++support[a];
      }
    }
  }
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < nl.arc_count(); ++a) {
    if (support[a] > 0) suspects.push_back(a);
  }
  if (config_.max_suspects > 0 && suspects.size() > config_.max_suspects) {
    // Keep the best-supported suspects; stable ordering keeps the result
    // deterministic.
    std::stable_sort(suspects.begin(), suspects.end(),
                     [&](ArcId a, ArcId b) { return support[a] > support[b]; });
    suspects.resize(config_.max_suspects);
    std::sort(suspects.begin(), suspects.end());
  }
  diag_suspects_counter().add(suspects.size());
  return suspects;
}

DiagnosisResult Diagnoser::diagnose(
    std::span<const logicsim::PatternPair> patterns, const BehaviorMatrix& B,
    std::span<const Method> methods, double clk) const {
  if (B.pattern_count() != patterns.size()) {
    throw std::invalid_argument("Diagnoser: behavior/pattern size mismatch");
  }
  const std::uint64_t t0 = obs::now_ns();
  DiagnosisResult result;
  result.methods.assign(methods.begin(), methods.end());
  result.suspects = extract_suspects(patterns, B);
  result.mc_samples = sim_->field().sample_count();

  const std::size_t n_suspects = result.suspects.size();
  const std::size_t n_patterns = patterns.size();
  if (config_.capture_phi) {
    result.phi.assign(n_suspects, std::vector<double>(n_patterns, 0.0));
  }

  // One accumulator per suspect, serving every method; filled
  // pattern-by-pattern so a single baseline arrival matrix is alive at a
  // time.
  std::vector<ScoreAccumulator> acc(n_suspects);

  // Both scoring paths feed each suspect's accumulator its phi values in
  // pattern order, so scores and ranks are bit-identical for every thread
  // count - and to each other (score_kernel.h carries the argument;
  // tests/test_score_kernel.cc and the ci.sh kernel smoke step enforce it
  // end to end).
  if (config_.cache != nullptr) {
    score_kernel_path(patterns, B, clk, result, acc);
  } else {
    score_scalar(patterns, B, clk, result, acc);
  }

  result.scores.resize(methods.size());
  result.keys.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) {
    result.scores[m].resize(n_suspects);
    result.keys[m].resize(n_suspects);
    for (std::size_t s = 0; s < n_suspects; ++s) {
      result.scores[m][s] = acc[s].finish(methods[m], n_patterns);
      result.keys[m][s] = acc[s].ranking_key(methods[m], n_patterns);
    }
  }
  diag_chip_ms_histogram().record(static_cast<double>(obs::now_ns() - t0) *
                                  1e-6);
  obs::Recorder::instance().record(obs::EventKind::kDiagnose, "",
                                   B.failure_count(), n_suspects, n_patterns);
  return result;
}

void Diagnoser::score_scalar(
    std::span<const logicsim::PatternPair> patterns, const BehaviorMatrix& B,
    double clk, DiagnosisResult& result,
    std::vector<ScoreAccumulator>& acc) const {
  const std::size_t n_suspects = result.suspects.size();
  const std::size_t n_outputs = B.output_count();

  // Per-suspect defect-size tables, computed once: sample(arc, k) is a
  // pure function of (arc, k), so hoisting the resampling out of the
  // (pattern, suspect) loop changes nothing but the allocation count.
  std::vector<std::vector<double>> sizes(n_suspects);
  const std::size_t n_samples = sim_->field().sample_count();
  runtime::parallel_for(n_suspects, [&](std::size_t s) {
    auto& table = sizes[s];
    table.resize(n_samples);
    for (std::size_t k = 0; k < n_samples; ++k) {
      table[k] = size_model_->sample(result.suspects[s], k);
    }
  });

  // Suspects are embarrassingly parallel once the pattern's baseline
  // arrival matrix exists: the slice is built serially (it materializes
  // every arc-delay row its cones will read), then each suspect evaluates
  // its E column against the shared read-only slice and writes only its
  // own accumulator.  Chunking lets one column buffer serve a whole run
  // of suspects instead of heap-allocating per (pattern, suspect).
  std::vector<bool> b_col(n_outputs);
  std::vector<char> inactive(n_suspects, 0);
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    SDDD_SPAN(span, "diag.pattern");
    span.arg("pattern", static_cast<std::int64_t>(j))
        .arg("suspects", static_cast<std::int64_t>(n_suspects));
    const obs::ScopedNsTimer timer(diag_score_ns_counter());
    const PatternSlice slice(*sim_, *logic_sim_, *lev_, patterns[j], clk);
    for (std::size_t i = 0; i < n_outputs; ++i) b_col[i] = B.at(i, j);

    // Equivalence-class collapse: a suspect off every active path of this
    // pattern has an E column bit-identical to the baseline M column (and
    // an exactly-zero S column), so one phi of the baseline serves all of
    // them.  phi values, scores and ranks are unchanged; only the eval
    // count drops.
    double collapsed_phi = 0.0;
    bool any_inactive = false;
    if (config_.collapse_unobservable) {
      const paths::TransitionGraph& tg = slice.transition_graph();
      for (std::size_t s = 0; s < n_suspects; ++s) {
        inactive[s] = tg.is_active(result.suspects[s]) ? 0 : 1;
        if (inactive[s]) any_inactive = true;
      }
      if (any_inactive) {
        if (config_.match_on_total_probability) {
          collapsed_phi = phi(slice.m_column(), b_col);
        } else {
          const std::vector<double> zeros(n_outputs, 0.0);
          collapsed_phi = phi(zeros, b_col);
        }
      }
    }

    runtime::parallel_for_chunked(
        n_suspects, 16, [&](std::size_t lo, std::size_t hi) {
          std::vector<double> col;
          for (std::size_t s = lo; s < hi; ++s) {
            double phi_j;
            if (config_.collapse_unobservable && inactive[s]) {
              phi_j = collapsed_phi;
            } else {
              if (config_.match_on_total_probability) {
                slice.e_column_into(result.suspects[s], sizes[s], col);
              } else {
                slice.signature_column_into(result.suspects[s], sizes[s], col);
              }
              phi_j = phi(col, b_col);
            }
            if (config_.capture_phi) result.phi[s][j] = phi_j;
            acc[s].add_phi(phi_j);
          }
        });
  }
}

void Diagnoser::score_kernel_path(
    std::span<const logicsim::PatternPair> patterns, const BehaviorMatrix& B,
    double clk, DiagnosisResult& result,
    std::vector<ScoreAccumulator>& acc) const {
  const SignatureCache& cache = *config_.cache;
  if (cache.clk() != clk) {
    throw std::invalid_argument(
        "Diagnoser: signature cache built for a different clk");
  }
  if (cache.match_on_total_probability() !=
      config_.match_on_total_probability) {
    throw std::invalid_argument(
        "Diagnoser: signature cache built for a different match mode");
  }

  const std::size_t n_suspects = result.suspects.size();
  const std::size_t n_outputs = B.output_count();
  std::vector<const double*> cols;
  std::vector<double> phi_row(n_suspects);
  std::vector<netlist::ArcId> active_suspects;
  std::vector<std::size_t> active_pos;
  std::vector<double> phi_active;
  PackedBColumn b;
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    SDDD_SPAN(span, "diag.kernel.pattern");
    span.arg("pattern", static_cast<std::int64_t>(j))
        .arg("suspects", static_cast<std::int64_t>(n_suspects));
    const obs::ScopedNsTimer timer(diag_score_ns_counter());

    if (config_.collapse_unobservable) {
      // Equivalence-class collapse, kernel flavor: the cache's per-pattern
      // collapse slice says which suspects this pattern sensitizes at all;
      // the rest provably share the baseline column, so they share one
      // phi_block lane and never build (or even look up) a column.
      const SignatureCache::CollapseSlice& cs =
          cache.collapse_slice(patterns[j]);
      active_suspects.clear();
      active_pos.clear();
      for (std::size_t s = 0; s < n_suspects; ++s) {
        if (cs.active[result.suspects[s]]) {
          active_suspects.push_back(result.suspects[s]);
          active_pos.push_back(s);
        }
      }
      const std::size_t n_active = active_suspects.size();
      const bool any_inactive = n_active < n_suspects;
      double collapsed_phi = 0.0;
      {
        const obs::ScopedNsTimer build_timer(kernel_build_ns_counter());
        cache.columns(patterns[j], active_suspects, cols);
        b.pack(B, j);
      }
      {
        const obs::ScopedNsTimer phi_timer(kernel_phi_ns_counter());
        if (any_inactive) {
          const double* baseline = cs.baseline.data();
          phi_block(&baseline, 1, n_outputs, b, &collapsed_phi);
        }
        phi_active.resize(n_active);
        runtime::parallel_for_chunked(
            n_active, 64, [&](std::size_t lo, std::size_t hi) {
              phi_block(cols.data() + lo, hi - lo, n_outputs, b,
                        phi_active.data() + lo);
            });
        // Scatter: every suspect gets the same phi value the uncollapsed
        // run computes for it (phi_block is per-column independent, so
        // compaction changes nothing), inactive ones the shared baseline.
        std::fill(phi_row.begin(), phi_row.end(), collapsed_phi);
        for (std::size_t i = 0; i < n_active; ++i) {
          phi_row[active_pos[i]] = phi_active[i];
        }
        for (std::size_t s = 0; s < n_suspects; ++s) {
          if (config_.capture_phi) result.phi[s][j] = phi_row[s];
          acc[s].add_phi(phi_row[s]);
        }
      }
      note_phi_evals(n_active + (any_inactive ? 1 : 0));
      note_kernel_pattern(n_active);
      continue;
    }

    {
      const obs::ScopedNsTimer build_timer(kernel_build_ns_counter());
      cache.columns(patterns[j], result.suspects, cols);
      b.pack(B, j);
    }
    {
      const obs::ScopedNsTimer phi_timer(kernel_phi_ns_counter());
      // Chunk boundaries depend only on (n, grain), each lane keeps its
      // own accumulator, and every suspect writes only its own slots - so
      // phi_row is byte-identical at any thread count.
      runtime::parallel_for_chunked(
          n_suspects, 64, [&](std::size_t lo, std::size_t hi) {
            phi_block(cols.data() + lo, hi - lo, n_outputs, b,
                      phi_row.data() + lo);
            for (std::size_t s = lo; s < hi; ++s) {
              if (config_.capture_phi) result.phi[s][j] = phi_row[s];
              acc[s].add_phi(phi_row[s]);
            }
          });
    }
    // Same diag.phi_evals accounting as n_suspects scalar phi() calls,
    // batched; plus the kernel's own pattern/suspect tallies.
    note_phi_evals(n_suspects);
    note_kernel_pattern(n_suspects);
  }
}

std::vector<RankedSuspect> DiagnosisResult::ranked(Method m) const {
  const auto it = std::find(methods.begin(), methods.end(), m);
  if (it == methods.end()) {
    throw std::invalid_argument("DiagnosisResult: method not computed");
  }
  const auto mi = static_cast<std::size_t>(it - methods.begin());
  const auto& sc = scores[mi];
  const auto& key = keys[mi];
  std::vector<std::size_t> order(suspects.size());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ranks_better(m, key[a], key[b]);
                   });
  std::vector<RankedSuspect> out(suspects.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[i] = RankedSuspect{suspects[order[i]], sc[order[i]]};
  }
  return out;
}

bool DiagnosisResult::hit_within(Method m, ArcId arc, std::size_t k) const {
  const auto r = ranked(m);
  const std::size_t limit = std::min(k, r.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (r[i].arc == arc) return true;
  }
  return false;
}

}  // namespace sddd::diagnosis
