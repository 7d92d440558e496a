#include "diagnosis/score_kernel.h"

#include "diagnosis/error_fn.h"
#include "obs/recorder.h"

namespace sddd::diagnosis {

namespace {

obs::Counter& kernel_patterns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.patterns");
  return c;
}

obs::Counter& kernel_suspects_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.suspects");
  return c;
}

}  // namespace

void PackedBColumn::pack(const BehaviorMatrix& B, std::size_t pattern) {
  n_ = B.output_count();
  words_.assign((n_ + 63) / 64, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    if (B.at(k, pattern)) {
      words_[k >> 6] |= std::uint64_t{1} << (k & 63);
    }
  }
}

void phi_block(const double* const* cols, std::size_t n_cols,
               std::size_t n_outputs, const PackedBColumn& b, double* out) {
  std::size_t base = 0;
  for (; base + kKernelLanes <= n_cols; base += kKernelLanes) {
    const double* c0 = cols[base + 0];
    const double* c1 = cols[base + 1];
    const double* c2 = cols[base + 2];
    const double* c3 = cols[base + 3];
    const double* c4 = cols[base + 4];
    const double* c5 = cols[base + 5];
    const double* c6 = cols[base + 6];
    const double* c7 = cols[base + 7];
    double a0 = 1.0, a1 = 1.0, a2 = 1.0, a3 = 1.0;
    double a4 = 1.0, a5 = 1.0, a6 = 1.0, a7 = 1.0;
    for (std::size_t k = 0; k < n_outputs; ++k) {
      // Select, not blend: `fail ? s : 1 - s` is the scalar phi() factor
      // verbatim, so each lane's product is the scalar product bit for bit.
      const bool fail = b.test(k);
      a0 *= fail ? c0[k] : 1.0 - c0[k];
      a1 *= fail ? c1[k] : 1.0 - c1[k];
      a2 *= fail ? c2[k] : 1.0 - c2[k];
      a3 *= fail ? c3[k] : 1.0 - c3[k];
      a4 *= fail ? c4[k] : 1.0 - c4[k];
      a5 *= fail ? c5[k] : 1.0 - c5[k];
      a6 *= fail ? c6[k] : 1.0 - c6[k];
      a7 *= fail ? c7[k] : 1.0 - c7[k];
    }
    out[base + 0] = a0;
    out[base + 1] = a1;
    out[base + 2] = a2;
    out[base + 3] = a3;
    out[base + 4] = a4;
    out[base + 5] = a5;
    out[base + 6] = a6;
    out[base + 7] = a7;
  }
  for (; base < n_cols; ++base) {
    const double* c = cols[base];
    double a = 1.0;
    for (std::size_t k = 0; k < n_outputs; ++k) {
      a *= b.test(k) ? c[k] : 1.0 - c[k];
    }
    out[base] = a;
  }
}

void score_suspects(const ColumnSource& source, const BehaviorMatrix& B,
                    bool capture_phi, DiagnosisResult& result) {
  const std::size_t n_suspects = result.suspects.size();
  const std::size_t n_patterns = B.pattern_count();
  const std::size_t n_outputs = B.output_count();
  if (capture_phi) {
    result.phi.assign(n_suspects, std::vector<double>(n_patterns, 0.0));
  }
  // One accumulator per suspect, serving every method; all buffers are
  // sized once, so the pattern loop allocates nothing.
  std::vector<ScoreAccumulator> acc(n_suspects);
  PatternLanes lanes;
  lanes.cols.reserve(n_suspects + 1);
  lanes.observable.resize(n_suspects);
  std::vector<double> phi_lanes(n_suspects + 1);
  PackedBColumn b;
  for (std::size_t j = 0; j < n_patterns; ++j) {
    lanes.cols.clear();
    const double* baseline = source.gather(j, result.suspects, lanes);
    const std::size_t n_active = lanes.cols.size();
    const bool any_inactive = n_active < n_suspects;
    if (any_inactive) lanes.cols.push_back(baseline);
    b.pack(B, j);
    phi_block(lanes.cols.data(), lanes.cols.size(), n_outputs, b,
              phi_lanes.data());
    // Scatter: each observable suspect its own lane, every other one the
    // shared lane, whose accumulator terms are computed once.  phi_block
    // lanes are independent, so every suspect gets the phi an uncollapsed
    // loop computes for it, and add() runs in pattern order.
    const double shared = any_inactive ? phi_lanes[n_active] : 0.0;
    const ScoreAccumulator::Terms shared_terms(shared);
    for (std::size_t s = 0, k = 0; s < n_suspects; ++s) {
      if (lanes.observable[s]) {
        if (capture_phi) result.phi[s][j] = phi_lanes[k];
        acc[s].add_phi(phi_lanes[k++]);
      } else {
        if (capture_phi) result.phi[s][j] = shared;
        acc[s].add(shared_terms);
      }
    }
    note_phi_evals(lanes.cols.size());
    kernel_patterns_counter().add(1);
    kernel_suspects_counter().add(static_cast<std::uint64_t>(n_active));
  }

  const std::size_t n_methods = result.methods.size();
  result.scores.assign(n_methods, std::vector<double>(n_suspects));
  result.keys.assign(n_methods, std::vector<double>(n_suspects));
  for (std::size_t m = 0; m < n_methods; ++m) {
    for (std::size_t s = 0; s < n_suspects; ++s) {
      result.scores[m][s] = acc[s].finish(result.methods[m], n_patterns);
      result.keys[m][s] = acc[s].ranking_key(result.methods[m], n_patterns);
    }
  }
  obs::Recorder::instance().record(obs::EventKind::kDiagnose, "",
                                   B.failure_count(), n_suspects, n_patterns);
}

}  // namespace sddd::diagnosis
