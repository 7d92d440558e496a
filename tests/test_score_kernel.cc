// Tests for the packed scoring kernel, the one scoring loop and the
// signature-column cache: their contract is BIT-IDENTITY with the scalar
// phi() and the scalar reference scorer of score_oracle.h (score_kernel.h
// states the argument; these tests enforce it), so every floating-point
// comparison here is exact equality, never a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "atpg/pdf_atpg.h"
#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/error_fn.h"
#include "diagnosis/score_kernel.h"
#include "diagnosis/signature_matrix.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "runtime/parallel_for.h"
#include "stats/rng.h"
#include "stats/sample_vector.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"
#include "score_oracle.h"

namespace sddd::diagnosis {
namespace {

using logicsim::BitSimulator;
using logicsim::PatternPair;
using netlist::ArcId;
using netlist::Levelization;
using netlist::Netlist;

struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

// --- PackedBColumn -------------------------------------------------------

TEST(PackedBColumn, MatchesBehaviorMatrixBits) {
  // Widths straddling the 64-bit word boundary, including 0.
  for (const std::size_t n_outputs : {0, 1, 7, 63, 64, 65, 130}) {
    BehaviorMatrix B(n_outputs, 3);
    stats::Rng rng(41 + n_outputs);
    for (std::size_t i = 0; i < n_outputs; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        B.set(i, j, rng.below(3) == 0);
      }
    }
    PackedBColumn packed;
    for (std::size_t j = 0; j < 3; ++j) {
      packed.pack(B, j);
      ASSERT_EQ(packed.bit_count(), n_outputs);
      for (std::size_t i = 0; i < n_outputs; ++i) {
        EXPECT_EQ(packed.test(i), B.at(i, j)) << "output " << i;
      }
    }
  }
}

// --- phi_block vs the scalar phi() ---------------------------------------

TEST(PhiBlock, BitIdenticalToScalarPhi) {
  // Column counts around the 8-lane block boundary, widths around the
  // 64-bit word boundary; random probability columns and fail bits.
  for (const std::size_t n_cols : {1, 7, 8, 9, 17}) {
    for (const std::size_t n_outputs : {0, 1, 7, 63, 64, 65, 130}) {
      stats::Rng rng(7 * n_cols + n_outputs);
      std::vector<std::vector<double>> cols(n_cols,
                                            std::vector<double>(n_outputs));
      std::vector<const double*> ptrs(n_cols);
      for (std::size_t c = 0; c < n_cols; ++c) {
        for (double& s : cols[c]) s = rng.uniform01();
        ptrs[c] = cols[c].data();
      }
      BehaviorMatrix B(n_outputs, 1);
      std::vector<bool> b_bits(n_outputs);
      for (std::size_t i = 0; i < n_outputs; ++i) {
        const bool fails = rng.below(2) == 0;
        b_bits[i] = fails;
        B.set(i, 0, fails);
      }
      PackedBColumn packed;
      packed.pack(B, 0);

      std::vector<double> out(n_cols, -1.0);
      phi_block(ptrs.data(), n_cols, n_outputs, packed, out.data());
      for (std::size_t c = 0; c < n_cols; ++c) {
        EXPECT_EQ(out[c], phi(cols[c], b_bits))
            << "n_cols=" << n_cols << " n_outputs=" << n_outputs
            << " col=" << c;
      }
    }
  }
}

TEST(PhiBlock, AllZeroColumnsAndEmptyPatternSet) {
  // An all-zero signature predicts "no failures": phi is 1 when the chip
  // passes everywhere and exactly 0 at the first failing bit.
  const std::size_t n_outputs = 70;
  std::vector<double> zeros(n_outputs, 0.0);
  std::vector<const double*> ptrs(9, zeros.data());

  BehaviorMatrix pass(n_outputs, 1);
  PackedBColumn packed;
  packed.pack(pass, 0);
  std::vector<double> out(ptrs.size(), -1.0);
  phi_block(ptrs.data(), ptrs.size(), n_outputs, packed, out.data());
  for (const double v : out) EXPECT_EQ(v, 1.0);

  BehaviorMatrix fail(n_outputs, 1);
  fail.set(69, 0, true);
  packed.pack(fail, 0);
  phi_block(ptrs.data(), ptrs.size(), n_outputs, packed, out.data());
  for (const double v : out) EXPECT_EQ(v, 0.0);

  // Empty TP degenerates to the empty product.
  phi_block(ptrs.data(), ptrs.size(), 0, packed, out.data());
  for (const double v : out) EXPECT_EQ(v, 1.0);
}

// --- Full-stack: diagnose() vs the scalar oracle -------------------------

struct KernelFixture {
  Netlist nl;
  Levelization lev;
  timing::StatisticalCellLibrary lib;
  timing::ArcDelayModel model;
  timing::DelayField dict_field;
  timing::DelayField inst_field;
  BitSimulator sim;
  timing::DynamicTimingSimulator dict_sim;
  timing::DynamicTimingSimulator inst_sim;
  defect::DefectSizeModel size_model;
  std::vector<PatternPair> patterns;
  double clk = 0.0;
  std::vector<Method> methods = {Method::kSimI, Method::kSimII,
                                 Method::kSimIII, Method::kRev};

  KernelFixture()
      : nl([] {
          netlist::SynthSpec spec;
          spec.n_inputs = 14;
          spec.n_outputs = 10;
          spec.n_gates = 110;
          spec.depth = 10;
          spec.seed = 113;
          return netlist::synthesize(spec);
        }()),
        lev(nl),
        model(nl, lib),
        dict_field(model, 120, 0.03, 1001),
        inst_field(model, 120, 0.03, 1002),
        sim(nl, lev),
        dict_sim(dict_field, lev),
        inst_sim(inst_field, lev),
        size_model(model.mean_cell_delay(), 0.5, 1.0, 0.5, 1003) {
    // 16 patterns, not fewer: with 8, the only pattern reaching clk
    // sensitizes every suspect, so no collapsed suspect ever shares a
    // baseline other than all-zero and a wrong shared lane goes unseen.
    stats::Rng rng(1004);
    for (int i = 0; i < 16; ++i) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
    stats::SampleVector delta(dict_field.sample_count(), 0.0);
    for (const auto& p : patterns) {
      const paths::TransitionGraph tg(sim, lev, p);
      const auto m = dict_sim.simulate(tg);
      delta.max_with(dict_sim.induced_delay(tg, m));
    }
    clk = delta.quantile(0.9);
  }

  /// A chip that observably fails: a defect near `preferred` (the random
  /// patterns do not sensitize every arc, so scan forward to one they do),
  /// size escalated until the behavior matrix shows a failing cell.
  BehaviorMatrix failing_chip(ArcId preferred, std::size_t sample_index) const {
    for (ArcId offset = 0; offset < nl.arc_count(); ++offset) {
      const auto arc =
          static_cast<ArcId>((preferred + offset) % nl.arc_count());
      double size = size_model.marginal_mean();
      for (int tries = 0; tries < 12; ++tries) {
        auto B = observe_behavior(inst_sim, sim, lev, patterns, sample_index,
                                  std::make_pair(arc, size), clk);
        if (B.any_failure()) return B;
        size *= 2.0;
      }
    }
    ADD_FAILURE() << "no arc yields a failing chip";
    return BehaviorMatrix(nl.outputs().size(), patterns.size());
  }

  /// The product path; a null cache scores through a call-local one.
  DiagnosisResult diagnose(const BehaviorMatrix& B,
                           const SignatureCache* cache, bool match_e = true,
                           bool capture_phi = true,
                           std::size_t max_suspects = 0) const {
    DiagnoserConfig config;
    config.capture_phi = capture_phi;
    config.match_on_total_probability = match_e;
    config.max_suspects = max_suspects;
    config.cache = cache;
    const Diagnoser d(dict_sim, sim, lev, size_model, config);
    return d.diagnose(patterns, B, methods, clk);
  }

  DiagnosisResult oracle(const BehaviorMatrix& B, bool match_e = true,
                         std::size_t max_suspects = 0) const {
    return test::oracle_diagnose(dict_sim, sim, lev, size_model, patterns, B,
                                 methods, clk, match_e, max_suspects);
  }
};

/// Without `b_captured_phi`, b's phi matrix must be empty instead.
void expect_identical(const DiagnosisResult& a, const DiagnosisResult& b,
                      bool b_captured_phi = true) {
  EXPECT_EQ(a.suspects, b.suspects);
  EXPECT_EQ(a.scores, b.scores);  // exact: bit-identity is the contract
  EXPECT_EQ(a.keys, b.keys);
  if (b_captured_phi) {
    EXPECT_EQ(a.phi, b.phi);
  } else {
    EXPECT_TRUE(b.phi.empty());
  }
  for (const Method m : a.methods) {
    const auto ra = a.ranked(m);
    const auto rb = b.ranked(m);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].arc, rb[i].arc);
      EXPECT_EQ(ra[i].score, rb[i].score);
    }
  }
}

TEST(SignatureCache, KernelPathBitIdenticalToScalar) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             /*match_on_total_probability=*/true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 0);
  const auto oracle = f.oracle(B);
  expect_identical(oracle, f.diagnose(B, &cache));
  expect_identical(oracle, f.diagnose(B, nullptr));  // call-local cache
}

TEST(SignatureCache, ColumnsReusedAcrossChips) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 3);
  const auto B = f.failing_chip(arc, 0);

  const auto first = f.diagnose(B, &cache);
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.misses, 0U);
  EXPECT_GT(after_first.bytes, 0U);
  EXPECT_EQ(cache.output_count(), f.nl.outputs().size());

  // A second chip with the same behavior shape re-asks for the same
  // (pattern, suspect) columns: all hits, zero new builds or bytes.
  const auto second = f.diagnose(B, &cache);
  const auto after_second = cache.stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.bytes, after_first.bytes);
  EXPECT_GT(after_second.hits, after_first.hits);
  expect_identical(first, second);

  // A different chip still scores bit-identically to its own oracle run.
  const auto B2 = f.failing_chip(static_cast<ArcId>(f.nl.arc_count() / 5), 1);
  expect_identical(f.oracle(B2), f.diagnose(B2, &cache));
}

TEST(SignatureCache, ByteIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const KernelFixture f;
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 2);

  runtime::set_thread_count(1);
  const SignatureCache cache1(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                              true);
  const auto serial = f.diagnose(B, &cache1);

  runtime::set_thread_count(4);
  f.dict_sim.prewarm();
  const SignatureCache cache4(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                              true);
  const auto parallel = f.diagnose(B, &cache4);

  expect_identical(serial, parallel);
  expect_identical(f.oracle(B), parallel);
}

TEST(SignatureCache, SharedCacheAcrossParallelChips) {
  // The experiment-loop shape: one cache, many chips diagnosed by parallel
  // workers.  Every chip must score exactly as its own oracle run.
  const ThreadCountGuard guard;
  const KernelFixture f;
  constexpr std::size_t kChips = 4;
  std::vector<BehaviorMatrix> chips;
  std::vector<DiagnosisResult> scalar;
  for (std::size_t c = 0; c < kChips; ++c) {
    const auto arc =
        static_cast<ArcId>((c + 1) * f.nl.arc_count() / (kChips + 2));
    chips.push_back(f.failing_chip(arc, c));
    scalar.push_back(f.oracle(chips.back()));
  }

  runtime::set_thread_count(4);
  f.dict_sim.prewarm();
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  std::vector<DiagnosisResult> kernel(kChips);
  runtime::parallel_for(kChips, [&](std::size_t c) {
    kernel[c] = f.diagnose(chips[c], &cache);
  });
  for (std::size_t c = 0; c < kChips; ++c) {
    expect_identical(scalar[c], kernel[c]);
  }
}

TEST(SignatureCache, SignatureMatchModeAlsoBitIdentical) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             /*match_on_total_probability=*/false);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 0);
  expect_identical(f.oracle(B, /*match_e=*/false),
                   f.diagnose(B, &cache, /*match_e=*/false));
}

// Every combination the product path distinguishes - match mode, phi
// capture, a binding max_suspects cap - at 1 and 4 threads, against the
// oracle.
TEST(SignatureCache, EveryModeMatchesOracleAtAnyThreadCount) {
  const ThreadCountGuard guard;
  const KernelFixture f;
  f.dict_sim.prewarm();
  const auto B = f.failing_chip(static_cast<ArcId>(f.nl.arc_count() / 2), 3);
  const std::size_t n_suspects = f.oracle(B).suspects.size();
  ASSERT_GT(n_suspects, 2U);
  const std::size_t cap = n_suspects / 2;
  for (const bool match_e : {true, false}) {
    const auto full = f.oracle(B, match_e);
    const auto capped = f.oracle(B, match_e, cap);
    ASSERT_EQ(capped.suspects.size(), cap);
    for (const std::size_t threads : {1, 4}) {
      runtime::set_thread_count(threads);
      const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model,
                                 f.clk, match_e);
      for (const bool capture : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "match_e=" << match_e << " threads=" << threads
                     << " capture=" << capture);
        expect_identical(full, f.diagnose(B, &cache, match_e, capture),
                         capture);
        expect_identical(capped,
                         f.diagnose(B, &cache, match_e, capture, cap),
                         capture);
        expect_identical(capped,
                         f.diagnose(B, nullptr, match_e, capture, cap),
                         capture);
      }
    }
  }
}

// The exactness condition of the shared lane, column by column: for every
// arc a pattern does not sensitize, the column PatternSlice builds is bit
// for bit the baseline gather() returns (M under E matching, +0.0 under S
// matching); every sensitized arc gets its own column.
TEST(SignatureCache, UnobservableColumnsEqualTheBaseline) {
  const KernelFixture f;
  std::vector<ArcId> arcs(f.nl.arc_count());
  for (ArcId a = 0; a < arcs.size(); ++a) arcs[a] = a;
  const auto same_bits = [](const std::vector<double>& col, const double* p) {
    return std::memcmp(col.data(), p, col.size() * sizeof(double)) == 0;
  };
  for (const bool match_e : {true, false}) {
    const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                               match_e);
    std::size_t shared = 0;
    for (const auto& pattern : f.patterns) {
      PatternLanes lanes;
      lanes.observable.resize(arcs.size());
      const double* baseline = cache.gather(pattern, arcs, lanes);
      const PatternSlice slice(f.dict_sim, f.sim, f.lev, pattern, f.clk);
      std::size_t k = 0;
      for (const ArcId a : arcs) {
        const auto col = match_e ? slice.e_column(a, f.size_model)
                                 : slice.signature_column(a, f.size_model);
        const double* expected = baseline;
        if (lanes.observable[a]) {
          ASSERT_LT(k, lanes.cols.size());
          expected = lanes.cols[k++];
        } else {
          ++shared;
        }
        EXPECT_TRUE(same_bits(col, expected))
            << "arc " << a << " match_e " << match_e;
      }
      EXPECT_EQ(k, lanes.cols.size());
    }
    EXPECT_GT(shared, 0U);
  }
}

TEST(SignatureCache, MismatchedCacheRejected) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 2);
  const auto B = f.failing_chip(arc, 0);

  DiagnoserConfig config;
  config.cache = &cache;
  const Diagnoser d(f.dict_sim, f.sim, f.lev, f.size_model, config);
  EXPECT_THROW((void)d.diagnose(f.patterns, B, f.methods, f.clk * 1.25),
               std::invalid_argument);

  config.match_on_total_probability = false;  // cache built with true
  const Diagnoser d2(f.dict_sim, f.sim, f.lev, f.size_model, config);
  EXPECT_THROW((void)d2.diagnose(f.patterns, B, f.methods, f.clk),
               std::invalid_argument);
}

TEST(SignatureCache, SizesMatchModelSamples) {
  const KernelFixture f;
  const SignatureCache cache(f.dict_sim, f.sim, f.lev, f.size_model, f.clk,
                             true);
  const ArcId arc = static_cast<ArcId>(f.nl.arc_count() / 4);
  const auto sizes = cache.sizes_for(arc);
  ASSERT_EQ(sizes.size(), f.dict_field.sample_count());
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    EXPECT_EQ(sizes[k], f.size_model.sample(arc, k));
  }
  // Same span on re-lookup: pointer-stable across map growth.
  for (ArcId a = 0; a < 32 && a < f.nl.arc_count(); ++a) {
    (void)cache.sizes_for(a);
  }
  EXPECT_EQ(cache.sizes_for(arc).data(), sizes.data());
}

}  // namespace
}  // namespace sddd::diagnosis
