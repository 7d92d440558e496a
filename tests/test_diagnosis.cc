// Unit tests for the diagnosis core: behavior matrices, the probabilistic
// fault dictionary (M/E/S matrices and their invariants), phi computation
// (reproducing the paper's worked Example E.1), the four error functions,
// score accumulation, ranking and suspect extraction.
#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/pdf_atpg.h"
#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/error_fn.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "netlist/synth.h"
#include "stats/rng.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd::diagnosis {
namespace {

using logicsim::BitSimulator;
using logicsim::PatternPair;
using netlist::ArcId;
using netlist::GateId;
using netlist::Levelization;
using netlist::Netlist;

TEST(Phi, ReproducesPaperExampleE1) {
  // Example E.1: B_j = [0, 1, 1], S_j = [0.4, 0.3, 0.1]
  //   p = [0.6, 0.3, 0.1], phi = 0.018.
  const std::vector<double> s = {0.4, 0.3, 0.1};
  const std::vector<bool> b = {false, true, true};
  EXPECT_NEAR(phi(s, b), 0.018, 1e-12);
}

TEST(Phi, AllZeroSignatureMatchesAllPassing) {
  const std::vector<double> s = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(phi(s, {false, false}), 1.0);
  EXPECT_DOUBLE_EQ(phi(s, {true, false}), 0.0);
}

TEST(Phi, SizeMismatchThrows) {
  const std::vector<double> s = {0.1};
  EXPECT_THROW((void)phi(s, {true, false}), std::invalid_argument);
}

TEST(ErrorFn, MethodFormulas) {
  const std::vector<double> phis = {0.5, 0.2};
  EXPECT_NEAR(make_error_fn(Method::kSimI)->score(phis),
              1.0 - 0.5 * 0.8, 1e-12);
  EXPECT_NEAR(make_error_fn(Method::kSimII)->score(phis), 0.35, 1e-12);
  EXPECT_NEAR(make_error_fn(Method::kSimIII)->score(phis), 0.1, 1e-12);
  EXPECT_NEAR(make_error_fn(Method::kRev)->score(phis),
              0.25 + 0.64, 1e-12);
}

TEST(ErrorFn, Direction) {
  EXPECT_TRUE(make_error_fn(Method::kSimI)->higher_is_better());
  EXPECT_TRUE(make_error_fn(Method::kSimII)->higher_is_better());
  EXPECT_TRUE(make_error_fn(Method::kSimIII)->higher_is_better());
  EXPECT_FALSE(make_error_fn(Method::kRev)->higher_is_better());
  EXPECT_TRUE(ranks_better(Method::kSimII, 0.9, 0.1));
  EXPECT_TRUE(ranks_better(Method::kRev, 0.1, 0.9));
}

TEST(ErrorFn, AccumulatorMatchesBatchScore) {
  const std::vector<double> phis = {0.9, 0.01, 0.4, 0.7};
  ScoreAccumulator acc;
  for (const double p : phis) acc.add_phi(p);
  for (const Method m : {Method::kSimI, Method::kSimII, Method::kSimIII,
                         Method::kRev}) {
    EXPECT_NEAR(acc.finish(m, phis.size()), make_error_fn(m)->score(phis),
                1e-12)
        << method_name(m);
  }
}

TEST(ErrorFn, MethodIIIVanishesOnOneMismatch) {
  // The paper's Section I observation: one impossible pattern zeroes the
  // whole Method III score.
  const std::vector<double> phis = {0.9, 0.0, 0.8};
  EXPECT_DOUBLE_EQ(make_error_fn(Method::kSimIII)->score(phis), 0.0);
  EXPECT_GT(make_error_fn(Method::kSimII)->score(phis), 0.0);
  EXPECT_GT(make_error_fn(Method::kSimI)->score(phis), 0.0);
}

TEST(ErrorFn, Names) {
  EXPECT_EQ(method_name(Method::kSimI), "Alg_sim-I");
  EXPECT_EQ(method_name(Method::kRev), "Alg_rev");
  EXPECT_EQ(make_error_fn(Method::kSimII)->name(), "Alg_sim-II");
}

TEST(BehaviorMatrix, BasicAccessors) {
  BehaviorMatrix B(3, 2);
  EXPECT_FALSE(B.any_failure());
  EXPECT_EQ(B.failure_count(), 0u);
  B.set(1, 0, true);
  B.set(2, 1, true);
  EXPECT_TRUE(B.any_failure());
  EXPECT_EQ(B.failure_count(), 2u);
  EXPECT_TRUE(B.at(1, 0));
  EXPECT_FALSE(B.at(0, 0));
  const auto fp = B.failing_patterns();
  EXPECT_EQ(fp, (std::vector<std::size_t>{0, 1}));
}

struct DiagFixture {
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

  DiagFixture()
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
        dict_field(model, 250, 0.03, 1001),
        inst_field(model, 250, 0.03, 1002),
        sim(nl, lev),
        dict_sim(dict_field, lev),
        inst_sim(inst_field, lev),
        size_model(model.mean_cell_delay(), 0.5, 1.0, 0.5, 1003) {
    stats::Rng rng(1004);
    for (int i = 0; i < 10; ++i) {
      patterns.push_back(atpg::random_pattern_pair(nl.inputs().size(), rng));
    }
    // Set clk near the median induced delay so critical probabilities are
    // informative in both directions.
    stats::SampleVector delta(dict_field.sample_count(), 0.0);
    for (const auto& p : patterns) {
      const paths::TransitionGraph tg(sim, lev, p);
      const auto m = dict_sim.simulate(tg);
      delta.max_with(dict_sim.induced_delay(tg, m));
    }
    clk = delta.quantile(0.9);
  }
};

TEST(PatternSlice, MColumnMatchesErrorVector) {
  DiagFixture f;
  for (const auto& p : f.patterns) {
    const PatternSlice slice(f.dict_sim, f.sim, f.lev, p, f.clk);
    const auto m = f.dict_sim.simulate(slice.transition_graph());
    EXPECT_EQ(slice.m_column(),
              f.dict_sim.error_vector(slice.transition_graph(), m, f.clk));
  }
}

TEST(PatternSlice, SignatureIsNonNegativeForAllSuspects) {
  // Definition E.1: err_ij >= crt_ij, so S >= 0 everywhere.
  DiagFixture f;
  const PatternSlice slice(f.dict_sim, f.sim, f.lev, f.patterns[0], f.clk);
  for (ArcId a = 0; a < f.nl.arc_count(); a += 5) {
    const auto s = slice.signature_column(a, f.size_model);
    for (const double x : s) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);
    }
  }
}

TEST(PatternSlice, InactiveSuspectHasZeroSignature) {
  DiagFixture f;
  const PatternSlice slice(f.dict_sim, f.sim, f.lev, f.patterns[0], f.clk);
  const auto& tg = slice.transition_graph();
  for (ArcId a = 0; a < f.nl.arc_count(); ++a) {
    if (tg.is_active(a)) continue;
    const auto s = slice.signature_column(a, f.size_model);
    for (const double x : s) EXPECT_DOUBLE_EQ(x, 0.0);
    break;
  }
}

TEST(FaultDictionary, MatricesConsistent) {
  DiagFixture f;
  const FaultDictionary dict(f.dict_sim, f.sim, f.lev, f.patterns, f.clk);
  EXPECT_EQ(dict.pattern_count(), f.patterns.size());
  const auto m = dict.m_matrix();
  ASSERT_EQ(m.size(), f.nl.outputs().size());
  for (std::size_t j = 0; j < dict.pattern_count(); ++j) {
    const auto& col = dict.slice(j).m_column();
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_DOUBLE_EQ(m[i][j], col[i]);
    }
  }
  const auto e = dict.e_matrix(0, f.size_model);
  for (std::size_t i = 0; i < e.size(); ++i) {
    for (std::size_t j = 0; j < dict.pattern_count(); ++j) {
      EXPECT_GE(e[i][j], m[i][j] - 1e-12);
    }
  }
}

TEST(ObserveBehavior, DefectFreePassesAtLargeClk) {
  DiagFixture f;
  const auto B = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns, 3,
                                  std::nullopt, 1e9);
  EXPECT_FALSE(B.any_failure());
}

TEST(ObserveBehavior, BigDefectFailsConeOutputs) {
  DiagFixture f;
  // Find an arc active under pattern 0 with a toggling PO in its cone.
  const paths::TransitionGraph tg(f.sim, f.lev, f.patterns[0]);
  for (ArcId a = 0; a < f.nl.arc_count(); ++a) {
    if (!tg.is_active(a)) continue;
    bool reaches_po = false;
    for (const GateId g : tg.forward_cone(f.nl.arc(a).gate)) {
      reaches_po |= f.nl.output_index(g) >= 0;
    }
    if (!reaches_po) continue;
    const auto B = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns, 7,
                                    std::make_pair(a, 1e6), f.clk);
    EXPECT_TRUE(B.any_failure());
    return;
  }
  FAIL() << "no active arc reaching a PO found";
}

TEST(Diagnoser, SuspectsCoverFailingCones) {
  DiagFixture f;
  // Inject a huge defect so failures are unambiguous.
  const paths::TransitionGraph tg(f.sim, f.lev, f.patterns[0]);
  ArcId site = netlist::kInvalidArc;
  for (ArcId a = 0; a < f.nl.arc_count(); ++a) {
    if (tg.is_active(a)) {
      for (const GateId g : tg.forward_cone(f.nl.arc(a).gate)) {
        if (f.nl.output_index(g) >= 0) {
          site = a;
          break;
        }
      }
    }
    if (site != netlist::kInvalidArc) break;
  }
  ASSERT_NE(site, netlist::kInvalidArc);
  const auto B = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns, 11,
                                  std::make_pair(site, 1e6), f.clk);
  ASSERT_TRUE(B.any_failure());
  const Diagnoser diagnoser(f.dict_sim, f.sim, f.lev, f.size_model);
  const auto suspects = diagnoser.extract_suspects(f.patterns, B);
  EXPECT_FALSE(suspects.empty());
  EXPECT_NE(std::find(suspects.begin(), suspects.end(), site),
            suspects.end());
}

TEST(Diagnoser, MaxSuspectsCapRespected) {
  DiagFixture f;
  const paths::TransitionGraph tg(f.sim, f.lev, f.patterns[0]);
  ArcId site = netlist::kInvalidArc;
  for (ArcId a = 0; a < f.nl.arc_count() && site == netlist::kInvalidArc;
       ++a) {
    if (!tg.is_active(a)) continue;
    for (const GateId g : tg.forward_cone(f.nl.arc(a).gate)) {
      if (f.nl.output_index(g) >= 0) {
        site = a;
        break;
      }
    }
  }
  ASSERT_NE(site, netlist::kInvalidArc);
  const auto B = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns, 2,
                                  std::make_pair(site, 1e6), f.clk);
  ASSERT_TRUE(B.any_failure());
  DiagnoserConfig config;
  config.max_suspects = 5;
  const Diagnoser diagnoser(f.dict_sim, f.sim, f.lev, f.size_model, config);
  EXPECT_LE(diagnoser.extract_suspects(f.patterns, B).size(), 5u);
}

TEST(Diagnoser, ScoresAllMethodsInOnePass) {
  DiagFixture f;
  const paths::TransitionGraph tg(f.sim, f.lev, f.patterns[0]);
  ArcId site = netlist::kInvalidArc;
  for (ArcId a = 0; a < f.nl.arc_count(); ++a) {
    if (!tg.is_active(a)) continue;
    for (const GateId g : tg.forward_cone(f.nl.arc(a).gate)) {
      if (f.nl.output_index(g) >= 0) {
        site = a;
        break;
      }
    }
    if (site != netlist::kInvalidArc) break;
  }
  ASSERT_NE(site, netlist::kInvalidArc);
  const auto B = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns, 13,
                                  std::make_pair(site, 1e6), f.clk);
  ASSERT_TRUE(B.any_failure());
  const Diagnoser diagnoser(f.dict_sim, f.sim, f.lev, f.size_model);
  const std::vector<Method> methods = {Method::kSimI, Method::kSimII,
                                       Method::kSimIII, Method::kRev};
  const auto result = diagnoser.diagnose(f.patterns, B, methods, f.clk);
  EXPECT_EQ(result.methods.size(), 4u);
  EXPECT_EQ(result.scores.size(), 4u);
  for (const auto& sc : result.scores) {
    EXPECT_EQ(sc.size(), result.suspects.size());
  }
  // Rankings are permutations of the suspect set and respect direction.
  for (const Method m : methods) {
    const auto ranked = result.ranked(m);
    EXPECT_EQ(ranked.size(), result.suspects.size());
    for (std::size_t i = 1; i < ranked.size(); ++i) {
      EXPECT_FALSE(ranks_better(m, ranked[i].score, ranked[i - 1].score));
    }
  }
  // hit_within is consistent with ranked().
  const auto ranked = result.ranked(Method::kRev);
  if (!ranked.empty()) {
    EXPECT_TRUE(result.hit_within(Method::kRev, ranked[0].arc, 1));
    if (ranked.size() > 3) {
      EXPECT_FALSE(result.hit_within(Method::kRev, ranked[3].arc, 2));
    }
  }
  EXPECT_THROW((void)result.ranked(static_cast<Method>(99)),
               std::invalid_argument);
}

TEST(Diagnoser, BigDefectRanksTrueSiteHighly) {
  // With an unmistakably large defect and the dictionary knowing the size
  // model, the true site should rank near the top for Alg_rev.
  DiagFixture f;
  defect::DefectSizeModel big(f.model.mean_cell_delay(), 10.0, 12.0, 0.3, 77);
  const paths::TransitionGraph tg(f.sim, f.lev, f.patterns[0]);
  // Site: the final active arc into the latest-arriving toggling output of
  // pattern 0 - guaranteed observable, minimal masking.
  const auto nominal = timing::nominal_arrivals(tg, f.model, f.lev);
  GateId best_po = netlist::kInvalidGate;
  for (const GateId o : f.nl.outputs()) {
    if (!tg.toggles(o)) continue;
    if (best_po == netlist::kInvalidGate || nominal[o] > nominal[best_po]) {
      best_po = o;
    }
  }
  ASSERT_NE(best_po, netlist::kInvalidGate);
  ASSERT_FALSE(tg.active_fanins(best_po).empty());
  const ArcId site = tg.active_fanins(best_po).front();
  const double size = big.marginal_mean();
  // Scan chip samples until one fails *because of the defect* (a slow chip
  // failing on baseline alone carries no information about the site).
  BehaviorMatrix B(f.nl.outputs().size(), 0);
  bool caused = false;
  for (std::size_t chip = 0; chip < f.inst_field.sample_count() && !caused;
       ++chip) {
    B = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns, chip,
                         std::make_pair(site, size), f.clk);
    if (!B.any_failure()) continue;
    const auto B0 = observe_behavior(f.inst_sim, f.sim, f.lev, f.patterns,
                                     chip, std::nullopt, f.clk);
    for (std::size_t i = 0; i < B.output_count() && !caused; ++i) {
      for (std::size_t j = 0; j < B.pattern_count(); ++j) {
        if (B.at(i, j) && !B0.at(i, j)) {
          caused = true;
          break;
        }
      }
    }
  }
  ASSERT_TRUE(caused) << "no chip fails because of a 4-5x cell-delay defect";
  const Diagnoser diagnoser(f.dict_sim, f.sim, f.lev, big);
  const std::vector<Method> methods = {Method::kRev};
  const auto result = diagnoser.diagnose(f.patterns, B, methods, f.clk);
  // The true arc should be within the top quarter of the suspect list.
  const auto ranked = result.ranked(Method::kRev);
  int rank = -1;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (ranked[i].arc == site) rank = static_cast<int>(i);
  }
  ASSERT_GE(rank, 0);
  // Top quarter of the suspect list, with a floor of 3 for tiny suspect
  // sets (equivalent arcs on the same path can tie ahead of the site).
  EXPECT_LE(rank, std::max(3, static_cast<int>(ranked.size()) / 4 + 1));
}

}  // namespace
}  // namespace sddd::diagnosis
