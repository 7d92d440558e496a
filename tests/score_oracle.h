// score_oracle.h - The scalar scoring reference every product scoring
// path must reproduce bit for bit.
//
// Algorithm E.1 written the plain way: suspect support counted from the
// failing cells' cones with the best-supported kept under a cap, then per
// pattern one PatternSlice, per (suspect, pattern) a freshly simulated
// column and one scalar phi(), each phi fed to the suspect's
// ScoreAccumulator in pattern order.  No cache, no packed kernel, no
// collapse of unobservable suspects, no threads - so a match against the
// Diagnoser or the store engine checks all of those at once.  phi is
// always captured.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/error_fn.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "paths/transition_graph.h"
#include "timing/dynamic_sim.h"

namespace sddd::test {

inline diagnosis::DiagnosisResult oracle_diagnose(
    const timing::DynamicTimingSimulator& sim,
    const logicsim::BitSimulator& logic_sim, const netlist::Levelization& lev,
    const defect::DefectSizeModel& size_model,
    std::span<const logicsim::PatternPair> patterns,
    const diagnosis::BehaviorMatrix& B,
    std::span<const diagnosis::Method> methods, double clk, bool match_e,
    std::size_t max_suspects) {
  using netlist::ArcId;
  const auto& nl = logic_sim.netlist();
  std::vector<std::uint32_t> support(nl.arc_count(), 0);
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const paths::TransitionGraph tg(logic_sim, lev, patterns[j]);
    for (const netlist::GateId o : B.failing_output_gates(nl, j)) {
      const auto cone = tg.cone_to_output(o);
      for (ArcId a = 0; a < nl.arc_count(); ++a) support[a] += cone[a];
    }
  }
  diagnosis::DiagnosisResult r;
  for (ArcId a = 0; a < nl.arc_count(); ++a) {
    if (support[a] > 0) r.suspects.push_back(a);
  }
  std::stable_sort(r.suspects.begin(), r.suspects.end(),
                   [&](ArcId a, ArcId b) { return support[a] > support[b]; });
  if (max_suspects > 0 && r.suspects.size() > max_suspects) {
    r.suspects.resize(max_suspects);
  }
  std::sort(r.suspects.begin(), r.suspects.end());

  r.methods.assign(methods.begin(), methods.end());
  r.mc_samples = sim.field().sample_count();
  r.phi.assign(r.suspects.size(), std::vector<double>(patterns.size()));
  std::vector<diagnosis::ScoreAccumulator> acc(r.suspects.size());
  std::vector<bool> b_col(B.output_count());
  for (std::size_t j = 0; j < patterns.size(); ++j) {
    const diagnosis::PatternSlice slice(sim, logic_sim, lev, patterns[j], clk);
    for (std::size_t i = 0; i < b_col.size(); ++i) b_col[i] = B.at(i, j);
    for (std::size_t s = 0; s < r.suspects.size(); ++s) {
      const std::vector<double> col =
          match_e ? slice.e_column(r.suspects[s], size_model)
                  : slice.signature_column(r.suspects[s], size_model);
      r.phi[s][j] = diagnosis::phi(col, b_col);
      acc[s].add_phi(r.phi[s][j]);
    }
  }
  for (const diagnosis::Method m : r.methods) {
    r.scores.emplace_back();
    r.keys.emplace_back();
    for (const auto& a : acc) {
      r.scores.back().push_back(a.finish(m, patterns.size()));
      r.keys.back().push_back(a.ranking_key(m, patterns.size()));
    }
  }
  return r;
}

}  // namespace sddd::test
