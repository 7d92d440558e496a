// Parameterized sweep over all eight Table I circuit profiles: the
// stand-in generator, levelization, timing model and sensitization
// machinery must hold up on every profile (at reduced scale so the sweep
// stays fast).
#include <gtest/gtest.h>

#include "atpg/diag_patterns.h"
#include "logicsim/bitsim.h"
#include "netlist/iscas_catalog.h"
#include "netlist/levelize.h"
#include "paths/transition_graph.h"
#include "stats/rng.h"
#include "timing/celllib.h"
#include "timing/delay_field.h"
#include "timing/delay_model.h"
#include "timing/dynamic_sim.h"

namespace sddd {
namespace netlist {

// gtest appends the printed parameter to each registered test name; the
// default pointer printer would put a per-process (ASLR) address there, so
// the names would change from one build or test discovery to the next.
static void PrintTo(const IscasProfile* profile, std::ostream* os) {
  *os << profile->name;
}

}  // namespace netlist

namespace {

using netlist::ArcId;
using netlist::GateId;
using netlist::IscasProfile;

class CatalogSweep : public ::testing::TestWithParam<const IscasProfile*> {};

TEST_P(CatalogSweep, StandinShapeMatchesProfile) {
  const auto& profile = *GetParam();
  const auto nl = netlist::make_standin(profile, 0.15, 5);
  EXPECT_EQ(nl.inputs().size(), profile.n_pi + profile.n_ff);
  EXPECT_EQ(nl.outputs().size(), profile.n_po + profile.n_ff);
  EXPECT_EQ(nl.dff_count(), 0u);
  const netlist::Levelization lev(nl);
  EXPECT_GE(lev.depth(), 1u);
  EXPECT_LE(lev.depth(), profile.depth);
  // K values from the paper are usable on this circuit.
  for (const int k : profile.table1_k) {
    EXPECT_GE(k, 1);
    EXPECT_LT(static_cast<std::size_t>(k), nl.arc_count());
  }
}

TEST_P(CatalogSweep, TimingAndSensitizationRun) {
  const auto& profile = *GetParam();
  const auto nl = netlist::make_standin(profile, 0.15, 7);
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  const timing::DelayField field(model, 40, 0.03, 9);
  const timing::DynamicTimingSimulator dyn(field, lev);
  const logicsim::BitSimulator sim(nl, lev);
  stats::Rng rng(11);
  std::size_t toggling_outputs = 0;
  for (int t = 0; t < 4; ++t) {
    const auto pp = atpg::random_pattern_pair(nl.inputs().size(), rng);
    const paths::TransitionGraph tg(sim, lev, pp);
    const auto arrivals = dyn.simulate(tg);
    const auto delta = dyn.induced_delay(tg, arrivals);
    EXPECT_GE(delta.max_value(), 0.0);
    for (const GateId o : nl.outputs()) {
      if (!tg.toggles(o)) continue;
      ++toggling_outputs;
      ASSERT_TRUE(arrivals.has(o));
      for (std::size_t k = 0; k < 40; ++k) {
        EXPECT_GT(arrivals.rows[o][k], 0.0);
      }
    }
  }
  EXPECT_GT(toggling_outputs, 0u);
}

TEST_P(CatalogSweep, DiagnosticPatternsGenerate) {
  const auto& profile = *GetParam();
  const auto nl = netlist::make_standin(profile, 0.15, 13);
  const netlist::Levelization lev(nl);
  const timing::StatisticalCellLibrary lib;
  const timing::ArcDelayModel model(nl, lib);
  stats::Rng rng(17);
  atpg::DiagnosticPatternConfig config;
  config.paths_per_site = 2;
  config.site_search_tries = 64;
  config.max_patterns = 8;
  const auto site = static_cast<ArcId>(nl.arc_count() / 2);
  const auto patterns =
      atpg::generate_diagnostic_patterns(model, lev, site, config, rng);
  EXPECT_GE(patterns.size(), 1u);
  EXPECT_LE(patterns.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTable1Circuits, CatalogSweep,
    ::testing::Values(&netlist::table1_circuits()[0],
                      &netlist::table1_circuits()[1],
                      &netlist::table1_circuits()[2],
                      &netlist::table1_circuits()[3],
                      &netlist::table1_circuits()[4],
                      &netlist::table1_circuits()[5],
                      &netlist::table1_circuits()[6],
                      &netlist::table1_circuits()[7]),
    [](const ::testing::TestParamInfo<const IscasProfile*>& param_info) {
      return std::string(param_info.param->name);
    });

}  // namespace
}  // namespace sddd
