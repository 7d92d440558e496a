// Edge-case tests for the incremental diagnosis scoring (error_fn.h):
// phi exactly 0 and exactly 1, the empty pattern set, agreement between
// the incremental accumulator and the batch DiagnosisErrorFn, and order
// agreement between ranking_key() and finish() when nothing underflows.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "diagnosis/error_fn.h"

namespace sddd::diagnosis {
namespace {

constexpr std::array<Method, 4> kAllMethods = {Method::kSimI, Method::kSimII,
                                               Method::kSimIII, Method::kRev};

ScoreAccumulator accumulate(const std::vector<double>& phis) {
  ScoreAccumulator acc;
  for (const double p : phis) acc.add_phi(p);
  return acc;
}

TEST(ScoreAccumulator, PhiExactlyZero) {
  // phi = 0: the suspect predicts the observed column with probability 0.
  const auto acc = accumulate({0.0});
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimI, 1), 0.0);
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimII, 1), 0.0);

  // Method III floors log(0), so finish() lands at the floor rather than a
  // NaN/-inf; it must still be (essentially) zero and finite.
  EXPECT_TRUE(std::isfinite(acc.finish(Method::kSimIII, 1)));
  EXPECT_LE(acc.finish(Method::kSimIII, 1), 1e-299);
  EXPECT_TRUE(std::isfinite(acc.ranking_key(Method::kSimIII, 1)));

  EXPECT_DOUBLE_EQ(acc.finish(Method::kRev, 1), 1.0);  // distance (1 - 0)^2
}

TEST(ScoreAccumulator, PhiExactlyOne) {
  // phi = 1: a certain match.  Method I clamps 1 - phi away from zero to
  // keep the log finite, so its score is 1 up to that epsilon.
  const auto acc = accumulate({1.0});
  EXPECT_NEAR(acc.finish(Method::kSimI, 1), 1.0, 1e-15);
  EXPECT_TRUE(std::isfinite(acc.ranking_key(Method::kSimI, 1)));
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimII, 1), 1.0);
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimIII, 1), 1.0);
  EXPECT_DOUBLE_EQ(acc.finish(Method::kRev, 1), 0.0);  // perfect: zero distance
}

TEST(ScoreAccumulator, EmptyPatternSet) {
  const ScoreAccumulator acc;
  for (const Method m : kAllMethods) {
    EXPECT_TRUE(std::isfinite(acc.finish(m, 0))) << method_name(m);
    EXPECT_TRUE(std::isfinite(acc.ranking_key(m, 0))) << method_name(m);
  }
  // Neutral elements of each aggregation.
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimI, 0), 0.0);
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimII, 0), 0.0);
  EXPECT_DOUBLE_EQ(acc.finish(Method::kSimIII, 0), 1.0);
  EXPECT_DOUBLE_EQ(acc.finish(Method::kRev, 0), 0.0);
}

TEST(ScoreAccumulator, MatchesBatchErrorFn) {
  const std::vector<double> phis = {0.9, 0.25, 0.6, 0.05};
  const auto acc = accumulate(phis);
  for (const Method m : kAllMethods) {
    const auto fn = make_error_fn(m);
    EXPECT_NEAR(acc.finish(m, phis.size()), fn->score(phis), 1e-12)
        << method_name(m);
    EXPECT_EQ(fn->higher_is_better(), m != Method::kRev) << method_name(m);
  }
}

TEST(ScoreAccumulator, RankingKeyAgreesWithFinish) {
  // Distinct, moderate phi vectors: no underflow, so the probability-domain
  // finish() and the log-domain ranking_key() must order every pair the
  // same way under every method.
  const std::vector<std::vector<double>> suspects = {
      {0.9, 0.8, 0.7},
      {0.5, 0.5, 0.5},
      {0.1, 0.2, 0.3},
      {0.99, 0.01, 0.5},
      {0.33, 0.66, 0.11},
  };
  for (const Method m : kAllMethods) {
    std::vector<double> scores;
    std::vector<double> keys;
    for (const auto& phis : suspects) {
      const auto acc = accumulate(phis);
      scores.push_back(acc.finish(m, phis.size()));
      keys.push_back(acc.ranking_key(m, phis.size()));
    }
    for (std::size_t a = 0; a < suspects.size(); ++a) {
      for (std::size_t b = 0; b < suspects.size(); ++b) {
        EXPECT_EQ(ranks_better(m, scores[a], scores[b]),
                  ranks_better(m, keys[a], keys[b]))
            << method_name(m) << " suspects " << a << " vs " << b;
      }
    }
  }
}

TEST(ScoreAccumulator, RankingKeySurvivesUnderflow) {
  // 200 patterns at phi = 1e-10: prod phi underflows finish() to zero for
  // Method III, yet the log-domain key still separates a suspect with one
  // additional bad pattern from one without.
  ScoreAccumulator better;
  ScoreAccumulator worse;
  for (int j = 0; j < 200; ++j) {
    better.add_phi(1e-10);
    worse.add_phi(1e-10);
  }
  worse.add_phi(1e-10);
  // the underflow the key exists for
  EXPECT_EQ(better.finish(Method::kSimIII, 200), 0.0);
  EXPECT_TRUE(ranks_better(Method::kSimIII,
                           better.ranking_key(Method::kSimIII, 200),
                           worse.ranking_key(Method::kSimIII, 201)));
}

}  // namespace
}  // namespace sddd::diagnosis
