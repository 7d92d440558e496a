// Unit tests of the benchmark's own statistics and schedule code
// (perfbench/src/stats.h).  Run with `python3 perfbench/run.py --selftest`.
#include "stats.h"

#include <gtest/gtest.h>

#include <set>

namespace perfbench {
namespace {

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values are Python's statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(b.q1, 1.0);
  EXPECT_DOUBLE_EQ(b.q2, 2.0);
  EXPECT_DOUBLE_EQ(b.q3, 3.0);
  const Quartiles c = quartiles({5, 1, 9, 2, 7, 4, 8});
  EXPECT_DOUBLE_EQ(c.q1, 2.0);
  EXPECT_DOUBLE_EQ(c.q2, 5.0);
  EXPECT_DOUBLE_EQ(c.q3, 8.0);
  const Quartiles d = quartiles({1.0, 2.0});
  EXPECT_DOUBLE_EQ(d.q1, 0.75);
  EXPECT_DOUBLE_EQ(d.q3, 2.25);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(relative_iqr({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                   (8.25 - 2.75) / 5.5);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 90), 90.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 100.0);
  const std::vector<double> one = {5.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(one, 90), 5.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(99, 90));  // 99 - ceil(89.1) = 9
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0.0);
}

Rung rung(double rate, double p90, std::size_t failed = 0,
          double gen_late = 0.1, double finish_late = 0.0) {
  Rung r;
  r.rate = rate;
  r.attempted = 500;
  r.failed = failed;
  r.p90_ms = p90;
  r.gen_late_p90_ms = gen_late;
  r.finish_late_s = finish_late;
  return r;
}

const LadderRule kRule{10.0, 2.0, 0.05};

TEST(Ladder, EveryRungPassesGivesTheTopRate) {
  const std::vector<Rung> r = {rung(100, 2), rung(200, 3), rung(300, 5)};
  EXPECT_DOUBLE_EQ(max_passing_rate(r, kRule), 300.0);
}

TEST(Ladder, LowestRungFailingGivesZero) {
  const std::vector<Rung> r = {rung(100, 12), rung(200, 3)};
  EXPECT_DOUBLE_EQ(max_passing_rate(r, kRule), 0.0);
}

TEST(Ladder, LatencyFailureInterpolatesTheCrossing) {
  // p90 crosses the 10 ms limit halfway between 6 ms at 200 and 14 ms at 300.
  const std::vector<Rung> r = {rung(100, 4), rung(200, 6), rung(300, 14),
                               rung(400, 3)};
  EXPECT_DOUBLE_EQ(max_passing_rate(r, kRule), 250.0);
}

TEST(Ladder, ClimbingStopsAtTheFirstFailure) {
  // The 400 rung passing again does not count: the climb stopped at 300.
  const std::vector<Rung> r = {rung(100, 4), rung(200, 6), rung(300, 14),
                               rung(400, 3)};
  EXPECT_LT(max_passing_rate(r, kRule), 300.0);
}

TEST(Ladder, InvalidOrFailingOrBackloggedRungStopsWithoutInterpolation) {
  // Generator ran late: the rung is invalid, not a server verdict.
  const std::vector<Rung> late = {rung(100, 4), rung(200, 12, 0, 5.0)};
  EXPECT_FALSE(rung_valid(late[1], kRule));
  EXPECT_DOUBLE_EQ(max_passing_rate(late, kRule), 100.0);
  // Failed requests miss every limit.
  const std::vector<Rung> failed = {rung(100, 4), rung(200, 5, 1)};
  EXPECT_DOUBLE_EQ(max_passing_rate(failed, kRule), 100.0);
  // A growing backlog fails the rung even when p90 looks fine.
  const std::vector<Rung> backlog = {rung(100, 4), rung(200, 5, 0, 0.1, 0.5)};
  EXPECT_FALSE(rung_passes(backlog[1], kRule));
  EXPECT_DOUBLE_EQ(max_passing_rate(backlog, kRule), 100.0);
}

TEST(Ladder, TooFewSamplesForAP90DoNotPass) {
  Rung r = rung(100, 4);
  r.attempted = 99;
  EXPECT_FALSE(rung_passes(r, kRule));
}

TEST(Ladder, RatesMustIncrease) {
  const std::vector<Rung> r = {rung(200, 4), rung(100, 4)};
  EXPECT_THROW(max_passing_rate(r, kRule), std::invalid_argument);
}

TEST(Schedule, SameSeedSameSchedule) {
  EXPECT_EQ(poisson_schedule(7, 100.0, 500), poisson_schedule(7, 100.0, 500));
  EXPECT_NE(poisson_schedule(7, 100.0, 500), poisson_schedule(8, 100.0, 500));
}

TEST(Schedule, PoissonArrivalsAtTheRequestedRate) {
  const std::vector<double> due = poisson_schedule(11, 200.0, 20000);
  for (std::size_t i = 1; i < due.size(); ++i) ASSERT_GT(due[i], due[i - 1]);
  EXPECT_NEAR(static_cast<double>(due.size()) / due.back(), 200.0, 6.0);
  EXPECT_THROW(poisson_schedule(1, 0.0, 10), std::invalid_argument);
}

TEST(Schedule, ChipChoiceIsSeededAndDistinct) {
  const auto a = choose_distinct(5, 3, 96, 6);
  EXPECT_EQ(a, choose_distinct(5, 3, 96, 6));
  EXPECT_NE(a, choose_distinct(5, 4, 96, 6));
  EXPECT_NE(a, choose_distinct(6, 3, 96, 6));
  const std::set<std::size_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 6u);
  for (const std::size_t i : a) EXPECT_LT(i, 96u);
  EXPECT_THROW(choose_distinct(1, 1, 4, 5), std::invalid_argument);
}

TEST(Schedule, DerivedSeedsAreIndependentStreams) {
  EXPECT_EQ(derive_seed(3, 1), derive_seed(3, 1));
  EXPECT_NE(derive_seed(3, 1), derive_seed(3, 2));
  EXPECT_NE(derive_seed(3, 1), derive_seed(4, 1));
}

}  // namespace
}  // namespace perfbench
