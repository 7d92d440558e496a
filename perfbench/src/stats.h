// stats.h - The benchmark's own statistics and load-schedule helpers.
//
// Everything here is a pure function of its arguments, so the unit tests
// in perfbench/tests/stats_test.cc pin it down exactly:
//   * median / quartiles - quartiles follow Python's
//     statistics.quantiles(data, n=4) ("exclusive" method), the rule the
//     spread of a metric is judged by;
//   * nearest-rank percentiles and the reporting rule "the highest
//     percentile that still has at least ten samples beyond it";
//   * the rate-ladder rule behind ops_per_s on the serve workloads;
//   * the seeded open-loop schedule (Poisson arrivals) and the seeded
//     choice of chips per request.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// SplitMix64: a tiny, fully specified generator, so a schedule made from
/// a seed is the same on every compiler and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1]: never 0, so -log(u) is finite.
  double uniform_open0() {
    return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// A seed for one named use of the workload seed (schedule, chip choice,
/// experiment round ...), so the streams stay independent.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 g(seed ^ (salt * 0xd6e8feb86659fd93ULL));
  return g.next();
}

inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Python's statistics.quantiles(data, n=4) with the default "exclusive"
/// method; needs at least two samples.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long long>(v.size());
  const long long m = ld + 1;
  double out[3];
  for (long long i = 1; i <= 3; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    out[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {out[0], out[1], out[2]};
}

/// (q3 - q1) / q2: the spread of a metric's values over runs.
inline double relative_iqr(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return (q.q3 - q.q1) / q.q2;
}

/// 1-based nearest rank of the p-th percentile of n samples; the epsilon
/// keeps 99.9 % of 10000 at rank 9990 despite rounding in p / 100 * n.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double x = p / 100.0 * static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(x - 1e-9 * std::max(1.0, x)));
}

/// Nearest-rank percentile of a sorted sample (p in (0, 100]).
inline double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t rank =
      std::clamp<std::size_t>(nearest_rank(sorted.size(), p), 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank = nearest_rank(n, p);
  return n > rank ? n - rank : 0;
}

/// True when the p-th percentile of n samples has at least `min_beyond`
/// samples beyond it - the condition for reporting it at all.
inline bool percentile_supported(std::size_t n, double p,
                                 std::size_t min_beyond = 10) {
  return samples_beyond(n, p) >= min_beyond;
}

/// The highest of the usual reporting percentiles (50, 90, 99, 99.9) that
/// has at least `min_beyond` samples beyond it; 0 when even the median
/// has too few.
inline double highest_supported_percentile(std::size_t n,
                                           std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (percentile_supported(n, p, min_beyond)) best = p;
  }
  return best;
}

/// One rung of a fixed open-loop rate ladder.
struct Rung {
  double rate = 0.0;          ///< offered requests per second
  std::size_t attempted = 0;  ///< requests scheduled
  std::size_t failed = 0;     ///< shed, errored, expired or mismatched
  double p90_ms = 0.0;        ///< client latency from due time
  double gen_late_p90_ms = 0.0;  ///< how late the generator sent
  double finish_late_s = 0.0;    ///< last completion - last due time
};

struct LadderRule {
  double p90_limit_ms = 0.0;     ///< latency limit at p90
  double gen_late_limit_ms = 0.0;  ///< above this the rung is invalid
  double backlog_slack_s = 0.0;  ///< allowed finish lateness
};

/// A rung is invalid when the generator itself ran late: its latency
/// says nothing about the server.
inline bool rung_valid(const Rung& r, const LadderRule& rule) {
  return r.attempted > 0 && r.gen_late_p90_ms <= rule.gen_late_limit_ms;
}

/// A valid rung passes when nothing failed, p90 meets the limit (with
/// enough samples to state a p90) and the run kept up with its schedule.
inline bool rung_passes(const Rung& r, const LadderRule& rule) {
  return rung_valid(r, rule) && r.failed == 0 &&
         percentile_supported(r.attempted, 90.0) &&
         r.p90_ms <= rule.p90_limit_ms &&
         r.finish_late_s <= rule.backlog_slack_s;
}

/// The highest rate the ladder sustains.  Rungs (in increasing rate
/// order) are climbed from the lowest while each passes.  When the first
/// rung that does not pass is valid, kept up with its schedule and failed
/// only on the p90 limit, the result is interpolated linearly in p90
/// between it and the last passing rung, so a rung that just passes or
/// just fails moves the result a little, not a whole step.  0 when the
/// lowest rung already fails; the top rate when every rung passes.
inline double max_passing_rate(std::span<const Rung> rungs,
                               const LadderRule& rule) {
  const Rung* pass = nullptr;
  double prev = 0.0;
  for (const Rung& r : rungs) {
    if (r.rate <= prev) throw std::invalid_argument("ladder not increasing");
    prev = r.rate;
    if (rung_passes(r, rule)) {
      pass = &r;
      continue;
    }
    if (pass == nullptr) return 0.0;
    const bool latency_only = rung_valid(r, rule) && r.failed == 0 &&
                              r.finish_late_s <= rule.backlog_slack_s &&
                              r.p90_ms > rule.p90_limit_ms;
    if (!latency_only || r.p90_ms <= pass->p90_ms) return pass->rate;
    const double f =
        (rule.p90_limit_ms - pass->p90_ms) / (r.p90_ms - pass->p90_ms);
    return pass->rate + f * (r.rate - pass->rate);
  }
  return pass == nullptr ? 0.0 : pass->rate;
}

/// Due times (seconds from the schedule start) of `n` requests arriving
/// as a Poisson process of `rate` per second.  Deterministic in `seed`.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            std::size_t n) {
  if (rate <= 0.0) throw std::invalid_argument("rate must be positive");
  SplitMix64 g(seed);
  std::vector<double> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(g.uniform_open0()) / rate;
    due[i] = t;
  }
  return due;
}

/// `k` distinct indices from [0, pool) for request `request` (partial
/// Fisher-Yates).  Deterministic in (seed, request).
inline std::vector<std::size_t> choose_distinct(std::uint64_t seed,
                                                std::uint64_t request,
                                                std::size_t pool,
                                                std::size_t k) {
  if (k > pool) throw std::invalid_argument("more chips than the pool holds");
  SplitMix64 g(derive_seed(seed, request + 1));
  std::vector<std::size_t> idx(pool);
  for (std::size_t i = 0; i < pool; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + g.below(pool - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace perfbench
