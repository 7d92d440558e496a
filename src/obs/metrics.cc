#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/atomic_file.h"
#include "obs/check.h"
#include "obs/codec.h"

namespace sddd::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

Histogram::Histogram(std::string name, std::span<const double> upper_bounds)
    : name_(std::move(name)),
      bounds_(upper_bounds.begin(), upper_bounds.end()) {
  SDDD_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                 std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                     bounds_.end(),
             "OBS002",
             "histogram \"" + name_ +
                 "\": bucket bounds must be strictly increasing");
  const std::size_t n = bucket_count();
  for (Shard& s : shards_) {
    s.counts = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

void Histogram::record(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  shards_[this_thread_shard()].counts[bucket].fetch_add(
      1, std::memory_order_relaxed);
}

std::uint64_t Histogram::count_in_bucket(std::size_t bucket) const {
  if (bucket >= bucket_count()) return 0;
  std::uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.counts[bucket].load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::total_count() const {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < bucket_count(); ++b) {
    total += count_in_bucket(b);
  }
  return total;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (std::size_t b = 0; b < bucket_count(); ++b) {
      s.counts[b].store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

std::uint64_t MetricsSnapshot::counter_delta(const MetricsSnapshot& before,
                                             const MetricsSnapshot& after,
                                             std::string_view name) {
  const std::uint64_t a = after.counter_or(name);
  const std::uint64_t b = before.counter_or(name);
  return a > b ? a - b : 0;
}

double MetricsSnapshot::delta_ns_to_seconds(const MetricsSnapshot& before,
                                            const MetricsSnapshot& after,
                                            std::string_view name) {
  return static_cast<double>(counter_delta(before, after, name)) * 1e-9;
}

std::uint64_t MetricsSnapshot::HistogramData::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

double MetricsSnapshot::HistogramData::quantile(double q) const {
  const std::uint64_t n = total();
  if (n == 0 || counts.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    const double reached = static_cast<double>(cumulative + in_bucket);
    if (reached >= target) {
      if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + fraction * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_quote(name);
    os << ": " << v;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_quote(name);
    os << ": " << v;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << json_quote(name);
    os << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      os << (i ? ", " : "") << h.bounds[i];
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << (i ? ", " : "") << h.counts[i];
    }
    os << "], \"total\": " << h.total() << ", \"p50\": " << h.quantile(0.50)
       << ", \"p95\": " << h.quantile(0.95) << ", \"p99\": " << h.quantile(0.99)
       << "}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

bool MetricsRegistry::claim_name(std::string_view name, Kind kind) {
  // Caller holds mu_.
  const auto [it, inserted] = kinds_.emplace(std::string(name), kind);
  if (inserted) return true;
  detail::report_violation(
      "OBS001", "metric \"" + std::string(name) +
                    "\" registered more than once; every metric name must "
                    "be registered exactly once");
  return false;
}

Counter& MetricsRegistry::register_counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (claim_name(name, Kind::kCounter)) {
    return *counters_
                .emplace(std::string(name),
                         std::make_unique<Counter>(std::string(name)))
                .first->second;
  }
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  // The name belongs to another kind; return a quarantined counter so
  // warn-mode callers still have something safe to write into.
  return *counters_
              .emplace(std::string(name),
                       std::make_unique<Counter>(std::string(name)))
              .first->second;
}

Gauge& MetricsRegistry::register_gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (claim_name(name, Kind::kGauge)) {
    return *gauges_
                .emplace(std::string(name),
                         std::make_unique<Gauge>(std::string(name)))
                .first->second;
  }
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_
              .emplace(std::string(name),
                       std::make_unique<Gauge>(std::string(name)))
              .first->second;
}

Histogram& MetricsRegistry::register_histogram(
    std::string_view name, std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (claim_name(name, Kind::kHistogram)) {
    return *histograms_
                .emplace(std::string(name),
                         std::make_unique<Histogram>(std::string(name),
                                                     upper_bounds))
                .first->second;
  }
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>(
                                              std::string(name), upper_bounds))
              .first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.bounds = h->bounds();
    data.counts.resize(h->bucket_count());
    for (std::size_t b = 0; b < h->bucket_count(); ++b) {
      data.counts[b] = h->count_in_bucket(b);
    }
    snap.histograms.emplace(name, std::move(data));
  }
  return snap;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  snapshot().write_json(os);
}

bool MetricsRegistry::write_file(const std::string& path) const {
  // Atomic (temp + rename): a run killed mid-flush must never leave a
  // truncated metrics JSON for a CI parse step to choke on.
  std::ostringstream os;
  write_json(os);
  return atomic_write_file(path, os.str());
}

void MetricsRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

}  // namespace sddd::obs
