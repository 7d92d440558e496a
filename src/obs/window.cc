#include "obs/window.h"

#include <algorithm>

#include "obs/codec.h"

namespace sddd::obs {

namespace {

/// True when a slot stamped `stamp_plus_one` is visible at `now_s`.
bool slot_in_window(std::uint64_t stamp_plus_one, std::uint64_t now_s) {
  if (stamp_plus_one == 0) return false;
  const std::uint64_t stamp = stamp_plus_one - 1;
  return stamp <= now_s && now_s - stamp < kWindowHorizonSeconds;
}

}  // namespace

// ---------------------------------------------------------------------------
// RollingCounter

void RollingCounter::add(std::uint64_t delta) noexcept {
  const std::uint64_t now_s = owner_->now_seconds();
  Shard& shard = shards_[this_thread_shard()];
  const std::size_t slot = now_s % kWindowSlots;
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.stamp[slot] != now_s + 1) {
    shard.stamp[slot] = now_s + 1;
    shard.count[slot] = 0;
  }
  shard.count[slot] += delta;
}

std::uint64_t RollingCounter::total_in_window() const noexcept {
  const std::uint64_t now_s = owner_->now_seconds();
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t slot = 0; slot < kWindowSlots; ++slot) {
      if (slot_in_window(shard.stamp[slot], now_s)) {
        total += shard.count[slot];
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// RollingHistogram

RollingHistogram::RollingHistogram(std::string name,
                                   std::span<const double> upper_bounds,
                                   const WindowRegistry* owner)
    : name_(std::move(name)),
      bounds_(upper_bounds.begin(), upper_bounds.end()),
      owner_(owner) {
  for (Shard& shard : shards_) {
    shard.counts.assign(kWindowSlots * (bounds_.size() + 1), 0);
  }
}

std::size_t RollingHistogram::bucket_for(std::uint64_t value) const noexcept {
  const double v = static_cast<double>(value);
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) return i;
  }
  return bounds_.size();  // overflow bucket
}

void RollingHistogram::record(std::uint64_t value) noexcept {
  const std::uint64_t now_s = owner_->now_seconds();
  const std::size_t bucket = bucket_for(value);
  const std::size_t n_buckets = bounds_.size() + 1;
  Shard& shard = shards_[this_thread_shard()];
  const std::size_t slot = now_s % kWindowSlots;
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.stamp[slot] != now_s + 1) {
    shard.stamp[slot] = now_s + 1;
    shard.sum[slot] = 0;
    std::fill_n(shard.counts.begin() +
                    static_cast<std::ptrdiff_t>(slot * n_buckets),
                static_cast<std::ptrdiff_t>(n_buckets), std::uint64_t{0});
  }
  shard.counts[slot * n_buckets + bucket] += 1;
  shard.sum[slot] += value;
}

// ---------------------------------------------------------------------------
// WindowHistogramData / WindowSnapshot

std::uint64_t WindowHistogramData::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

double WindowHistogramData::quantile(double q) const {
  MetricsSnapshot::HistogramData data;
  data.bounds = bounds;
  data.counts = counts;
  return data.quantile(q);
}

std::string WindowSnapshot::to_json() const {
  std::string out = "{\"now_s\":" + std::to_string(now_s);
  out.append(",\"horizon_s\":").append(std::to_string(horizon_s));
  out.append(",\"counters\":{");
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(name);  // metric names never need JSON escaping
    out.append("\":").append(std::to_string(v));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(name);
    out.append("\":{\"bounds\":[");
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out.push_back(',');
      append_json_number(&out, h.bounds[i]);
    }
    out.append("],\"counts\":[");
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.append(std::to_string(h.counts[i]));
    }
    out.append("],\"sum\":").append(std::to_string(h.sum));
    out.append(",\"total\":").append(std::to_string(h.total()));
    out.append(",\"p50\":");
    append_json_number(&out, h.quantile(0.50));
    out.append(",\"p95\":");
    append_json_number(&out, h.quantile(0.95));
    out.append(",\"p99\":");
    append_json_number(&out, h.quantile(0.99));
    out.push_back('}');
  }
  out.append("}}");
  return out;
}

// ---------------------------------------------------------------------------
// WindowRegistry

WindowRegistry::WindowRegistry(WindowClock clock)
    : clock_(std::move(clock)) {}

std::uint64_t WindowRegistry::now_seconds() const {
  if (clock_) return clock_();
  return now_ns() / 1'000'000'000ULL;
}

RollingCounter& WindowRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  auto metric = std::unique_ptr<RollingCounter>(
      new RollingCounter(std::string(name), this));
  return *counters_.emplace(std::string(name), std::move(metric))
              .first->second;
}

RollingHistogram& WindowRegistry::histogram(
    std::string_view name, std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  auto metric = std::unique_ptr<RollingHistogram>(
      new RollingHistogram(std::string(name), upper_bounds, this));
  return *histograms_.emplace(std::string(name), std::move(metric))
              .first->second;
}

WindowSnapshot WindowRegistry::snapshot() const {
  WindowSnapshot snap;
  snap.now_s = now_seconds();
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, metric] : counters_) {
    snap.counters.emplace(name, metric->total_in_window());
  }
  for (const auto& [name, metric] : histograms_) {
    WindowHistogramData data;
    data.bounds = metric->bounds_;
    data.counts.assign(data.bounds.size() + 1, 0);
    const std::size_t n_buckets = data.bounds.size() + 1;
    for (const auto& shard : metric->shards_) {
      const std::lock_guard<std::mutex> shard_lock(shard.mu);
      for (std::size_t slot = 0; slot < kWindowSlots; ++slot) {
        if (!slot_in_window(shard.stamp[slot], snap.now_s)) continue;
        data.sum += shard.sum[slot];
        for (std::size_t b = 0; b < n_buckets; ++b) {
          data.counts[b] += shard.counts[slot * n_buckets + b];
        }
      }
    }
    snap.histograms.emplace(name, std::move(data));
  }
  return snap;
}

}  // namespace sddd::obs
