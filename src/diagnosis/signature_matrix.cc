#include "diagnosis/signature_matrix.h"

#include <cstring>
#include <new>
#include <optional>

#include "obs/codec.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace sddd::diagnosis {

namespace {

obs::Counter& sig_cache_hits_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.sig_cache.hits");
  return c;
}

obs::Counter& sig_cache_misses_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().register_counter(
      "dict.sig_cache.misses");
  return c;
}

obs::Counter& sig_cache_bytes_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("dict.sig_cache.bytes");
  return c;
}

// Wall time spent building what the cache lacked (pattern slices and
// columns); the rest of diag.score_ns is lookup and packed phi.
obs::Counter& sig_cache_build_ns_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.kernel.build_ns");
  return c;
}

// FNV-1a over the launch/capture bits plus their lengths.  Equality of the
// stored pattern is always verified afterwards, so a collision only costs
// one extra Entry in the bucket, never a wrong column.
std::uint64_t pattern_fingerprint(const logicsim::PatternPair& p) {
  obs::Fnv1a64 h;
  const auto mix_bits = [&h](const logicsim::Pattern& bits) {
    h.byte(static_cast<std::uint8_t>(bits.size()));
    h.byte(static_cast<std::uint8_t>(bits.size() >> 8));
    std::uint8_t byte = 0;
    std::size_t fill = 0;
    for (const bool bit : bits) {
      byte = static_cast<std::uint8_t>((byte << 1) | (bit ? 1 : 0));
      if (++fill == 8) {
        h.byte(byte);
        byte = 0;
        fill = 0;
      }
    }
    if (fill != 0) h.byte(byte);
  };
  mix_bits(p.v1);
  mix_bits(p.v2);
  return h.value();
}

bool same_pattern(const logicsim::PatternPair& a,
                  const logicsim::PatternPair& b) {
  return a.v1 == b.v1 && a.v2 == b.v2;
}

}  // namespace

void SignatureCache::AlignedFree::operator()(double* p) const noexcept {
  ::operator delete[](p, std::align_val_t{64});
}

SignatureCache::SignatureCache(const timing::DynamicTimingSimulator& sim,
                               const logicsim::BitSimulator& logic_sim,
                               const netlist::Levelization& lev,
                               const defect::DefectSizeModel& size_model,
                               double clk, bool match_on_total_probability)
    : sim_(&sim),
      logic_sim_(&logic_sim),
      lev_(&lev),
      size_model_(&size_model),
      clk_(clk),
      match_e_(match_on_total_probability) {}

std::span<const double> SignatureCache::sizes_for(
    netlist::ArcId suspect) const {
  const std::lock_guard<std::mutex> lock(sizes_mu_);
  auto it = sizes_.find(suspect);
  if (it == sizes_.end()) {
    const std::size_t n = sim_->field().sample_count();
    std::vector<double> table(n);
    for (std::size_t k = 0; k < n; ++k) {
      table[k] = size_model_->sample(suspect, k);
    }
    it = sizes_.emplace(suspect, std::move(table)).first;
  }
  // The vector's heap buffer survives any later map rehash, so the span
  // stays valid without holding the lock.
  return {it->second.data(), it->second.size()};
}

SignatureCache::Entry& SignatureCache::entry_for(
    const logicsim::PatternPair& pattern) const {
  const std::uint64_t fp = pattern_fingerprint(pattern);
  const std::lock_guard<std::mutex> lock(map_mu_);
  auto& bucket = entries_[fp];
  for (const auto& e : bucket) {
    if (same_pattern(e->pattern, pattern)) return *e;
  }
  bucket.push_back(std::make_unique<Entry>());
  bucket.back()->pattern = pattern;
  return *bucket.back();
}

const double* SignatureCache::gather(const logicsim::PatternPair& pattern,
                                     std::span<const netlist::ArcId> suspects,
                                     PatternLanes& lanes) const {
  Entry& entry = entry_for(pattern);
  const std::lock_guard<std::mutex> lock(entry.mu);

  // At most one PatternSlice per call, built on first need: it yields the
  // active-arc flags and baseline column of a new pattern as well as every
  // column this call is missing.  It lives only for this scope - the cache
  // keeps just the |O|-double columns.
  std::optional<PatternSlice> slice;
  std::uint64_t build_t0 = 0;
  const auto built_slice = [&]() -> const PatternSlice& {
    if (!slice) {
      build_t0 = obs::now_ns();
      slice.emplace(*sim_, *logic_sim_, *lev_, pattern, clk_);
    }
    return *slice;
  };
  if (entry.active.empty()) {
    // Under S matching the shared column is exactly zero: S = max(M - M, 0).
    const PatternSlice& sl = built_slice();
    const auto& nl = logic_sim_->netlist();
    entry.active.resize(nl.arc_count());
    for (netlist::ArcId a = 0; a < nl.arc_count(); ++a) {
      entry.active[a] = sl.transition_graph().is_active(a) ? 1 : 0;
    }
    if (match_e_) {
      entry.baseline = sl.m_column();
    } else {
      entry.baseline.assign(sl.m_column().size(), 0.0);
    }
    n_outputs_.store(entry.baseline.size(), std::memory_order_release);
  }

  std::vector<double> scratch;
  std::uint64_t hits = 0;
  std::uint64_t built = 0;
  std::uint64_t built_bytes = 0;
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    const netlist::ArcId suspect = suspects[i];
    lanes.observable[i] = entry.active[suspect];
    if (!entry.active[suspect]) continue;
    // A suspect repeating within one call is a hit on the column its
    // first occurrence just built.
    const auto it = entry.index.find(suspect);
    if (it != entry.index.end()) {
      lanes.cols.push_back(entry.cols[it->second].get());
      ++hits;
      continue;
    }
    const std::span<const double> sizes = sizes_for(suspect);
    if (match_e_) {
      built_slice().e_column_into(suspect, sizes, scratch);
    } else {
      built_slice().signature_column_into(suspect, sizes, scratch);
    }
    const std::size_t n = scratch.size();
    Column col(static_cast<double*>(
        ::operator new[](n * sizeof(double), std::align_val_t{64})));
    if (n != 0) std::memcpy(col.get(), scratch.data(), n * sizeof(double));
    entry.index.emplace(suspect, entry.cols.size());
    entry.cols.push_back(std::move(col));
    lanes.cols.push_back(entry.cols.back().get());
    ++built;
    built_bytes += n * sizeof(double);
  }
  if (hits != 0) {
    hits_.fetch_add(hits, std::memory_order_relaxed);
    sig_cache_hits_counter().add(hits);
  }
  if (built != 0) {
    misses_.fetch_add(built, std::memory_order_relaxed);
    sig_cache_misses_counter().add(built);
    bytes_.fetch_add(built_bytes, std::memory_order_relaxed);
    sig_cache_bytes_counter().add(built_bytes);
    // One breadcrumb per miss *batch*, not per column: which caller built
    // a shared column is schedule-dependent, so these events are excluded
    // from the deterministic-merge contract (DESIGN.md section 14).
    obs::Recorder::instance().record(obs::EventKind::kCacheMiss, "sig", built,
                                     built_bytes);
  }
  if (slice) sig_cache_build_ns_counter().add(obs::now_ns() - build_t0);
  return entry.baseline.data();
}

SignatureCache::Stats SignatureCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sddd::diagnosis
