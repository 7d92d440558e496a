// signature_matrix.h - Cached suspect signature/E columns, shared across
// every chip of an experiment.
//
// A dictionary column depends only on (pattern, suspect, size model,
// dictionary delay field, clk, match mode) - never on the chip under
// diagnosis - so the cache materializes each column exactly once, in a
// suspect-major SoA layout (one 64-byte-aligned contiguous column of |O|
// doubles per suspect), and hands the scoring loop (score_kernel.h)
// stable pointers; every later chip that shares the (circuit, clk,
// pattern set) pays only the packed phi evaluation.  Only the columns of
// suspects a pattern sensitizes are ever built: the rest share the
// pattern's baseline column.  Columns are validated once here, at ingest,
// through PatternSlice's check_probability_column /
// check_signature_column guards, so the kernel needs no per-evaluation
// contract scan.
//
// Keying: patterns are keyed by an FNV-1a fingerprint of their (v1, v2)
// bits with full equality verification on the stored pattern (collisions
// fall into a bucket list), and the cache as a whole is keyed by
// construction - one cache per ExperimentSetup, whose inputs are exactly
// the fields of the experiment run fingerprint (see DESIGN.md section 12).
// The defect-size table per suspect is precomputed once (sample(arc, k) is
// a pure function of (arc, k)), so cached columns are bit-identical to
// PatternSlice::e_column / signature_column.
//
// Thread safety: one experiment shares a single cache across its parallel
// trial workers.  A cache-level mutex guards the pattern map, a per-entry
// mutex serializes column builds for one pattern (distinct patterns build
// concurrently), and returned pointers stay valid for the cache's lifetime
// - columns are never moved or evicted.  The underlying simulator must be
// prewarm()ed before concurrent use.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "defect/defect_model.h"
#include "diagnosis/dictionary.h"
#include "diagnosis/score_kernel.h"
#include "logicsim/bitsim.h"
#include "netlist/levelize.h"
#include "timing/dynamic_sim.h"

namespace sddd::diagnosis {

class SignatureCache {
 public:
  /// `sim` must wrap the *dictionary* delay field.  `clk` and the match
  /// mode are fixed per cache (they change every column); diagnose() calls
  /// against a different clk or match mode are rejected.
  SignatureCache(const timing::DynamicTimingSimulator& sim,
                 const logicsim::BitSimulator& logic_sim,
                 const netlist::Levelization& lev,
                 const defect::DefectSizeModel& size_model, double clk,
                 bool match_on_total_probability);

  double clk() const { return clk_; }
  bool match_on_total_probability() const { return match_e_; }

  /// Monte-Carlo samples behind every cached column.
  std::size_t sample_count() const { return sim_->field().sample_count(); }

  /// Column length (|O|); 0 until the first column has been built.
  std::size_t output_count() const {
    return n_outputs_.load(std::memory_order_acquire);
  }

  /// One pattern's column source for score_suspects() (score_kernel.h):
  /// appends to lanes.cols the column of every suspect `pattern`
  /// sensitizes (suspect order preserved), building any not yet cached,
  /// sets lanes.observable per suspect position, and returns the baseline
  /// column every unsensitized suspect's column provably equals bit for
  /// bit - the defect-free M column under E matching (dynamic_sim falls
  /// back to the baseline error vector when the arc is off every active
  /// path), the exact-zero column under S matching.  A pattern's first
  /// visit, or a visit that needs new columns, builds one PatternSlice.
  /// Pointers address contiguous, ingest-validated columns of
  /// output_count() doubles and stay valid for the cache's lifetime.
  const double* gather(const logicsim::PatternPair& pattern,
                       std::span<const netlist::ArcId> suspects,
                       PatternLanes& lanes) const;

  /// Precomputed per-sample defect sizes of one suspect; sizes()[k] ==
  /// size_model.sample(suspect, k).  The span stays valid for the cache's
  /// lifetime.
  std::span<const double> sizes_for(netlist::ArcId suspect) const;

  struct Stats {
    std::uint64_t hits = 0;    ///< (pattern, suspect) lookups served cached
    std::uint64_t misses = 0;  ///< lookups that built a column
    std::uint64_t bytes = 0;   ///< resident column bytes
  };
  /// This cache's own accounting; the dict.sig_cache.{hits,misses,bytes}
  /// counters aggregate the same events across all caches.
  Stats stats() const;

 private:
  struct AlignedFree {
    void operator()(double* p) const noexcept;
  };
  /// One suspect's column: contiguous, 64-byte aligned, address-stable.
  using Column = std::unique_ptr<double[], AlignedFree>;

  struct Entry {
    logicsim::PatternPair pattern;
    std::mutex mu;
    std::unordered_map<netlist::ArcId, std::size_t> index;
    std::deque<Column> cols;  ///< deque: growth never moves a column
    std::vector<char> active;      ///< per arc: on some active path
    std::vector<double> baseline;  ///< |O| doubles; built with `active`
  };

  Entry& entry_for(const logicsim::PatternPair& pattern) const;

  const timing::DynamicTimingSimulator* sim_;
  const logicsim::BitSimulator* logic_sim_;
  const netlist::Levelization* lev_;
  const defect::DefectSizeModel* size_model_;
  double clk_;
  bool match_e_;

  mutable std::mutex map_mu_;
  mutable std::unordered_map<std::uint64_t,
                             std::vector<std::unique_ptr<Entry>>>
      entries_;
  mutable std::mutex sizes_mu_;
  mutable std::unordered_map<netlist::ArcId, std::vector<double>> sizes_;
  mutable std::atomic<std::size_t> n_outputs_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace sddd::diagnosis
