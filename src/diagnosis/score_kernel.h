// score_kernel.h - The one scoring path: phi for a whole suspect block
// against one chip's bit-packed behavior column, and the per-pattern loop
// that feeds it.
//
// The scalar reference is phi() in error_fn.h: per suspect, a product over
// primary outputs k of (b_k ? s_k : 1 - s_k).  The kernel evaluates
// kKernelLanes suspects at a time, each lane keeping its own independent
// accumulator chain over a contiguous (suspect-major SoA) signature
// column, and reads the chip's b bits from a 64-bit packed column.
//
// Bit-identity argument (DESIGN.md section 12): each lane multiplies its
// factors in exactly the scalar loop's output order, the factor is the
// same select between s and 1 - s (never an arithmetic blend like
// (1 - s) + b * (2s - 1), which rounds differently), and lanes never mix,
// so every phi the kernel produces equals the scalar phi() bit for bit.
// The independence of the 8 accumulator chains is what keeps the FP
// pipeline fed - the multiply latency of one chain hides behind the other
// seven - without reassociating any suspect's own product.
//
// score_suspects() is the only caller of phi_block: the Diagnoser (columns
// from a SignatureCache) and the store engine (columns out of the mapped
// store) both score through it, each supplying only a ColumnSource.  Per
// pattern it gathers the columns of the suspects the pattern can observe
// plus one baseline lane that every other suspect's column equals bit for
// bit (DESIGN.md section 15), runs one phi_block, and scatters the lanes
// into each suspect's ScoreAccumulator in pattern order.  The kernel
// performs no per-call contract scan and no per-suspect counter update:
// columns are validated once when they are built or stored, and
// diag.phi_evals is batched per pattern via note_phi_evals().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "obs/metrics.h"

namespace sddd::diagnosis {

/// One chip behavior column B[:, j] packed one bit per primary output.
class PackedBColumn {
 public:
  PackedBColumn() = default;

  /// Packs column `pattern` of B, reusing the word storage across calls.
  void pack(const BehaviorMatrix& B, std::size_t pattern);

  std::size_t bit_count() const { return n_; }

  bool test(std::size_t k) const {
    return ((words_[k >> 6] >> (k & 63)) & 1U) != 0;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Suspects evaluated per block of independent accumulator chains.
inline constexpr std::size_t kKernelLanes = 8;

/// phi for `n_cols` suspects: cols[i] is suspect i's signature/E column of
/// `n_outputs` doubles, `b` the packed chip column (bit_count() must be
/// n_outputs), out[i] the resulting phi - bit-identical to
/// phi(cols[i], b_unpacked) minus that function's per-call contract scan
/// and counter update (see header comment).
void phi_block(const double* const* cols, std::size_t n_cols,
               std::size_t n_outputs, const PackedBColumn& b, double* out);

/// One pattern's kernel input, reused across patterns.
struct PatternLanes {
  /// Columns of the suspects the pattern can observe, in suspect order.
  std::vector<const double*> cols;
  /// Per suspect position: 1 when it has its own entry in `cols`.
  std::vector<char> observable;
};

/// Where score_suspects() reads dictionary columns from.
class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  /// For pattern j: appends to lanes.cols the column of every suspect the
  /// pattern can observe (in suspect order), sets lanes.observable[s] for
  /// each suspect position, and returns the baseline column every other
  /// suspect's column equals bit for bit (the M column under E matching,
  /// zeros under S matching).  lanes.cols arrives empty and
  /// lanes.observable sized to suspects.size().
  virtual const double* gather(std::size_t j,
                               std::span<const netlist::ArcId> suspects,
                               PatternLanes& lanes) const = 0;
};

/// Algorithm E.1 steps 5-8 for one chip: scores every suspect of
/// `result.suspects` under every method of `result.methods` from the
/// columns `source` supplies for each of B's patterns, filling
/// result.scores, result.keys and, with `capture_phi`, result.phi.
void score_suspects(const ColumnSource& source, const BehaviorMatrix& B,
                    bool capture_phi, DiagnosisResult& result);

}  // namespace sddd::diagnosis
