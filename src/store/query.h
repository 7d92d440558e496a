// query.h - Diagnosing chips straight out of a memory-mapped store.
//
// StoreQueryEngine is the Diagnoser's scoring path re-rooted onto
// DictionaryStore: suspect extraction walks the stored per-(pattern,
// output) cone bitsets and applies the Diagnoser's select_suspects()
// support/cap policy, and scoring runs the one scoring loop,
// score_suspects() (score_kernel.h), over the stored E (or S) columns.
// Because the store's columns were produced by the identical PatternSlice
// code paths and are raw doubles, the engine's scores, keys, ranks and
// captured phi are BIT-IDENTICAL to an in-process Diagnoser::diagnose()
// over a freshly built dictionary at the store's config - the
// byte-identity contract ci.sh enforces end to end through the serve
// path.
//
// Scoring reads only what each pattern can observe.  At construction the
// engine ORs every pattern's stored cone rows into a per-pattern activity
// mask (n_patterns x arc_words bits): an arc outside pattern j's mask lies
// on no active path to any output, so its stored E column is bit-equal to
// m_column(j) and its S column is all +0.0 (DESIGN.md section 15 gives the
// proof; tests/test_store.cc checks it column by column).  The mask is the
// engine's ColumnSource: suspects inside it get their own phi_block lane
// and every other suspect shares the baseline lane - what the Diagnoser's
// SignatureCache does with the transition graph in place of the mask.
//
// diagnose_batch_json() is the single response renderer: `sddd_cli dict
// query` (in-process) and the serve loop both emit its bytes verbatim, so
// the two transports are cmp-comparable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"
#include "obs/codec.h"
#include "store/store.h"

namespace sddd::store {

class StoreQueryEngine {
 public:
  /// The engine borrows `store`, which must outlive it, and builds the
  /// per-pattern activity mask from its cone rows.
  explicit StoreQueryEngine(const DictionaryStore& store);

  const DictionaryStore& store() const { return *store_; }

  /// Algorithm E.1 step 1 from the stored cone bitsets; identical suspect
  /// sets (same support counts, same select_suspects() cap) as
  /// Diagnoser::extract_suspects.
  std::vector<netlist::ArcId> extract_suspects(
      const diagnosis::BehaviorMatrix& B) const;

  /// True when `arc` lies on an active path to some output under pattern
  /// j (the OR of the pattern's cone rows).  Outside it the stored E
  /// column equals m_column(j) and the S column is zero.
  bool observable(std::size_t j, netlist::ArcId arc) const {
    const std::uint64_t word = mask_[j * store_->arc_words() + (arc >> 6)];
    return ((word >> (arc & 63)) & 1U) != 0;
  }

  /// Full diagnosis over the stored columns.  `match_on_total_probability`
  /// selects the E ("e", default) vs S ("s") section;
  /// `capture_phi` populates DiagnosisResult::phi.  B must be
  /// n_outputs() x n_patterns().
  diagnosis::DiagnosisResult diagnose(const diagnosis::BehaviorMatrix& B,
                                      std::span<const diagnosis::Method> methods,
                                      bool match_on_total_probability = true,
                                      bool capture_phi = false) const;

 private:
  const DictionaryStore* store_;
  std::vector<std::uint64_t> mask_;  ///< n_patterns x arc_words
  std::vector<double> zeros_;        ///< the S-mode baseline column
};

/// One chip of a batch request.
struct ChipQuery {
  std::string id;  ///< caller-chosen label, echoed back
  diagnosis::BehaviorMatrix B{0, 0};
};

/// JSON string literal (quotes + escapes) of `s` (obs/codec.h): every
/// renderer shares it, so equal strings always render byte-identically.
using obs::json_quote;

/// Parses behavior rows ("0101..." per output, column j = pattern j) into
/// a BehaviorMatrix; throws sddd::ParseError on any dimension or character
/// mismatch.
diagnosis::BehaviorMatrix behavior_from_rows(
    const std::vector<std::string>& rows, std::size_t n_outputs,
    std::size_t n_patterns);

/// Diagnoses every chip (chips fan out over the runtime pool, each into
/// its own slot) and renders the canonical response JSON in chip order
/// (single line, no trailing newline):
///
///   {"ok":true,"op":"diagnose","run_id":...,"circuit":...,"match":"e"|"s",
///    "mc_samples":N,"n_patterns":N,
///    "chips":[{"id":...,"n_suspects":N,
///              "methods":{"Alg_sim-I":[{"arc":A,"score":S,"key":K},...],...},
///              "phi":{"A":[phi_1..phi_TP],...}},...]}
///
/// `top_k` caps each method's ranked list (0 = all suspects); "phi" holds
/// the per-pattern consistency probabilities of the union of every
/// method's reported arcs, keyed by arc id in ascending order.  All
/// doubles print as %.17g would, so equal diagnoses render
/// byte-identically.
std::string diagnose_batch_json(const StoreQueryEngine& engine,
                                std::span<const ChipQuery> chips,
                                bool match_on_total_probability,
                                std::size_t top_k);

}  // namespace sddd::store
