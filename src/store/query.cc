#include "store/query.h"

#include <algorithm>
#include <bit>
#include <set>

#include "diagnosis/error_fn.h"
#include "diagnosis/score_kernel.h"
#include "obs/error.h"
#include "runtime/cancel.h"
#include "runtime/parallel_for.h"

namespace sddd::store {

using diagnosis::Method;
using netlist::ArcId;

StoreQueryEngine::StoreQueryEngine(const DictionaryStore& store)
    : store_(&store), zeros_(store.n_outputs(), 0.0) {
  const std::size_t words = store.arc_words();
  mask_.assign(store.n_patterns() * words, 0);
  for (std::size_t j = 0; j < store.n_patterns(); ++j) {
    std::uint64_t* mask = mask_.data() + j * words;
    for (std::size_t i = 0; i < store.n_outputs(); ++i) {
      const std::uint64_t* row = store.cone_row(j, i);
      for (std::size_t w = 0; w < words; ++w) mask[w] |= row[w];
    }
  }
}

std::vector<ArcId> StoreQueryEngine::extract_suspects(
    const diagnosis::BehaviorMatrix& B) const {
  const DictionaryStore& st = *store_;
  const std::size_t n_arcs = st.n_arcs();
  const std::size_t words = st.arc_words();
  // Visits set bits only; sized to whole words so a stray bit past n_arcs
  // in a row's last word stays in bounds (and out of the suspect set).
  std::vector<std::uint32_t> support(words * 64, 0);
  for (const std::size_t j : B.failing_patterns()) {
    for (std::size_t i = 0; i < st.n_outputs(); ++i) {
      if (!B.at(i, j)) continue;
      const std::uint64_t* row = st.cone_row(j, i);
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          ++support[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        }
      }
    }
  }
  return diagnosis::select_suspects(
      std::span<const std::uint32_t>(support).first(n_arcs),
      st.max_suspects());
}

namespace {

/// The engine's column source: pointers into the mapping, the activity
/// mask choosing which suspects get their own lane.
class StoreColumns final : public diagnosis::ColumnSource {
 public:
  StoreColumns(const StoreQueryEngine& engine, bool match_e,
               const double* zeros)
      : engine_(&engine), match_e_(match_e), zeros_(zeros) {}

  const double* gather(std::size_t j, std::span<const ArcId> suspects,
                       diagnosis::PatternLanes& lanes) const override {
    const DictionaryStore& st = engine_->store();
    for (std::size_t s = 0; s < suspects.size(); ++s) {
      const bool seen = engine_->observable(j, suspects[s]);
      lanes.observable[s] = seen ? 1 : 0;
      if (seen) {
        lanes.cols.push_back(match_e_ ? st.e_column(j, suspects[s])
                                      : st.s_column(j, suspects[s]));
      }
    }
    return match_e_ ? st.m_column(j) : zeros_;
  }

 private:
  const StoreQueryEngine* engine_;
  bool match_e_;
  const double* zeros_;
};

}  // namespace

diagnosis::DiagnosisResult StoreQueryEngine::diagnose(
    const diagnosis::BehaviorMatrix& B, std::span<const Method> methods,
    bool match_on_total_probability, bool capture_phi) const {
  const DictionaryStore& st = *store_;
  if (B.output_count() != st.n_outputs() ||
      B.pattern_count() != st.n_patterns()) {
    throw ParseError("store query", 0, "behavior matrix is " +
                     std::to_string(B.output_count()) + "x" +
                     std::to_string(B.pattern_count()) + ", store expects " +
                     std::to_string(st.n_outputs()) + "x" +
                     std::to_string(st.n_patterns()));
  }

  diagnosis::DiagnosisResult result;
  result.methods.assign(methods.begin(), methods.end());
  result.suspects = extract_suspects(B);
  result.mc_samples = st.mc_samples();
  diagnosis::score_suspects(
      StoreColumns(*this, match_on_total_probability, zeros_.data()), B,
      capture_phi, result);
  return result;
}

diagnosis::BehaviorMatrix behavior_from_rows(
    const std::vector<std::string>& rows, std::size_t n_outputs,
    std::size_t n_patterns) {
  if (rows.size() != n_outputs) {
    throw ParseError("behavior", 0, std::to_string(rows.size()) +
                     " rows, store expects " + std::to_string(n_outputs) +
                     " outputs");
  }
  diagnosis::BehaviorMatrix B(n_outputs, n_patterns);
  for (std::size_t i = 0; i < n_outputs; ++i) {
    if (rows[i].size() != n_patterns) {
      throw ParseError("behavior", 0, "row " + std::to_string(i) + " has " +
                       std::to_string(rows[i].size()) +
                       " columns, store expects " +
                       std::to_string(n_patterns) + " patterns");
    }
    for (std::size_t j = 0; j < n_patterns; ++j) {
      const char c = rows[i][j];
      if (c != '0' && c != '1') {
        throw ParseError("behavior", 0, "row " + std::to_string(i) +
                         " column " + std::to_string(j) +
                         ": expected '0' or '1'");
      }
      B.set(i, j, c == '1');
    }
  }
  return B;
}

namespace {

constexpr Method kBatchMethods[] = {Method::kSimI, Method::kSimII,
                                    Method::kSimIII, Method::kRev};

/// One chip's object of the batch response.
std::string render_chip(const StoreQueryEngine& engine, const ChipQuery& chip,
                        bool match_on_total_probability, std::size_t top_k) {
  const diagnosis::DiagnosisResult result =
      engine.diagnose(chip.B, kBatchMethods, match_on_total_probability,
                      /*capture_phi=*/true);
  // Suspects are extracted in ascending arc order, so an arc's row is a
  // binary search away.
  const auto row_of = [&](ArcId a) {
    return static_cast<std::size_t>(
        std::lower_bound(result.suspects.begin(), result.suspects.end(), a) -
        result.suspects.begin());
  };
  std::string out;
  out.append("{\"id\":");
  obs::append_json_string(&out, chip.id);
  out.append(",\"n_suspects\":").append(std::to_string(result.suspects.size()));
  out.append(",\"methods\":{");
  std::set<ArcId> reported;
  for (std::size_t m = 0; m < std::size(kBatchMethods); ++m) {
    if (m > 0) out.push_back(',');
    obs::append_json_string(&out, diagnosis::method_name(kBatchMethods[m]));
    out.append(":[");
    const auto ranked = result.ranked(kBatchMethods[m]);
    const std::size_t limit =
        top_k == 0 ? ranked.size() : std::min(top_k, ranked.size());
    for (std::size_t r = 0; r < limit; ++r) {
      if (r > 0) out.push_back(',');
      reported.insert(ranked[r].arc);
      // The ranking key is reported next to the probability-domain
      // score so byte-compared responses also pin the sort surrogate.
      out.append("{\"arc\":").append(std::to_string(ranked[r].arc));
      out.append(",\"score\":");
      obs::append_json_number(&out, ranked[r].score);
      out.append(",\"key\":");
      obs::append_json_number(&out, result.keys[m][row_of(ranked[r].arc)]);
      out.push_back('}');
    }
    out.push_back(']');
  }
  out.append("},\"phi\":{");
  bool first_arc = true;
  for (const ArcId a : reported) {
    if (!first_arc) out.push_back(',');
    first_arc = false;
    const std::vector<double>& phi = result.phi[row_of(a)];
    obs::append_json_string(&out, std::to_string(a));
    out.append(":[");
    for (std::size_t j = 0; j < phi.size(); ++j) {
      if (j > 0) out.push_back(',');
      obs::append_json_number(&out, phi[j]);
    }
    out.append("]");
  }
  out.append("}}");
  return out;
}

}  // namespace

std::string diagnose_batch_json(const StoreQueryEngine& engine,
                                std::span<const ChipQuery> chips,
                                bool match_on_total_probability,
                                std::size_t top_k) {
  // Each chip renders into its own slot; the response concatenates them in
  // chip order, so the bytes do not depend on the thread count.
  std::vector<std::string> rendered(chips.size());
  runtime::parallel_for(chips.size(), [&](std::size_t c) {
    runtime::poll_cancellation();
    rendered[c] =
        render_chip(engine, chips[c], match_on_total_probability, top_k);
  });
  const DictionaryStore& st = engine.store();
  std::string out;
  out.append("{\"ok\":true,\"op\":\"diagnose\",\"run_id\":");
  obs::append_json_string(&out, st.run_id());
  out.append(",\"circuit\":");
  obs::append_json_string(&out, st.circuit());
  out.append(",\"match\":\"").push_back(match_on_total_probability ? 'e' : 's');
  out.append("\",\"mc_samples\":").append(std::to_string(st.mc_samples()));
  out.append(",\"n_patterns\":").append(std::to_string(st.n_patterns()));
  out.append(",\"chips\":[");
  for (std::size_t c = 0; c < rendered.size(); ++c) {
    if (c > 0) out.push_back(',');
    out.append(rendered[c]);
  }
  out.append("]}");
  return out;
}

}  // namespace sddd::store
