#include "store/query.h"

#include <algorithm>
#include <set>

#include "diagnosis/error_fn.h"
#include "diagnosis/score_kernel.h"
#include "obs/error.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "runtime/cancel.h"
#include "runtime/parallel_for.h"

namespace sddd::store {

using diagnosis::Method;
using netlist::ArcId;

namespace {

// The diagnoser's own suspect tally; store-served diagnoses account into
// the same counter so ledgers stay comparable across transports.
obs::Counter& diag_suspects_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("diag.suspects");
  return c;
}

}  // namespace

std::vector<ArcId> StoreQueryEngine::extract_suspects(
    const diagnosis::BehaviorMatrix& B) const {
  const DictionaryStore& st = *store_;
  const std::size_t n_arcs = st.n_arcs();
  std::vector<std::uint32_t> support(n_arcs, 0);
  for (const std::size_t j : B.failing_patterns()) {
    for (std::size_t i = 0; i < st.n_outputs(); ++i) {
      if (!B.at(i, j)) continue;
      const std::uint64_t* row = st.cone_row(j, i);
      for (ArcId a = 0; a < n_arcs; ++a) {
        if ((row[a >> 6] >> (a & 63)) & 1U) ++support[a];
      }
    }
  }
  std::vector<ArcId> suspects;
  for (ArcId a = 0; a < n_arcs; ++a) {
    if (support[a] > 0) suspects.push_back(a);
  }
  const std::size_t max_suspects = st.max_suspects();
  if (max_suspects > 0 && suspects.size() > max_suspects) {
    std::stable_sort(suspects.begin(), suspects.end(),
                     [&](ArcId a, ArcId b) { return support[a] > support[b]; });
    suspects.resize(max_suspects);
    std::sort(suspects.begin(), suspects.end());
  }
  diag_suspects_counter().add(suspects.size());
  return suspects;
}

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

  const std::size_t n_suspects = result.suspects.size();
  const std::size_t n_patterns = st.n_patterns();
  const std::size_t n_outputs = st.n_outputs();
  if (capture_phi) {
    result.phi.assign(n_suspects, std::vector<double>(n_patterns, 0.0));
  }
  std::vector<std::vector<diagnosis::ScoreAccumulator>> acc;
  acc.reserve(methods.size());
  for (const Method m : methods) {
    acc.emplace_back(n_suspects, diagnosis::ScoreAccumulator(m));
  }

  // The diagnoser's kernel scoring loop verbatim, with the cache lookups
  // replaced by pointers into the mapping: per pattern, pack B's column,
  // gather the suspect columns, phi_block over chunks whose boundaries
  // depend only on (n, grain).  add_phi runs in pattern-major suspect
  // order - scores and keys are bit-identical at any thread count.
  std::vector<const double*> cols(n_suspects);
  std::vector<double> phi_row(n_suspects);
  diagnosis::PackedBColumn b;
  for (std::size_t j = 0; j < n_patterns; ++j) {
    for (std::size_t s = 0; s < n_suspects; ++s) {
      cols[s] = match_on_total_probability
                    ? st.e_column(j, result.suspects[s])
                    : st.s_column(j, result.suspects[s]);
    }
    b.pack(B, j);
    runtime::parallel_for_chunked(
        n_suspects, 64, [&](std::size_t lo, std::size_t hi) {
          diagnosis::phi_block(cols.data() + lo, hi - lo, n_outputs, b,
                               phi_row.data() + lo);
          for (std::size_t s = lo; s < hi; ++s) {
            if (capture_phi) result.phi[s][j] = phi_row[s];
            for (auto& method_acc : acc) method_acc[s].add_phi(phi_row[s]);
          }
        });
    diagnosis::note_phi_evals(n_suspects);
    diagnosis::note_kernel_pattern(n_suspects);
  }

  result.scores.resize(methods.size());
  result.keys.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) {
    result.scores[m].resize(n_suspects);
    result.keys[m].resize(n_suspects);
    for (std::size_t s = 0; s < n_suspects; ++s) {
      result.scores[m][s] = acc[m][s].finish(n_patterns);
      result.keys[m][s] = acc[m][s].ranking_key(n_patterns);
    }
  }
  obs::Recorder::instance().record(obs::EventKind::kDiagnose, "",
                                   B.failure_count(), n_suspects, n_patterns);
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

std::string diagnose_batch_json(const StoreQueryEngine& engine,
                                std::span<const ChipQuery> chips,
                                bool match_on_total_probability,
                                std::size_t top_k) {
  static constexpr Method kMethods[] = {Method::kSimI, Method::kSimII,
                                        Method::kSimIII, Method::kRev};
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
  for (std::size_t c = 0; c < chips.size(); ++c) {
    runtime::poll_cancellation();
    if (c > 0) out.push_back(',');
    const diagnosis::DiagnosisResult result = engine.diagnose(
        chips[c].B, kMethods, match_on_total_probability,
        /*capture_phi=*/true);
    out.append("{\"id\":");
    obs::append_json_string(&out, chips[c].id);
    out.append(",\"n_suspects\":")
        .append(std::to_string(result.suspects.size()));
    out.append(",\"methods\":{");
    std::set<ArcId> reported;
    for (std::size_t m = 0; m < std::size(kMethods); ++m) {
      if (m > 0) out.push_back(',');
      obs::append_json_string(&out, diagnosis::method_name(kMethods[m]));
      out.append(":[");
      const auto ranked = result.ranked(kMethods[m]);
      const std::size_t limit =
          top_k == 0 ? ranked.size() : std::min(top_k, ranked.size());
      for (std::size_t r = 0; r < limit; ++r) {
        if (r > 0) out.push_back(',');
        reported.insert(ranked[r].arc);
        // The ranking key is reported next to the probability-domain
        // score so byte-compared responses also pin the sort surrogate.
        const auto s = static_cast<std::size_t>(
            std::find(result.suspects.begin(), result.suspects.end(),
                      ranked[r].arc) -
            result.suspects.begin());
        out.append("{\"arc\":").append(std::to_string(ranked[r].arc));
        out.append(",\"score\":");
        obs::append_json_number(&out, ranked[r].score);
        out.append(",\"key\":");
        obs::append_json_number(&out, result.keys[m][s]);
        out.push_back('}');
      }
      out.push_back(']');
    }
    out.append("},\"phi\":{");
    bool first_arc = true;
    for (const ArcId a : reported) {
      if (!first_arc) out.push_back(',');
      first_arc = false;
      const auto s = static_cast<std::size_t>(
          std::find(result.suspects.begin(), result.suspects.end(), a) -
          result.suspects.begin());
      obs::append_json_string(&out, std::to_string(a));
      out.append(":[");
      for (std::size_t j = 0; j < result.phi[s].size(); ++j) {
        if (j > 0) out.push_back(',');
        obs::append_json_number(&out, result.phi[s][j]);
      }
      out.append("]");
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

}  // namespace sddd::store
