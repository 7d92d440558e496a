#include "store/query.h"

#include <algorithm>
#include <bit>
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

StoreQueryEngine::StoreQueryEngine(const DictionaryStore& store)
    : store_(&store) {
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
  std::vector<diagnosis::ScoreAccumulator> acc(n_suspects);

  // The diagnoser's collapsed kernel loop, with the cache lookups replaced
  // by pointers into the mapping: per pattern, pack B's column, gather the
  // columns of the suspects the pattern observes plus one baseline lane
  // (m_column, or zeros in S mode) shared by all the others, and run one
  // phi_block over them.  phi_block lanes are independent and an
  // unobservable suspect's stored column is bit-equal to the baseline, so
  // every suspect gets the phi the uncollapsed loop would compute, and
  // add_phi runs in pattern order - scores and keys are bit-identical.
  const std::vector<double> zeros(match_on_total_probability ? 0 : n_outputs,
                                  0.0);
  std::vector<const double*> cols;
  std::vector<double> phi_lanes;
  diagnosis::PackedBColumn b;
  for (std::size_t j = 0; j < n_patterns; ++j) {
    cols.clear();
    for (const ArcId a : result.suspects) {
      if (!observable(j, a)) continue;
      cols.push_back(match_on_total_probability ? st.e_column(j, a)
                                                : st.s_column(j, a));
    }
    const std::size_t n_active = cols.size();
    const bool any_inactive = n_active < n_suspects;
    if (any_inactive) {
      cols.push_back(match_on_total_probability ? st.m_column(j)
                                                : zeros.data());
    }
    b.pack(B, j);
    phi_lanes.resize(cols.size());
    diagnosis::phi_block(cols.data(), cols.size(), n_outputs, b,
                         phi_lanes.data());
    // Scatter: each observable suspect its own lane, every other one the
    // shared lane, whose accumulator terms are computed once.
    const double shared = any_inactive ? phi_lanes[n_active] : 0.0;
    const diagnosis::ScoreAccumulator::Terms shared_terms(shared);
    for (std::size_t s = 0, k = 0; s < n_suspects; ++s) {
      if (observable(j, result.suspects[s])) {
        if (capture_phi) result.phi[s][j] = phi_lanes[k];
        acc[s].add_phi(phi_lanes[k++]);
      } else {
        if (capture_phi) result.phi[s][j] = shared;
        acc[s].add(shared_terms);
      }
    }
    diagnosis::note_phi_evals(cols.size());
    diagnosis::note_kernel_pattern(n_active);
  }

  result.scores.resize(methods.size());
  result.keys.resize(methods.size());
  for (std::size_t m = 0; m < methods.size(); ++m) {
    result.scores[m].resize(n_suspects);
    result.keys[m].resize(n_suspects);
    for (std::size_t s = 0; s < n_suspects; ++s) {
      result.scores[m][s] = acc[s].finish(methods[m], n_patterns);
      result.keys[m][s] = acc[s].ranking_key(methods[m], n_patterns);
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
