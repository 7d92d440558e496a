#include "analysis/dictionary_rules.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <string>
#include <vector>

#include "analysis/analysis_graph.h"
#include "analysis/pass.h"
#include "introspect/confidence.h"
#include "obs/codec.h"

namespace sddd::analysis {

namespace {

constexpr double kTol = 1e-9;
constexpr std::size_t kMaxFindings = 16;

std::string cell_loc(const std::string& what, std::size_t i, std::size_t j) {
  return what + "[" + std::to_string(i) + "][" + std::to_string(j) + "]";
}

/// Checks every entry of an output-major matrix against [lo, hi]; returns
/// the number of violations (reporting at most kMaxFindings of them).
std::size_t check_range(const std::vector<std::vector<double>>& m,
                        const std::string& what, double lo, double hi,
                        std::string_view rule, Report& out) {
  std::size_t found = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = 0; j < m[i].size(); ++j) {
      const double v = m[i][j];
      if (std::isfinite(v) && v >= lo - kTol && v <= hi + kTol) continue;
      if (found++ < kMaxFindings) {
        out.add(std::string(rule), Severity::kError, cell_loc(what, i, j),
                "entry " + std::to_string(v) + " lies outside [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
      }
    }
  }
  if (found > kMaxFindings) {
    out.add(std::string(rule), Severity::kError, what,
            std::to_string(found - kMaxFindings) +
                " further out-of-range entries suppressed");
  }
  return found;
}

class ProbabilityRangeRule final : public Rule {
 public:
  std::string_view id() const override { return kRuleProbabilityRange; }
  Severity severity() const override { return Severity::kError; }
  std::string_view summary() const override {
    return "critical probability (M_crt/E_crt) outside [0, 1]";
  }

  void run(const PassContext& ctx, Report& out) const override {
    const AnalysisInput& in = ctx.input();
    if (in.dictionary == nullptr) return;
    check_range(in.dictionary->m_crt, "M", 0.0, 1.0, id(), out);
  }
};

class SignatureRangeRule final : public Rule {
 public:
  std::string_view id() const override { return kRuleSignatureRange; }
  Severity severity() const override { return Severity::kError; }
  std::string_view summary() const override {
    return "signature probability (S_crt) outside [-1, 1]";
  }

  void run(const PassContext& ctx, Report& out) const override {
    const AnalysisInput& in = ctx.input();
    if (in.dictionary == nullptr) return;
    for (const auto& sig : in.dictionary->signatures) {
      check_range(sig.s_crt, "S(" + sig.label + ")", -1.0, 1.0, id(), out);
    }
  }
};

class DictionaryShapeRule final : public Rule {
 public:
  std::string_view id() const override { return kRuleDictionaryShape; }
  Severity severity() const override { return Severity::kError; }
  std::string_view summary() const override {
    return "dictionary matrix dimensions inconsistent with |O| x |TP|";
  }

  void run(const PassContext& ctx, Report& out) const override {
    const AnalysisInput& in = ctx.input();
    if (in.dictionary == nullptr) return;
    const auto& d = *in.dictionary;
    check_shape(d.m_crt, "M", d, out);
    for (const auto& sig : d.signatures) {
      check_shape(sig.s_crt, "S(" + sig.label + ")", d, out);
    }
  }

 private:
  void check_shape(const std::vector<std::vector<double>>& m,
                   const std::string& what, const DictionarySubject& d,
                   Report& out) const {
    if (m.empty()) return;  // subject member not supplied
    if (m.size() != d.n_outputs) {
      out.add(std::string(id()), severity(), what,
              "matrix has " + std::to_string(m.size()) +
                  " output rows, expected |O| = " +
                  std::to_string(d.n_outputs));
    }
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m[i].size() != d.n_patterns) {
        out.add(std::string(id()), severity(),
                what + " row " + std::to_string(i),
                "row has " + std::to_string(m[i].size()) +
                    " pattern columns, expected |TP| = " +
                    std::to_string(d.n_patterns));
        return;  // one ragged row implies more; avoid flooding
      }
    }
  }
};

class ZeroSignatureRule final : public Rule {
 public:
  std::string_view id() const override { return kRuleZeroSignature; }
  Severity severity() const override { return Severity::kWarning; }
  std::string_view summary() const override {
    return "all-zero signature: suspect predicts no failure, undiagnosable";
  }

  void run(const PassContext& ctx, Report& out) const override {
    const AnalysisInput& in = ctx.input();
    if (in.dictionary == nullptr) return;
    for (const auto& sig : in.dictionary->signatures) {
      if (sig.s_crt.empty()) continue;
      bool all_zero = true;
      for (const auto& row : sig.s_crt) {
        for (const double v : row) {
          if (std::abs(v) > kTol) {
            all_zero = false;
            break;
          }
        }
        if (!all_zero) break;
      }
      if (all_zero) {
        out.add(std::string(id()), severity(), sig.label,
                "signature is identically zero over every (output, "
                "pattern) cell: the pattern set cannot distinguish this "
                "suspect from a defect-free chip");
      }
    }
  }
};

class DuplicateSignatureRule final : public Rule {
 public:
  std::string_view id() const override { return kRuleDuplicateSignature; }
  Severity severity() const override { return Severity::kWarning; }
  std::string_view summary() const override {
    return "identical signatures cap diagnosability (equivalence class)";
  }

  // Signatures are hash-bucketed by their bit pattern and verified with an
  // exact compare, so the pass is one sweep over the matrices instead of
  // the O(n^2) pairwise scan it replaced - and the report carries one
  // finding per equivalence class listing every member, not a quadratic
  // flood of pairs.  kTol survives only in the all-zero screen (DICT004's
  // subject): duplicates born of a shared computation are bit-identical.
  void run(const PassContext& ctx, Report& out) const override {
    const AnalysisInput& in = ctx.input();
    if (in.dictionary == nullptr) return;
    const auto& sigs = in.dictionary->signatures;
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::size_t, int>>>
        buckets;
    std::vector<std::vector<std::size_t>> classes;
    for (std::size_t a = 0; a < sigs.size(); ++a) {
      // All-zero signatures are DICT004's finding; classing them here
      // would bury the report under one giant meaningless class.
      if (sigs[a].s_crt.empty() || is_zero(sigs[a].s_crt)) continue;
      auto& bucket = buckets[hash_matrix(sigs[a].s_crt)];
      bool placed = false;
      for (auto& [rep, cls] : bucket) {
        if (equal(sigs[rep].s_crt, sigs[a].s_crt)) {
          classes[static_cast<std::size_t>(cls)].push_back(a);
          placed = true;
          break;
        }
      }
      if (!placed) {
        bucket.emplace_back(a, static_cast<int>(classes.size()));
        classes.push_back({a});
      }
    }
    std::size_t found = 0;
    for (const auto& cls : classes) {
      if (cls.size() < 2) continue;
      if (found++ >= kMaxFindings) continue;
      std::string members;
      constexpr std::size_t kMaxNamed = 6;
      for (std::size_t i = 0; i < cls.size() && i < kMaxNamed; ++i) {
        members += (i == 0 ? "" : ", ") + sigs[cls[i]].label;
      }
      if (cls.size() > kMaxNamed) {
        members += ", ... (" + std::to_string(cls.size() - kMaxNamed) +
                   " more)";
      }
      std::string msg =
          "equivalence class of " + std::to_string(cls.size()) +
          " identical signatures {" + members +
          "}: no error function can rank one member above another, so "
          "top-K resolution is capped by this class";
      const int group = matching_ambiguity_group(ctx, sigs, cls);
      if (group >= 0) {
        msg += "; matches ambiguity group #" + std::to_string(group) +
               " (DIAG001), confirming the structural prediction";
      }
      out.add(std::string(id()), severity(),
              sigs[cls.front()].label + " (+" +
                  std::to_string(cls.size() - 1) + " more)",
              msg);
    }
    if (found > kMaxFindings) {
      out.add(std::string(id()), severity(), "signatures",
              std::to_string(found - kMaxFindings) +
                  " further equivalence classes suppressed");
    }
  }

 private:
  static bool is_zero(const std::vector<std::vector<double>>& x) {
    for (const auto& row : x) {
      for (const double v : row) {
        if (std::abs(v) > kTol) return false;
      }
    }
    return true;
  }

  static std::uint64_t hash_matrix(const std::vector<std::vector<double>>& x) {
    obs::Fnv1a64 h;
    h.word(x.size());
    for (const auto& row : x) {
      h.word(row.size());
      for (const double v : row) {
        // Normalize +/-0.0 so equal() and the hash agree on it.
        std::uint64_t bits;
        const double canon = v == 0.0 ? 0.0 : v;
        std::memcpy(&bits, &canon, sizeof bits);
        h.word(bits);
      }
    }
    return h.value();
  }

  static bool equal(const std::vector<std::vector<double>>& x,
                    const std::vector<std::vector<double>>& y) {
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].size() != y[i].size()) return false;
      for (std::size_t j = 0; j < x[i].size(); ++j) {
        if (x[i][j] != y[i][j]) return false;
      }
    }
    return true;
  }

  /// Cross-link to DIAG001: when the input also carries a diagnosability
  /// subject and every member label parses as "arc N" with all N in one
  /// structural ambiguity group, returns that group's index; -1 otherwise.
  static int matching_ambiguity_group(
      const PassContext& ctx,
      const std::vector<DictionarySubject::Signature>& sigs,
      const std::vector<std::size_t>& cls) {
    const DiagnosabilitySubject* subject = ctx.input().diagnosability;
    if (subject == nullptr || subject->netlist == nullptr ||
        subject->lev == nullptr || subject->logic_sim == nullptr) {
      return -1;
    }
    const SensitizationFacts& facts = ctx.sensitization_facts();
    int group = -1;
    for (const std::size_t s : cls) {
      const std::string& label = sigs[s].label;
      if (label.rfind("arc ", 0) != 0) return -1;
      char* end = nullptr;
      const unsigned long arc = std::strtoul(label.c_str() + 4, &end, 10);
      if (end == label.c_str() + 4 || arc >= facts.group_of.size()) return -1;
      const int g = facts.group_of[arc];
      if (g < 0 || (group >= 0 && g != group)) return -1;
      group = g;
    }
    return group;
  }
};

class SampleBudgetRule final : public Rule {
 public:
  std::string_view id() const override { return kRuleSampleBudget; }
  Severity severity() const override { return Severity::kWarning; }
  std::string_view summary() const override {
    return "Monte-Carlo sample count too low for the requested confidence";
  }

  // Uses the header-only confidence math (introspect/confidence.h) rather
  // than linking sddd_introspect, which would cycle back through
  // sddd_diagnosis into this library.
  void run(const PassContext& ctx, Report& out) const override {
    const AnalysisInput& in = ctx.input();
    if (in.dictionary == nullptr) return;
    const auto& d = *in.dictionary;
    if (d.mc_samples == 0 || d.target_ci_halfwidth <= 0.0) return;
    const double worst =
        introspect::wilson_worst_halfwidth(d.mc_samples);
    if (worst <= d.target_ci_halfwidth) return;
    const std::size_t needed =
        introspect::samples_for_halfwidth(d.target_ci_halfwidth);
    char msg[256];
    std::snprintf(msg, sizeof msg,
                  "%zu Monte-Carlo samples give a worst-case 95%% confidence "
                  "halfwidth of %.3f per dictionary entry, above the %.3f "
                  "target; use at least %zu samples",
                  d.mc_samples, worst, d.target_ci_halfwidth, needed);
    out.add(std::string(id()), severity(), "mc_samples", msg);
  }
};

}  // namespace

void register_dictionary_rules(Analyzer& a) {
  a.add_rule(std::make_unique<ProbabilityRangeRule>());
  a.add_rule(std::make_unique<SignatureRangeRule>());
  a.add_rule(std::make_unique<DictionaryShapeRule>());
  a.add_rule(std::make_unique<ZeroSignatureRule>());
  a.add_rule(std::make_unique<DuplicateSignatureRule>());
  a.add_rule(std::make_unique<SampleBudgetRule>());
}

}  // namespace sddd::analysis
