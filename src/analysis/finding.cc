#include "analysis/finding.h"

#include <sstream>

#include "obs/codec.h"

namespace sddd::analysis {

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

void Report::add(std::string rule_id, Severity severity, std::string location,
                 std::string message) {
  findings_.push_back(Finding{std::move(rule_id), severity,
                              std::move(location), std::move(message)});
}

std::size_t Report::count(Severity s) const {
  std::size_t n = 0;
  for (const Finding& f : findings_) n += (f.severity == s) ? 1U : 0U;
  return n;
}

bool Report::has_rule(std::string_view rule_id) const {
  for (const Finding& f : findings_) {
    if (f.rule_id == rule_id) return true;
  }
  return false;
}

void Report::merge(const Report& other) {
  findings_.insert(findings_.end(), other.findings_.begin(),
                   other.findings_.end());
}

std::string Report::to_text() const {
  std::ostringstream os;
  for (const Finding& f : findings_) {
    os << severity_name(f.severity) << " " << f.rule_id;
    if (!f.location.empty()) os << " " << f.location;
    os << ": " << f.message << "\n";
  }
  os << findings_.size() << " finding(s): " << error_count() << " error(s), "
     << warning_count() << " warning(s)\n";
  return os.str();
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\n  \"findings\": [";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"rule_id\": "
       << obs::json_quote(f.rule_id) << ", \"severity\": \""
       << severity_name(f.severity)
       << "\", \"location\": " << obs::json_quote(f.location)
       << ", \"message\": " << obs::json_quote(f.message) << "}";
  }
  os << (findings_.empty() ? "" : "\n  ") << "],\n"
     << "  \"errors\": " << error_count() << ",\n"
     << "  \"warnings\": " << warning_count() << "\n}\n";
  return os.str();
}

}  // namespace sddd::analysis
