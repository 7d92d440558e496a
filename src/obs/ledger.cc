#include "obs/ledger.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/codec.h"
#include "obs/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/record_log.h"

namespace sddd::obs {

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Peak resident set (VmHWM) in kB from /proc/self/status; 0 when the
/// field is unavailable (non-Linux).
std::uint64_t read_peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  if (!in.is_open()) return 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// The record's fields from one decoded ledger line; false when the format
/// version is missing (a record of another log, e.g. a journal line) or a
/// present field has the wrong type.  Unknown keys are ignored so old
/// readers tolerate newer records.
bool ledger_fields(const JsonValue& obj, LedgerRecord* out) {
  if (obj.get("v") == nullptr) return false;
  RecordFields f(obj);
  LedgerRecord rec;
  f.u64("v", &rec.version);
  f.str("run_id", &rec.run_id);
  f.str("tool", &rec.tool);
  f.str("circuit", &rec.circuit);
  f.str("git_sha", &rec.git_sha);
  f.u64("seed", &rec.seed);
  f.u64("threads", &rec.threads);
  f.u64("mc_samples", &rec.mc_samples);
  f.u64("n_chips", &rec.n_chips);
  f.str("bench", &rec.bench);
  f.u64("clients", &rec.clients);
  f.u64("batch", &rec.batch);
  if (const JsonValue* v = f.get("wall_seconds", JsonValue::Kind::kNumber)) {
    rec.wall_seconds = v->number;
  }
  if (const JsonValue* v = f.get("phases", JsonValue::Kind::kObject)) {
    for (const auto& [name, x] : v->object) {
      if (!x.is_number()) return false;
      rec.phases[name] = x.number;
    }
  }
  if (const JsonValue* v = f.get("counters", JsonValue::Kind::kObject)) {
    for (const auto& [name, x] : v->object) {
      if (!x.is_number()) return false;
      rec.counters[name] = x.as_u64();
    }
  }
  f.u64("peak_rss_kb", &rec.peak_rss_kb);
  f.str("manifest_fnv", &rec.manifest_fnv);
  f.str("result_fnv", &rec.result_fnv);
  f.str("result_path", &rec.result_path);
  f.u64("unix_ms", &rec.unix_ms);
  if (!f.ok()) return false;
  *out = std::move(rec);
  return true;
}

}  // namespace

std::string encode_ledger_record(const LedgerRecord& rec) {
  RecordMembers m;
  m.raw("v", std::to_string(rec.version))
      .str("run_id", rec.run_id)
      .str("tool", rec.tool)
      .str("circuit", rec.circuit)
      .str("git_sha", rec.git_sha)
      .u64("seed", rec.seed)
      .u64("threads", rec.threads)
      .u64("mc_samples", rec.mc_samples)
      .u64("n_chips", rec.n_chips);
  if (!rec.bench.empty()) {
    m.str("bench", rec.bench).u64("clients", rec.clients).u64("batch",
                                                               rec.batch);
  }
  std::string phases = "{";
  for (const auto& [name, seconds] : rec.phases) {
    if (phases.size() > 1) phases.push_back(',');
    append_json_string(&phases, name);
    phases.push_back(':');
    phases.append(format_double(seconds));
  }
  phases.push_back('}');
  std::string counters = "{";
  for (const auto& [name, value] : rec.counters) {
    if (counters.size() > 1) counters.push_back(',');
    append_json_string(&counters, name);
    counters.push_back(':');
    counters.append(std::to_string(value));
  }
  counters.push_back('}');
  return m.raw("wall_seconds", format_double(rec.wall_seconds))
      .raw("phases", phases)
      .raw("counters", counters)
      .u64("peak_rss_kb", rec.peak_rss_kb)
      .str("manifest_fnv", rec.manifest_fnv)
      .str("result_fnv", rec.result_fnv)
      .str("result_path", rec.result_path)
      .u64("unix_ms", rec.unix_ms)
      .frame();
}

bool decode_ledger_record(std::string_view line, LedgerRecord* out) {
  JsonValue obj;
  return unframe_record(line, &obj) && ledger_fields(obj, out);
}

bool append_ledger_record(const std::string& path, const LedgerRecord& rec) {
  LedgerRecord stamped = rec;
  stamped.counters = MetricsRegistry::instance().snapshot().counters;
  stamped.peak_rss_kb = read_peak_rss_kb();
  stamped.unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  try {
    RecordLogWriter log(path, RecordLogWriter::Mode::kAppend);
    log.append(encode_ledger_record(stamped));
  } catch (const Error& e) {
    SDDD_LOG_ERROR("ledger: %s", e.what());
    return false;
  }
  return true;
}

LedgerFile load_ledger(const std::string& path) {
  LedgerFile out;
  out.skipped_lines =
      scan_record_log(path, "ledger", [&](const JsonValue& obj) {
        LedgerRecord rec;
        if (!ledger_fields(obj, &rec)) return false;
        out.records.push_back(std::move(rec));
        return true;
      });
  return out;
}

std::optional<LedgerRecord> ledger_tail(const std::string& path) {
  LedgerFile file = load_ledger(path);
  if (file.records.empty()) return std::nullopt;
  return std::move(file.records.back());
}

std::string new_invocation_run_id(std::string_view tool,
                                  std::string_view git_sha) {
  std::string seed;
  seed.append(tool).push_back('|');
  seed.append(git_sha).push_back('|');
  seed.append(std::to_string(::getpid())).push_back('|');
  seed.append(std::to_string(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  return hex64(artifact_fnv(seed));
}

// ---------------------------------------------------------------------------
// Diff

namespace {

/// One row per key of `a` or `b`, sorted by key; a key missing on one side
/// reads 0 there.
template <class Row, class Map>
std::vector<Row> union_rows(const Map& a, const Map& b) {
  std::map<std::string, Row> rows;
  for (const auto& [name, v] : a) rows[name].a = v;
  for (const auto& [name, v] : b) rows[name].b = v;
  std::vector<Row> out;
  for (auto& [name, row] : rows) {
    row.name = name;
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace

LedgerDiff diff_ledger_records(const LedgerRecord& a, const LedgerRecord& b) {
  LedgerDiff d;
  d.a = a;
  d.b = b;
  d.phases = union_rows<LedgerDiff::PhaseRow>(a.phases, b.phases);
  d.counters = union_rows<LedgerDiff::CounterRow>(a.counters, b.counters);
  if (a.result_fnv.empty() || b.result_fnv.empty()) {
    d.rank_stability = "unknown";
  } else if (a.run_id != b.run_id) {
    d.rank_stability = "n/a (different run_ids)";
  } else if (a.result_fnv == b.result_fnv) {
    d.rank_stability = "identical";
  } else {
    d.rank_stability = "DIFFERS";
  }
  return d;
}

namespace {

std::string pct_change(double a, double b) {
  if (a == 0.0) return b == 0.0 ? "+0.0%" : "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", (b - a) / a * 100.0);
  return buf;
}

}  // namespace

std::string ledger_diff_to_text(const LedgerDiff& d) {
  std::ostringstream os;
  const auto run_line = [&os](const char* label, const LedgerRecord& r) {
    os << "run " << label << ": " << r.run_id << "  (" << r.tool << " "
       << r.circuit << ", git " << (r.git_sha.empty() ? "?" : r.git_sha)
       << ", threads " << r.threads;
    if (!r.bench.empty()) {
      os << ", bench " << r.bench;
      if (r.clients != 0 || r.batch != 0) {
        os << ", clients " << r.clients << ", batch " << r.batch;
      }
    }
    os << ")\n";
  };
  run_line("A", d.a);
  run_line("B", d.b);
  os << "\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %12.4f %10s\n", "wall_s",
                d.a.wall_seconds, d.b.wall_seconds,
                d.b.wall_seconds - d.a.wall_seconds,
                pct_change(d.a.wall_seconds, d.b.wall_seconds).c_str());
  os << "phase                            run A        run B        delta"
     << "   % change\n"
     << buf;
  for (const auto& row : d.phases) {
    std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %12.4f %10s\n",
                  row.name.c_str(), row.a, row.b, row.b - row.a,
                  pct_change(row.a, row.b).c_str());
    os << buf;
  }
  const std::uint64_t rss_a = d.a.peak_rss_kb;
  const std::uint64_t rss_b = d.b.peak_rss_kb;
  if (rss_a != 0 || rss_b != 0) {
    std::snprintf(buf, sizeof(buf), "%-22s %12llu %12llu %+12lld\n",
                  "peak_rss_kb", static_cast<unsigned long long>(rss_a),
                  static_cast<unsigned long long>(rss_b),
                  static_cast<long long>(rss_b) -
                      static_cast<long long>(rss_a));
    os << buf;
  }
  os << "\ncounters (changed only):\n";
  std::size_t changed = 0;
  for (const auto& row : d.counters) {
    if (row.a == row.b) continue;
    ++changed;
    std::snprintf(buf, sizeof(buf), "  %-28s %14llu %14llu %+14lld %9s\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.a),
                  static_cast<unsigned long long>(row.b),
                  static_cast<long long>(row.b) - static_cast<long long>(row.a),
                  pct_change(static_cast<double>(row.a),
                             static_cast<double>(row.b))
                      .c_str());
    os << buf;
  }
  if (changed == 0) os << "  (none)\n";
  os << "\nrank stability: " << d.rank_stability << "\n";
  return os.str();
}

std::string ledger_diff_to_json(const LedgerDiff& d) {
  std::string j;
  j.reserve(1024);
  j.push_back('{');
  // One `"<name>_a": ..., "<name>_b": ...` pair per compared field.
  const auto key = [&j](const char* name, const char* side) {
    j.append(j.size() == 1 ? "\n  \"" : ",\n  \"").append(name);
    j.append(side).append("\": ");
  };
  const auto str = [&](const char* name, std::string LedgerRecord::*f) {
    key(name, "_a");
    append_json_string(&j, d.a.*f);
    key(name, "_b");
    append_json_string(&j, d.b.*f);
  };
  const auto num = [&](const char* name, const std::string& a,
                       const std::string& b) {
    key(name, "_a");
    j.append(a);
    key(name, "_b");
    j.append(b);
  };
  const auto u64 = [&](const char* name, std::uint64_t LedgerRecord::*f) {
    num(name, std::to_string(d.a.*f), std::to_string(d.b.*f));
  };
  str("run", &LedgerRecord::run_id);
  str("tool", &LedgerRecord::tool);
  str("circuit", &LedgerRecord::circuit);
  str("git_sha", &LedgerRecord::git_sha);
  str("bench", &LedgerRecord::bench);
  u64("clients", &LedgerRecord::clients);
  u64("batch", &LedgerRecord::batch);
  u64("threads", &LedgerRecord::threads);
  num("wall", format_double(d.a.wall_seconds),
      format_double(d.b.wall_seconds));
  u64("peak_rss_kb", &LedgerRecord::peak_rss_kb);
  j.append(",\n  \"phases\": {");
  bool first = true;
  for (const auto& row : d.phases) {
    if (!first) j.push_back(',');
    first = false;
    j.append("\n    ");
    append_json_string(&j, row.name);
    j.append(": {\"a\": ").append(format_double(row.a));
    j.append(", \"b\": ").append(format_double(row.b));
    j.append(", \"delta\": ").append(format_double(row.b - row.a));
    j.push_back('}');
  }
  j.append(first ? "}" : "\n  }");
  j.append(",\n  \"counters\": {");
  first = true;
  for (const auto& row : d.counters) {
    if (row.a == row.b) continue;
    if (!first) j.push_back(',');
    first = false;
    j.append("\n    ");
    append_json_string(&j, row.name);
    j.append(": {\"a\": ").append(std::to_string(row.a));
    j.append(", \"b\": ").append(std::to_string(row.b));
    j.append(", \"delta\": ")
        .append(std::to_string(static_cast<long long>(row.b) -
                               static_cast<long long>(row.a)));
    j.push_back('}');
  }
  j.append(first ? "}" : "\n  }");
  j.append(",\n  \"rank_stability\": ");
  append_json_string(&j, d.rank_stability);
  j.append("\n}\n");
  return j;
}

}  // namespace sddd::obs
