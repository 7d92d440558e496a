#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/log.h"

namespace sddd::obs {

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

constexpr std::string_view kCrcPrefix = "{\"crc\":\"";
constexpr std::size_t kCrcHexLen = 16;

}  // namespace

std::string encode_ledger_record(const LedgerRecord& rec) {
  // Payload first (everything the checksum covers), then the framing.
  std::string p;
  p.reserve(512);
  p.append("\"v\":").append(std::to_string(rec.version));
  const auto field = [&p](const char* name, std::string_view value) {
    p.append(",\"").append(name).append("\":");
    append_json_string(&p, value);
  };
  const auto u64_field = [&p](const char* name, std::uint64_t value) {
    p.append(",\"").append(name).append("\":").append(std::to_string(value));
  };
  field("run_id", rec.run_id);
  field("tool", rec.tool);
  field("circuit", rec.circuit);
  field("git_sha", rec.git_sha);
  u64_field("seed", rec.seed);
  u64_field("threads", rec.threads);
  u64_field("mc_samples", rec.mc_samples);
  u64_field("n_chips", rec.n_chips);
  if (!rec.bench.empty()) {
    field("bench", rec.bench);
    u64_field("clients", rec.clients);
    u64_field("batch", rec.batch);
  }
  p.append(",\"wall_seconds\":").append(format_double(rec.wall_seconds));
  p.append(",\"phases\":{");
  bool first = true;
  for (const auto& [name, seconds] : rec.phases) {
    if (!first) p.push_back(',');
    first = false;
    append_json_string(&p, name);
    p.push_back(':');
    p.append(format_double(seconds));
  }
  p.append("},\"counters\":{");
  first = true;
  for (const auto& [name, value] : rec.counters) {
    if (!first) p.push_back(',');
    first = false;
    append_json_string(&p, name);
    p.push_back(':');
    p.append(std::to_string(value));
  }
  p.push_back('}');
  u64_field("peak_rss_kb", rec.peak_rss_kb);
  field("manifest_fnv", rec.manifest_fnv);
  field("result_fnv", rec.result_fnv);
  field("result_path", rec.result_path);
  u64_field("unix_ms", rec.unix_ms);
  p.push_back('}');

  std::string line;
  line.reserve(p.size() + 32);
  line.append(kCrcPrefix);
  line.append(hex64(artifact_fnv(p)));
  line.append("\",");
  line.append(p);
  return line;
}

bool decode_ledger_record(std::string_view line, LedgerRecord* out) {
  // Frame check + checksum verification by pure string ops.
  const std::size_t payload_at = kCrcPrefix.size() + kCrcHexLen + 2;
  if (line.size() < payload_at + 2) return false;
  if (line.substr(0, kCrcPrefix.size()) != kCrcPrefix) return false;
  const std::string_view crc_hex = line.substr(kCrcPrefix.size(), kCrcHexLen);
  if (line.substr(kCrcPrefix.size() + kCrcHexLen, 2) != "\",") return false;
  const std::string_view payload = line.substr(payload_at);
  if (hex64(artifact_fnv(payload)) != crc_hex) return false;

  // The payload is the record object minus its opening brace.  Unknown
  // keys are ignored so old readers tolerate newer records.
  std::string doc;
  doc.reserve(payload.size() + 1);
  doc.push_back('{');
  doc.append(payload);
  JsonValue obj;
  try {
    obj = parse_json(doc);
  } catch (const std::exception&) {
    return false;
  }
  LedgerRecord rec;
  bool ok = true;
  // A present field of the wrong JSON type makes the line corrupt.
  const auto field = [&](const char* key,
                          JsonValue::Kind kind) -> const JsonValue* {
    const JsonValue* v = obj.get(key);
    if (v == nullptr || v->kind == kind) return v;
    ok = false;
    return nullptr;
  };
  const auto str = [&](const char* key, std::string* dst) {
    if (const JsonValue* v = field(key, JsonValue::Kind::kString)) {
      *dst = v->string;
    }
  };
  const auto u64 = [&](const char* key, std::uint64_t* dst) {
    if (const JsonValue* v = field(key, JsonValue::Kind::kNumber)) {
      *dst = v->as_u64();
    }
  };
  std::uint64_t version = static_cast<std::uint64_t>(rec.version);
  u64("v", &version);
  rec.version = static_cast<int>(version);
  str("run_id", &rec.run_id);
  str("tool", &rec.tool);
  str("circuit", &rec.circuit);
  str("git_sha", &rec.git_sha);
  u64("seed", &rec.seed);
  u64("threads", &rec.threads);
  u64("mc_samples", &rec.mc_samples);
  u64("n_chips", &rec.n_chips);
  str("bench", &rec.bench);
  u64("clients", &rec.clients);
  u64("batch", &rec.batch);
  if (const JsonValue* v = field("wall_seconds", JsonValue::Kind::kNumber)) {
    rec.wall_seconds = v->number;
  }
  if (const JsonValue* v = field("phases", JsonValue::Kind::kObject)) {
    for (const auto& [name, x] : v->object) {
      if (!x.is_number()) return false;
      rec.phases[name] = x.number;
    }
  }
  if (const JsonValue* v = field("counters", JsonValue::Kind::kObject)) {
    for (const auto& [name, x] : v->object) {
      if (!x.is_number()) return false;
      rec.counters[name] = x.as_u64();
    }
  }
  u64("peak_rss_kb", &rec.peak_rss_kb);
  str("manifest_fnv", &rec.manifest_fnv);
  str("result_fnv", &rec.result_fnv);
  str("result_path", &rec.result_path);
  u64("unix_ms", &rec.unix_ms);
  if (!ok) return false;
  *out = std::move(rec);
  return true;
}

bool append_ledger_record(const std::string& path, const LedgerRecord& rec) {
  std::string line = encode_ledger_record(rec);
  line.push_back('\n');
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    SDDD_LOG_ERROR("ledger: cannot open %s for append: %s", path.c_str(),
                   std::strerror(errno));
    return false;
  }
  const bool ok = write_all(fd, line);
  if (!ok) {
    SDDD_LOG_ERROR("ledger: write to %s failed: %s", path.c_str(),
                   std::strerror(errno));
  }
  if (ok && ::fsync(fd) != 0) {
    SDDD_LOG_WARN("ledger: fsync %s failed: %s", path.c_str(),
                  std::strerror(errno));
  }
  ::close(fd);
  return ok;
}

LedgerFile load_ledger(const std::string& path) {
  LedgerFile out;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    LedgerRecord rec;
    if (decode_ledger_record(line, &rec)) {
      out.records.push_back(std::move(rec));
    } else {
      ++out.skipped_lines;
      SDDD_LOG_WARN("ledger: %s line %zu is malformed or corrupt; skipped",
                    path.c_str(), line_no);
    }
  }
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

// ---------------------------------------------------------------------------
// Diff

LedgerDiff diff_ledger_records(const LedgerRecord& a, const LedgerRecord& b) {
  LedgerDiff d;
  d.run_a = a.run_id;
  d.run_b = b.run_id;
  d.tool_a = a.tool;
  d.tool_b = b.tool;
  d.circuit_a = a.circuit;
  d.circuit_b = b.circuit;
  d.sha_a = a.git_sha;
  d.sha_b = b.git_sha;
  d.bench_a = a.bench;
  d.bench_b = b.bench;
  d.clients_a = a.clients;
  d.clients_b = b.clients;
  d.batch_a = a.batch;
  d.batch_b = b.batch;
  d.threads_a = a.threads;
  d.threads_b = b.threads;
  d.wall_a = a.wall_seconds;
  d.wall_b = b.wall_seconds;
  d.rss_a = a.peak_rss_kb;
  d.rss_b = b.peak_rss_kb;

  for (const auto& [name, seconds] : a.phases) {
    d.phases.push_back({name, seconds, 0.0});
  }
  for (const auto& [name, seconds] : b.phases) {
    auto it = std::find_if(d.phases.begin(), d.phases.end(),
                           [&](const auto& row) { return row.name == name; });
    if (it == d.phases.end()) {
      d.phases.push_back({name, 0.0, seconds});
    } else {
      it->b = seconds;
    }
  }
  std::sort(d.phases.begin(), d.phases.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });

  for (const auto& [name, value] : a.counters) {
    d.counters.push_back({name, value, 0});
  }
  for (const auto& [name, value] : b.counters) {
    auto it = std::find_if(d.counters.begin(), d.counters.end(),
                           [&](const auto& row) { return row.name == name; });
    if (it == d.counters.end()) {
      d.counters.push_back({name, 0, value});
    } else {
      it->b = value;
    }
  }
  std::sort(d.counters.begin(), d.counters.end(),
            [](const auto& x, const auto& y) { return x.name < y.name; });

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
  const auto serve_suffix = [](const std::string& bench, std::uint64_t clients,
                               std::uint64_t batch) {
    if (bench.empty()) return std::string();
    std::string s = ", bench " + bench;
    if (clients != 0 || batch != 0) {
      s += ", clients " + std::to_string(clients) + ", batch " +
           std::to_string(batch);
    }
    return s;
  };
  os << "run A: " << d.run_a << "  (" << d.tool_a << " " << d.circuit_a
     << ", git " << (d.sha_a.empty() ? "?" : d.sha_a) << ", threads "
     << d.threads_a << serve_suffix(d.bench_a, d.clients_a, d.batch_a)
     << ")\n";
  os << "run B: " << d.run_b << "  (" << d.tool_b << " " << d.circuit_b
     << ", git " << (d.sha_b.empty() ? "?" : d.sha_b) << ", threads "
     << d.threads_b << serve_suffix(d.bench_b, d.clients_b, d.batch_b)
     << ")\n\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %12.4f %10s\n", "wall_s",
                d.wall_a, d.wall_b, d.wall_b - d.wall_a,
                pct_change(d.wall_a, d.wall_b).c_str());
  os << "phase                            run A        run B        delta"
     << "   % change\n"
     << buf;
  for (const auto& row : d.phases) {
    std::snprintf(buf, sizeof(buf), "%-22s %12.4f %12.4f %12.4f %10s\n",
                  row.name.c_str(), row.a, row.b, row.b - row.a,
                  pct_change(row.a, row.b).c_str());
    os << buf;
  }
  if (d.rss_a != 0 || d.rss_b != 0) {
    std::snprintf(buf, sizeof(buf), "%-22s %12llu %12llu %+12lld\n",
                  "peak_rss_kb", static_cast<unsigned long long>(d.rss_a),
                  static_cast<unsigned long long>(d.rss_b),
                  static_cast<long long>(d.rss_b) -
                      static_cast<long long>(d.rss_a));
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
  j.append("{\n  \"run_a\": ");
  append_json_string(&j, d.run_a);
  j.append(",\n  \"run_b\": ");
  append_json_string(&j, d.run_b);
  j.append(",\n  \"tool_a\": ");
  append_json_string(&j, d.tool_a);
  j.append(",\n  \"tool_b\": ");
  append_json_string(&j, d.tool_b);
  j.append(",\n  \"circuit_a\": ");
  append_json_string(&j, d.circuit_a);
  j.append(",\n  \"circuit_b\": ");
  append_json_string(&j, d.circuit_b);
  j.append(",\n  \"git_sha_a\": ");
  append_json_string(&j, d.sha_a);
  j.append(",\n  \"git_sha_b\": ");
  append_json_string(&j, d.sha_b);
  j.append(",\n  \"bench_a\": ");
  append_json_string(&j, d.bench_a);
  j.append(",\n  \"bench_b\": ");
  append_json_string(&j, d.bench_b);
  j.append(",\n  \"clients_a\": ").append(std::to_string(d.clients_a));
  j.append(",\n  \"clients_b\": ").append(std::to_string(d.clients_b));
  j.append(",\n  \"batch_a\": ").append(std::to_string(d.batch_a));
  j.append(",\n  \"batch_b\": ").append(std::to_string(d.batch_b));
  j.append(",\n  \"threads_a\": ").append(std::to_string(d.threads_a));
  j.append(",\n  \"threads_b\": ").append(std::to_string(d.threads_b));
  j.append(",\n  \"wall_a\": ").append(format_double(d.wall_a));
  j.append(",\n  \"wall_b\": ").append(format_double(d.wall_b));
  j.append(",\n  \"peak_rss_kb_a\": ").append(std::to_string(d.rss_a));
  j.append(",\n  \"peak_rss_kb_b\": ").append(std::to_string(d.rss_b));
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
