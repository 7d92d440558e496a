#include "obs/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>

#include "obs/atomic_file.h"
#include "obs/error.h"
#include "obs/log.h"

namespace sddd::obs {

namespace {

constexpr std::string_view kCrcPrefix = "{\"crc\":\"";
constexpr std::size_t kCrcHexLen = 16;
constexpr std::size_t kPayloadAt = kCrcPrefix.size() + kCrcHexLen + 2;

}  // namespace

std::string frame_record(std::string_view members) {
  std::string payload(members);
  payload.push_back('}');
  return std::string(kCrcPrefix) + hex64(artifact_fnv(payload)) + "\"," +
         payload;
}

bool unframe_record(std::string_view line, JsonValue* out) {
  if (line.size() < kPayloadAt + 2 ||
      line.substr(0, kCrcPrefix.size()) != kCrcPrefix ||
      line.substr(kCrcPrefix.size() + kCrcHexLen, 2) != "\",") {
    return false;
  }
  const std::string_view payload = line.substr(kPayloadAt);
  if (hex64(artifact_fnv(payload)) !=
      line.substr(kCrcPrefix.size(), kCrcHexLen)) {
    return false;
  }
  // The payload is the record object minus its opening brace.
  std::string doc = "{";
  doc.append(payload);
  try {
    *out = parse_json(doc);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

RecordMembers& RecordMembers::raw(std::string_view key,
                                  std::string_view json) {
  if (!members_.empty()) members_.push_back(',');
  members_.push_back('"');
  members_.append(key).append("\":").append(json);
  return *this;
}

RecordMembers& RecordMembers::str(std::string_view key,
                                  std::string_view value) {
  raw(key, "");
  append_json_string(&members_, value);
  return *this;
}

RecordMembers& RecordMembers::u64(std::string_view key, std::uint64_t value) {
  return raw(key, std::to_string(value));
}

const JsonValue* RecordFields::get(const char* key, JsonValue::Kind kind) {
  const JsonValue* v = record_.get(key);
  if (v == nullptr || v->kind == kind) return v;
  ok_ = false;
  return nullptr;
}

void RecordFields::str(const char* key, std::string* dst) {
  if (const JsonValue* v = get(key, JsonValue::Kind::kString)) *dst = v->string;
}

void RecordFields::boolean(const char* key, bool* dst) {
  if (const JsonValue* v = get(key, JsonValue::Kind::kBool)) *dst = v->boolean;
}

void RecordFields::integer(const char* key, int* dst) {
  if (const JsonValue* v = get(key, JsonValue::Kind::kNumber)) {
    if (!to_int(*v, dst)) ok_ = false;
  }
}

bool RecordFields::to_int(const JsonValue& v, int* out) {
  if (!v.is_number() || std::trunc(v.number) != v.number ||
      v.number < std::numeric_limits<int>::min() ||
      v.number > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v.number);
  return true;
}

std::size_t scan_record_log(
    const std::string& path, std::string_view what,
    const std::function<bool(const JsonValue&)>& accept) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;
  std::size_t skipped = 0;
  std::size_t line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    JsonValue record;
    if (!unframe_record(line, &record) || !accept(record)) {
      ++skipped;
      SDDD_LOG_WARN("%.*s: %s line %zu is malformed or corrupt; skipped",
                    static_cast<int>(what.size()), what.data(), path.c_str(),
                    line_no);
    }
  }
  return skipped;
}

RecordLogWriter::RecordLogWriter(const std::string& path, Mode mode)
    : path_(path) {
  fd_ = ::open(path.c_str(),
               O_RDWR | O_CREAT | (mode == Mode::kAppend ? O_APPEND : O_TRUNC),
               0644);
  // Close off a torn tail so the next record starts on a line of its own.
  struct stat st {};
  char last = '\n';
  const bool ok =
      fd_ >= 0 && ::fstat(fd_, &st) == 0 &&
      (st.st_size == 0 || ::pread(fd_, &last, 1, st.st_size - 1) == 1) &&
      (last == '\n' || write_all(fd_, "\n"));
  if (!ok) {
    const std::string err = std::strerror(errno);
    if (fd_ >= 0) ::close(fd_);
    throw IoError("cannot append to " + path + ": " + err);
  }
  unsynced_ = last == '\n' ? 0 : 1;
}

RecordLogWriter::~RecordLogWriter() {
  sync_locked();
  ::close(fd_);
}

void RecordLogWriter::append(std::string line) {
  line.push_back('\n');
  const std::lock_guard<std::mutex> lock(mu_);
  if (!write_all(fd_, line)) {
    throw IoError("write to " + path_ + " failed: " + std::strerror(errno));
  }
  if (++unsynced_ >= kSyncEvery) sync_locked();
}

void RecordLogWriter::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  sync_locked();
}

void RecordLogWriter::sync_locked() {
  if (unsynced_ == 0) return;
  unsynced_ = 0;
  if (::fsync(fd_) != 0) {
    SDDD_LOG_WARN("fsync %s failed: %s", path_.c_str(), std::strerror(errno));
  }
}

}  // namespace sddd::obs
