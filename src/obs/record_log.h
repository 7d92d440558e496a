// record_log.h - The one checksummed append-only JSONL log, shared by the
// trial journal (eval/checkpoint.h) and the run ledger (obs/ledger.h).
// Each of them keeps only its field mapping; this module owns the rest.
//
// Frame: one record per LF-terminated line,
//
//   {"crc":"<16 hex>",<members>}
//
// where the crc is hex64(artifact_fnv(payload)) of payload = `<members>}`,
// every byte after the `"crc":"<16 hex>",` prefix, so integrity is checked
// by string operations before the JSON reader sees a byte.
//
// Scanner: every valid record reaches the caller in file order; empty,
// torn, corrupt and crc-failed lines are counted, warned about and skipped,
// never fatal.  Readers replay records into keyed slots in file order, so a
// later record for the same key wins.
//
// Appender: O_APPEND (O_TRUNC for a fresh log).  A non-empty file that does
// not end in LF ends in the fragment of a crash mid-append; the appender
// first writes an LF so the fragment stays one skipped line and the next
// record is not glued onto it.  Whole lines are written under a mutex,
// fsynced every kSyncEvery appends, on flush() and on destruction.
//
// The single_record_log ctest keeps fsync, ftruncate and O_APPEND out of
// every other file in src/, tools/ and bench/ but obs/atomic_file.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/codec.h"

namespace sddd::obs {

/// Frames `members` (comma-separated `"key":value` JSON members, no
/// braces) as one log line without the trailing LF.
std::string frame_record(std::string_view members);

/// Verifies the frame and crc of `line` and parses it into `*out`; false
/// on any torn, corrupt or malformed line.
bool unframe_record(std::string_view line, JsonValue* out);

/// Builds one record's members in order.  Keys are written as-is.
class RecordMembers {
 public:
  RecordMembers& str(std::string_view key, std::string_view value);
  RecordMembers& u64(std::string_view key, std::uint64_t value);
  /// `json` verbatim: an already encoded number, bool, array or object.
  RecordMembers& raw(std::string_view key, std::string_view json);
  std::string frame() const { return frame_record(members_); }

 private:
  std::string members_;
};

/// Typed reads of one record's members.  An absent member leaves its
/// destination untouched; a member of the wrong JSON type, or a number the
/// destination cannot hold, marks the record bad.
class RecordFields {
 public:
  explicit RecordFields(const JsonValue& record) : record_(record) {}

  /// The member when present with `kind`, else nullptr.
  const JsonValue* get(const char* key, JsonValue::Kind kind);
  void str(const char* key, std::string* dst);
  void boolean(const char* key, bool* dst);
  void integer(const char* key, int* dst);
  /// A non-negative integer (JsonValue::as_u64) that fits `T`.
  template <class T>
  void u64(const char* key, T* dst) {
    if (const JsonValue* v = get(key, JsonValue::Kind::kNumber)) {
      const std::uint64_t x = v->as_u64();
      if (x > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        ok_ = false;
      } else {
        *dst = static_cast<T>(x);
      }
    }
  }
  /// `v` as an int when it is an integral number in int range.
  static bool to_int(const JsonValue& v, int* out);

  void fail() { ok_ = false; }
  bool ok() const { return ok_; }

 private:
  const JsonValue& record_;
  bool ok_ = true;
};

/// Calls `accept` on every valid record of `path` in file order and
/// returns the number of skipped lines: torn, corrupt, or rejected by
/// `accept`.  Each is warned about as `<what>: <path> line N ...`.  A
/// missing file scans as empty; exceptions from `accept` propagate.
std::size_t scan_record_log(
    const std::string& path, std::string_view what,
    const std::function<bool(const JsonValue&)>& accept);

/// The append side; thread-safe.
class RecordLogWriter {
 public:
  enum class Mode { kAppend, kTruncate };

  /// Opens (creating) `path`.  Throws sddd::IoError on failure.
  RecordLogWriter(const std::string& path, Mode mode);
  ~RecordLogWriter();
  RecordLogWriter(const RecordLogWriter&) = delete;
  RecordLogWriter& operator=(const RecordLogWriter&) = delete;

  /// Appends `line` plus LF.  Throws sddd::IoError on write failure.
  void append(std::string line);
  void flush();

  /// Appends per fsync: bounds the crash-loss window without paying a disk
  /// flush per record.
  static constexpr std::size_t kSyncEvery = 8;

 private:
  void sync_locked();

  std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  std::size_t unsynced_ = 0;
};

}  // namespace sddd::obs
