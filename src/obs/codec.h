// codec.h - The byte-level primitives every SDDD artifact is named or
// framed by, each implemented exactly once.
//
//   Fnv1a64 / artifact_fnv   FNV-1a-64 over bytes or little-endian words.
//                            Names run_ids (experiment fingerprints),
//                            ledger and journal crcs, SDDDICT1 header and
//                            section crcs, trace keys and manifest input
//                            hashes.
//   hex64 / parse_hex64      the 16-lowercase-hex spelling of a u64 (run
//                            ids, trace ids, crcs) and its inverse.
//   json_number              %.17g via std::to_chars: the exact double
//                            round trip, so equal doubles always print
//                            equal bytes.
//   append_json_string       the one JSON string escaper.
//   JsonValue / parse_json   the one JSON reader (server frames, the run
//                            ledger, stats payloads).
//
// Two FNV bases are in use.  kFnv1aOffsetBasis is the textbook one and
// keys the in-memory caches (signature-matrix pattern fingerprints,
// analysis row hashes), which never reach disk.  Everything persisted -
// run_ids, crcs, trace keys - was minted from kArtifactFnvBasis, which is
// the textbook basis 14695981039346656037 with its last digit missing.
// Changing it would orphan every existing store, ledger and journal, so
// it stays; tests/test_golden_pins.cc pins the values it produces.
//
// The writers append into a std::string with no stream in between: the
// serve path renders every diagnose response through them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sddd::obs {

// ---------------------------------------------------------------------------
// FNV-1a-64

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kArtifactFnvBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Incremental FNV-1a-64.  Feeding the same bytes in any chunking gives
/// the same value.
class Fnv1a64 {
 public:
  explicit constexpr Fnv1a64(std::uint64_t basis = kFnv1aOffsetBasis)
      : h_(basis) {}

  Fnv1a64& byte(std::uint8_t b) {
    h_ = (h_ ^ b) * kFnv1aPrime;
    return *this;
  }
  Fnv1a64& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * kFnv1aPrime;
    return *this;
  }
  Fnv1a64& bytes(std::string_view s) { return bytes(s.data(), s.size()); }
  /// The 8 bytes of `w`, least significant first.
  Fnv1a64& word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b, w >>= 8) byte(static_cast<std::uint8_t>(w));
    return *this;
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// FNV-1a-64 of `bytes` from kArtifactFnvBasis: the hash behind every
/// persisted SDDD identity and checksum.
inline std::uint64_t artifact_fnv(std::string_view bytes) {
  return Fnv1a64(kArtifactFnvBasis).bytes(bytes).value();
}

// ---------------------------------------------------------------------------
// Hex

/// `v` as exactly 16 lowercase hex characters.
std::string hex64(std::uint64_t v);

/// Inverse of hex64 for 1-16 lowercase hex characters; false (and `*out`
/// untouched) on anything else, including the empty string.
bool parse_hex64(std::string_view s, std::uint64_t* out);

// ---------------------------------------------------------------------------
// JSON writers

/// Appends `v` byte-for-byte as printf's %.17g would (std::to_chars,
/// general format, precision 17).  Non-finite values print as "inf"/"nan",
/// which is not JSON; callers that can see them must map them first.
void append_json_number(std::string* out, double v);
std::string json_number(double v);

/// Appends `s` as a quoted JSON string.  `"`, `\`, \n, \t and \r get their
/// short escapes, other bytes below 0x20 become \u00XX, and everything else
/// (0x7f, UTF-8 sequences) passes through untouched.
void append_json_string(std::string* out, std::string_view s);
std::string json_quote(std::string_view s);

// ---------------------------------------------------------------------------
// JSON reader

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Set when the number was written as a plain non-negative integer that
  /// fits 64 bits; `u64` then holds it exactly (`number` is only its
  /// nearest double, which loses seeds and counters above 2^53).
  bool is_u64 = false;
  std::uint64_t u64 = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// The exact integer when is_u64, else `number` rounded to nearest.
  std::uint64_t as_u64() const;

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const;
  /// String member with default.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  /// Numeric member with default (also accepts integral-valued doubles).
  double get_number(const std::string& key, double fallback = 0.0) const;
};

/// Arrays and objects nested deeper than this are rejected: the reader
/// recurses once per level and parses untrusted server frames.
inline constexpr std::size_t kMaxJsonDepth = 128;

/// Parses exactly one JSON document (surrounding whitespace allowed).
/// Throws sddd::ParseError on malformed input, on nesting deeper than
/// kMaxJsonDepth and on anything but whitespace after the value.
JsonValue parse_json(std::string_view text);

}  // namespace sddd::obs
