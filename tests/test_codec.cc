// Tests for the shared codec (obs/codec.h): the FNV-1a-64 hasher against
// the reference vectors, hex64 round trips, the %.17g number writer (and
// its printf oracle), the JSON string escaper (table-driven, every row
// round-tripped through the reader) and the reader's limits - exact 64-bit
// integers, the nesting cap and trailing-byte rejection.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "obs/codec.h"
#include "obs/error.h"

namespace sddd {
namespace {

TEST(Codec, Fnv1a64ReferenceVectors) {
  EXPECT_EQ(obs::Fnv1a64().bytes("").value(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(obs::Fnv1a64().bytes("a").value(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(obs::Fnv1a64().bytes("foobar").value(), 0x85944171f73967e8ULL);
}

TEST(Codec, Fnv1a64IsChunkingInvariant) {
  const std::uint64_t whole = obs::Fnv1a64().bytes("foobar").value();
  EXPECT_EQ(obs::Fnv1a64().bytes("foo").bytes("bar").value(), whole);
  obs::Fnv1a64 by_byte;
  for (const char c : std::string("foobar")) {
    by_byte.byte(static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(by_byte.value(), whole);
  // word() feeds the 8 bytes least significant first.
  EXPECT_EQ(obs::Fnv1a64().word(0x0706050403020100ULL).value(),
            obs::Fnv1a64()
                .bytes(std::string_view("\0\1\2\3\4\5\6\7", 8))
                .value());
}

TEST(Codec, ArtifactFnvStartsFromTheArtifactBasis) {
  EXPECT_EQ(obs::artifact_fnv(""), obs::kArtifactFnvBasis);
  EXPECT_EQ(obs::artifact_fnv("foobar"),
            obs::Fnv1a64(obs::kArtifactFnvBasis).bytes("foobar").value());
}

TEST(Codec, Hex64RoundTripsAndRejectsNonCanonicalText) {
  EXPECT_EQ(obs::hex64(0), "0000000000000000");
  EXPECT_EQ(obs::hex64(0xdeadbeefcafef00dULL), "deadbeefcafef00d");
  std::uint64_t v = 0;
  ASSERT_TRUE(obs::parse_hex64("deadbeefcafef00d", &v));
  EXPECT_EQ(v, 0xdeadbeefcafef00dULL);
  ASSERT_TRUE(obs::parse_hex64("1f", &v));
  EXPECT_EQ(v, 0x1fu);
  v = 7;
  EXPECT_FALSE(obs::parse_hex64("", &v));
  EXPECT_FALSE(obs::parse_hex64("00000000000000000", &v));  // 17 digits
  EXPECT_FALSE(obs::parse_hex64("DEADBEEF", &v));           // upper case
  EXPECT_FALSE(obs::parse_hex64("12g4", &v));
  EXPECT_EQ(v, 7u);  // untouched on failure
}

TEST(Codec, JsonNumberIsSeventeenSignificantDigits) {
  EXPECT_EQ(obs::json_number(1.0), "1");
  EXPECT_EQ(obs::json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(obs::json_number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(obs::json_number(-2.5e-300), "-2.5e-300");
  std::string out = "x";
  obs::append_json_number(&out, 0.5);
  EXPECT_EQ(out, "x0.5");
}

// The writer promises printf's %.17g bytes; check it against printf itself
// on the edge values and on 10^5 seeded random bit patterns (every
// exponent, subnormals, NaN payloads and both signs).
TEST(Codec, JsonNumberMatchesPrintfOracle) {
  const auto oracle = [](double v) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf, static_cast<std::size_t>(n));
  };
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      5e-324,
      -5e-324,
      DBL_MAX,
      -DBL_MAX,
      0.1,
  };
  std::mt19937_64 rng(20031);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = oracle(v);
    const std::string got = obs::json_number(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << obs::hex64(std::bit_cast<std::uint64_t>(v))
                    << ": got " << got << ", printf gives " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(Codec, EscaperTableRoundTripsThroughTheReader) {
  struct Row {
    std::string raw;
    std::string quoted;
  };
  const Row rows[] = {
      {"\"", R"("\"")"},
      {"\\", R"("\\")"},
      {"\n", R"("\n")"},
      {"\t", R"("\t")"},
      {"\r", R"("\r")"},
      {std::string(1, '\x01'), R"("\u0001")"},
      {std::string(1, '\x1f'), R"("\u001f")"},
      {std::string(1, '\x7f'), "\"\x7f\""},
      {"caf\xc3\xa9 \xe2\x9c\x93", "\"caf\xc3\xa9 \xe2\x9c\x93\""},
      {"plain", R"("plain")"},
      {"", R"("")"},
  };
  for (const Row& row : rows) {
    const std::string quoted = obs::json_quote(row.raw);
    EXPECT_EQ(quoted, row.quoted);
    const obs::JsonValue back = obs::parse_json(quoted);
    ASSERT_TRUE(back.is_string()) << quoted;
    EXPECT_EQ(back.string, row.raw) << quoted;
  }
  std::string appended = "[";
  obs::append_json_string(&appended, "a\"b");
  EXPECT_EQ(appended, R"(["a\"b")");
}

TEST(Codec, ReaderKeepsUnsignedIntegersExact) {
  const obs::JsonValue doc = obs::parse_json(
      R"({"max":18446744073709551615,"odd":9007199254740993,)"
      R"("neg":-1,"frac":2.5,"over":18446744073709551616})");
  const obs::JsonValue* max = doc.get("max");
  ASSERT_NE(max, nullptr);
  EXPECT_TRUE(max->is_u64);
  EXPECT_EQ(max->as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(doc.get("odd")->as_u64(), (std::uint64_t{1} << 53) + 1);
  EXPECT_FALSE(doc.get("neg")->is_u64);
  EXPECT_DOUBLE_EQ(doc.get("neg")->number, -1.0);
  EXPECT_FALSE(doc.get("frac")->is_u64);
  EXPECT_EQ(doc.get("frac")->as_u64(), 3u);  // rounded to nearest
  EXPECT_FALSE(doc.get("over")->is_u64);     // does not fit 64 bits
  EXPECT_DOUBLE_EQ(doc.get("over")->number, 18446744073709551616.0);
}

TEST(Codec, ReaderCapsNestingDepth) {
  const std::size_t cap = obs::kMaxJsonDepth;
  const std::string at_cap = std::string(cap, '[') + std::string(cap, ']');
  EXPECT_TRUE(obs::parse_json(at_cap).is_array());
  const std::string over =
      std::string(cap + 1, '[') + std::string(cap + 1, ']');
  EXPECT_THROW(obs::parse_json(over), ParseError);
  std::string objects;
  for (std::size_t i = 0; i <= cap; ++i) objects += "{\"k\":";
  objects += "0" + std::string(cap + 1, '}');
  EXPECT_THROW(obs::parse_json(objects), ParseError);
  // The hostile frame: 100,000 open brackets, no recursion to the bottom.
  try {
    obs::parse_json(std::string(100000, '['));
    FAIL() << "100,000 nested arrays must be rejected";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

TEST(Codec, ReaderRejectsTrailingBytes) {
  EXPECT_TRUE(obs::parse_json(" {\"a\":1} \r\n\t").is_object());
  EXPECT_THROW(obs::parse_json("{} x"), ParseError);
  EXPECT_THROW(obs::parse_json("[1]]"), ParseError);
  EXPECT_THROW(obs::parse_json("1 2"), ParseError);
  EXPECT_THROW(obs::parse_json(""), ParseError);
}

}  // namespace
}  // namespace sddd
