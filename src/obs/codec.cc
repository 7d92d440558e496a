#include "obs/codec.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/error.h"

namespace sddd::obs {

// ---------------------------------------------------------------------------
// Hex

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

bool parse_hex64(std::string_view s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------
// JSON writers

void append_json_number(std::string* out, double v) {
  // to_chars(general, 17) is specified to print what printf's %.17g
  // prints, without the format-string parse and locale lookup.
  char buf[32];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(&out, v);
  return out;
}

void append_json_string(std::string* out, std::string_view s) {
  out->push_back('"');
  // Copy runs of plain bytes in one append; stop only at bytes that need
  // an escape.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out->append(buf, 6);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_string(&out, s);
  return out;
}

// ---------------------------------------------------------------------------
// JSON reader

std::uint64_t JsonValue::as_u64() const {
  return is_u64 ? u64 : static_cast<std::uint64_t>(std::llround(number));
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_string()) ? v->string : fallback;
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (i_ != text_.size()) fail("trailing characters after the value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("json", 0, why + " at offset " + std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < text_.size() &&
           (text_[i_] == ' ' || text_[i_] == '\t' || text_[i_] == '\n' ||
            text_[i_] == '\r')) {
      ++i_;
    }
  }
  char peek() {
    if (i_ >= text_.size()) fail("unexpected end of input");
    return text_[i_];
  }
  void expect(char c) {
    if (i_ >= text_.size() || text_[i_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++i_;
  }
  void enter() {
    if (++depth_ > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return JsonValue{};
      default:
        return number();
    }
  }

  void literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.substr(i_, n) != word) fail(std::string("expected ") + word);
    i_ += n;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
      v.boolean = false;
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = i_;
    bool digits_only = true;
    while (i_ < text_.size()) {
      const char c = text_[i_];
      if (c >= '0' && c <= '9') {
        ++i_;
      } else if (c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
        digits_only = false;
        ++i_;
      } else {
        break;
      }
    }
    if (i_ == start) fail("expected a value");
    const std::string token(text_.substr(start, i_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    if (digits_only) {
      const char* last = token.data() + token.size();
      const auto [ptr, ec] = std::from_chars(token.data(), last, v.u64);
      v.is_u64 = ec == std::errc() && ptr == last;
    }
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= text_.size()) fail("unterminated string");
      const char c = text_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (i_ >= text_.size()) fail("unterminated escape");
      const char e = text_[i_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (i_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[i_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          // The writer only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue array() {
    enter();
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++i_;
      --depth_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  JsonValue object() {
    enter();
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++i_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  std::string_view text_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace sddd::obs
