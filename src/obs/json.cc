#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <system_error>

namespace hoyan::obs {
namespace {

void appendUtf8(std::string& out, uint32_t code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
    return;
  }
  // A lead byte of 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx per tail.
  const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
  out += static_cast<char>(((0xff00 >> (tail + 1)) & 0xff) | (code >> (6 * tail)));
  for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6)
    out += static_cast<char>(0x80 | ((code >> shift) & 0x3f));
}

// Recursive descent over RFC 8259. Every reader returns false after the
// first failure, which records where and why; nothing reads on after it.
class Reader {
 public:
  Reader(std::string_view text, size_t maxDepth) : text_(text), maxDepth_(maxDepth) {}

  JsonParse parse() {
    JsonParse result;
    skipSpace();
    if (value(result.value, 0)) {
      skipSpace();
      if (pos_ < text_.size()) fail("trailing characters after the document");
    }
    if (!what_.empty()) {
      result.value = JsonValue{};
      result.error = locate();
    }
    return result;
  }

 private:
  bool fail(std::string what) { return failAt(pos_, std::move(what)); }
  bool failAt(size_t at, std::string what) {
    errorAt_ = at;
    what_ = std::move(what);
    return false;
  }

  JsonError locate() const {
    const std::string_view before = text_.substr(0, errorAt_);
    const size_t lineStart = before.rfind('\n') + 1;  // npos + 1 == 0.
    return {static_cast<size_t>(std::count(before.begin(), before.end(), '\n')) + 1,
            errorAt_ - lineStart + 1, what_};
  }

  bool digitAt(size_t at) const {
    return at < text_.size() && text_[at] >= '0' && text_[at] <= '9';
  }
  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool value(JsonValue& out, size_t depth) {
    if (pos_ >= text_.size()) return fail("expected a value, found the end of input");
    switch (text_[pos_]) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return string(out.text);
      case 't': return literal("true", JsonValue::Kind::kBool, true, out);
      case 'f': return literal("false", JsonValue::Kind::kBool, false, out);
      case 'n': return literal("null", JsonValue::Kind::kNull, false, out);
      default:
        if (text_[pos_] == '-' || digitAt(pos_)) return number(out);
        return fail("expected a value");
    }
  }

  bool nest(size_t depth) {
    if (depth <= maxDepth_) return true;
    return fail("nesting deeper than " + std::to_string(maxDepth_));
  }

  bool object(JsonValue& out, size_t depth) {
    if (!nest(depth)) return false;
    out.kind = JsonValue::Kind::kObject;
    ++pos_;
    skipSpace();
    if (consume('}')) return true;
    while (true) {
      if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected a string key");
      std::string key;
      if (!string(key)) return false;
      skipSpace();
      if (!consume(':')) return fail("expected ':'");
      skipSpace();
      JsonValue member;
      if (!value(member, depth)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
      skipSpace();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
      skipSpace();
    }
  }

  bool array(JsonValue& out, size_t depth) {
    if (!nest(depth)) return false;
    out.kind = JsonValue::Kind::kArray;
    ++pos_;
    skipSpace();
    if (consume(']')) return true;
    while (true) {
      JsonValue item;
      if (!value(item, depth)) return false;
      out.items.push_back(std::move(item));
      skipSpace();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
      skipSpace();
    }
  }

  bool literal(std::string_view word, JsonValue::Kind kind, bool boolean,
               JsonValue& out) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    out.kind = kind;
    out.boolean = boolean;
    return true;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, then std::from_chars
  // over exactly the matched span.
  bool number(JsonValue& out) {
    const size_t start = pos_;
    const auto digits = [this] {
      while (digitAt(pos_)) ++pos_;
    };
    consume('-');
    if (!digitAt(pos_)) return fail("expected a digit");
    if (consume('0')) {
      if (digitAt(pos_)) return fail("leading zero in a number");
    } else {
      digits();
    }
    if (consume('.')) {
      if (!digitAt(pos_)) return fail("expected a digit after '.'");
      digits();
    }
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digitAt(pos_)) return fail("expected a digit in the exponent");
      digits();
    }
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(text_.data() + start, last, out.number);
    if (ec != std::errc() || end != last)
      return failAt(start, ec == std::errc::result_out_of_range ? "number out of range"
                                                                : "malformed number");
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool string(std::string& out) {
    ++pos_;
    while (true) {
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20)
        ++pos_;
      out.append(text_.substr(run, pos_ - run));
      if (pos_ >= text_.size()) return fail("unterminated string");
      if (consume('"')) return true;
      if (text_[pos_] != '\\') return fail("raw control character in a string");
      ++pos_;
      if (pos_ >= text_.size()) return fail("unterminated string");
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (!unicodeEscape(out)) return false;
          break;
        default: return failAt(pos_ - 2, "invalid escape");
      }
    }
  }

  bool hex4(uint32_t& code) {
    const char* first = text_.data() + pos_;
    if (text_.size() - pos_ < 4 || std::from_chars(first, first + 4, code, 16).ptr != first + 4)
      return fail("expected 4 hex digits after \\u");
    pos_ += 4;
    return true;
  }

  // After `\u`: one BMP code point, or a high + low surrogate pair.
  bool unicodeEscape(std::string& out) {
    const size_t start = pos_ - 2;
    uint32_t code = 0;
    if (!hex4(code)) return false;
    if (code >= 0xdc00 && code <= 0xdfff) return failAt(start, "lone low surrogate");
    if (code >= 0xd800 && code <= 0xdbff) {
      uint32_t low = 0;
      if (text_.substr(pos_, 2) != "\\u") return failAt(start, "unpaired high surrogate");
      pos_ += 2;
      if (!hex4(low)) return false;
      if (low < 0xdc00 || low > 0xdfff) return failAt(start, "unpaired high surrogate");
      code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    }
    appendUtf8(out, code);
    return true;
  }

  const std::string_view text_;
  const size_t maxDepth_;
  size_t pos_ = 0;
  size_t errorAt_ = 0;
  std::string what_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members)
    if (name == key) return &value;
  return nullptr;
}

double JsonValue::num(std::string_view key, double fallback) const {
  const JsonValue* value = find(key);
  return value && value->kind == Kind::kNumber ? value->number : fallback;
}

std::string JsonValue::str(std::string_view key, std::string_view fallback) const {
  const JsonValue* value = find(key);
  return std::string(value && value->kind == Kind::kString ? value->text : fallback);
}

std::string JsonError::str() const {
  return "line " + std::to_string(line) + ", column " + std::to_string(column) + ": " +
         what;
}

JsonParse parseJson(std::string_view text, size_t maxDepth) {
  return Reader(text, maxDepth).parse();
}

}  // namespace hoyan::obs
