// JSON both ways, one mechanism each. The writer side is the one string
// escaper behind every JSON writer in the tree (journal, trace, provenance,
// status server, verification reports, propagation graphs): quotes,
// backslashes and every control character, so the output is always valid
// JSON string contents. Prometheus text has its own grammar (metrics.h).
//
// The reader side is the one JSON reader: a strict RFC 8259 parser behind
// hoyan_inspect's journal reader, hoyan_top's status client and the tests
// that read the writers' output back. Numbers follow the JSON number grammar
// and convert with std::from_chars; `\u` escapes, surrogate pairs included,
// decode to UTF-8; raw control characters in strings are errors; nesting is
// capped, so hostile input cannot exhaust the stack. Errors carry the line
// and column where parsing stopped.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hoyan::obs {

// Appends `text` to `out` as JSON string contents, without the quotes.
inline void appendJsonEscaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        } else {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        }
    }
  }
}

inline std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  appendJsonEscaped(out, text);
  return out;
}

// One parsed JSON value. Only the members of its kind are set.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;                                        // kString
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, document order
  std::vector<JsonValue> items;                            // kArray

  // The first member named `key`; null when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  // The member's number or string; `fallback` when absent or of another kind.
  double num(std::string_view key, double fallback = 0) const;
  std::string str(std::string_view key, std::string_view fallback = {}) const;
};

// Where and why parsing stopped: 1-based line and byte column.
struct JsonError {
  size_t line = 0;
  size_t column = 0;
  std::string what;

  // "line L, column C: what".
  std::string str() const;
};

struct JsonParse {
  JsonValue value;  // Null unless ok().
  JsonError error;  // Empty `what` when ok().

  bool ok() const { return error.what.empty(); }
};

// Arrays and objects nested deeper than this are an error.
inline constexpr size_t kMaxJsonDepth = 256;

// Parses one complete JSON document: whitespace may surround the value,
// anything else after it is an error. `maxDepth` lowers the nesting cap (1
// accepts a flat object or array only).
JsonParse parseJson(std::string_view text, size_t maxDepth = kMaxJsonDepth);

}  // namespace hoyan::obs
