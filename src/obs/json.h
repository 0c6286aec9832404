// The one JSON string escaper behind every JSON writer in the tree (journal,
// trace, provenance, status server, verification reports, propagation
// graphs): quotes, backslashes and every control character, so the output is
// always valid JSON string contents. Prometheus text has its own grammar
// (metrics.h).
#pragma once

#include <string>
#include <string_view>

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

}  // namespace hoyan::obs
