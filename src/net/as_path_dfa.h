// A deterministic finite automaton for one AS-path regular expression.
//
// Route policies match as-path lists on every policy evaluation that misses
// the memo, and an RCL `matches` predicate (rcl/ast.h) runs on every row it
// filters, so the matcher is built once per pattern and then shared
// read-only by every worker. `compile` parses the ECMAScript pattern with
// libstdc++'s grammar (the caller has already let std::regex's constructor
// decide validity), builds a Thompson NFA and turns it into a DFA by eager
// subset construction. `search` then walks the text once, exits on the first
// accepting state and allocates nothing.
//
// Semantics are std::regex_search's: a match may start anywhere, `^` and `$`
// hold only at the start and the end of the text. Character sets (`.`,
// escapes, bracket expressions) are taken from std::regex itself, by probing
// every byte once at compile time, so they agree with libstdc++ exactly.
// Backreferences, lookaheads and `\b`/`\B` are not regular, and a DFA over
// kMaxStates states is not built: `compile` reports all of them as errors.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hoyan {

class AsPathDfa {
 public:
  static constexpr size_t kMaxStates = 4096;

  // Builds the automaton for an ECMAScript `pattern` that std::regex
  // accepts. Returns false and sets `error` for an unsupported construct or
  // an automaton over the state cap; `*this` is then unusable.
  bool compile(const std::string& pattern, std::string& error);

  // std::regex_search(text, regex(pattern)).
  bool search(std::string_view text) const {
    if (text.empty()) return matchesEmptyText_;
    uint32_t state = 0;
    if (accepting_[state]) return true;
    for (const char c : text) {
      state = next_[state * classes_ + classOf_[static_cast<unsigned char>(c)]];
      if (accepting_[state]) return true;
    }
    return acceptsAtEnd_[state];
  }

 private:
  std::array<uint8_t, 256> classOf_{};  // Byte → equivalence class.
  uint32_t classes_ = 1;
  std::vector<uint16_t> next_;          // state * classes_ + class → state.
  std::vector<uint8_t> accepting_;      // A match ends here.
  std::vector<uint8_t> acceptsAtEnd_;   // A match ends here if the text does.
  bool matchesEmptyText_ = false;
};

}  // namespace hoyan
