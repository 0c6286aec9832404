#include "net/as_path_dfa.h"

#include <algorithm>
#include <bitset>
#include <cctype>
#include <map>
#include <regex>
#include <utility>

namespace hoyan {
namespace {

using CharSet = std::bitset<256>;

constexpr size_t kMaxNfaStates = 20000;
constexpr uint32_t kUnbounded = UINT32_MAX;

// Thrown while compiling a pattern the automaton does not model.
struct Unsupported {
  std::string what;
};

// --- parsing ----------------------------------------------------------------
// libstdc++'s ECMAScript grammar (bits/regex_compiler.tcc):
//   disjunction := alternative ('|' alternative)*
//   alternative := term*
//   term        := assertion | atom quantifier*
// An assertion takes no quantifier, and a lone `]` or `}` is a literal. The
// pattern is already valid, so the parser only delimits what std::regex
// accepted; anything else is reported, never guessed.

struct Node {
  enum class Kind : uint8_t { kChars, kConcat, kAlt, kRepeat, kBegin, kEnd };
  explicit Node(Kind k) : kind(k) {}

  Kind kind;  // An empty kConcat matches the empty string.
  uint32_t chars = 0;         // kChars: index into Parser::sets.
  uint32_t min = 0;           // kRepeat bounds; max may be kUnbounded.
  uint32_t max = 0;
  std::vector<size_t> kids;   // kConcat, kAlt; kRepeat has one.
};

class Parser {
 public:
  explicit Parser(std::string_view pattern) : p_(pattern) {}

  size_t parse() {
    const size_t root = disjunction();
    if (pos_ != p_.size()) fail("unexpected ')'");
    return root;
  }

  std::vector<Node> nodes;
  std::vector<CharSet> sets;

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Unsupported{what + " at offset " + std::to_string(pos_)};
  }
  bool at(char c, size_t ahead = 0) const {
    return pos_ + ahead < p_.size() && p_[pos_ + ahead] == c;
  }
  size_t add(Node node) {
    nodes.push_back(std::move(node));
    return nodes.size() - 1;
  }

  size_t disjunction() {
    Node alt{Node::Kind::kAlt};
    alt.kids.push_back(alternative());
    while (at('|')) {
      ++pos_;
      alt.kids.push_back(alternative());
    }
    return alt.kids.size() == 1 ? alt.kids.front() : add(std::move(alt));
  }

  size_t alternative() {
    Node seq{Node::Kind::kConcat};
    while (pos_ < p_.size() && !at('|') && !at(')')) seq.kids.push_back(term());
    return add(std::move(seq));
  }

  size_t term() {
    if (at('^') || at('$')) {
      Node assertion{at('^') ? Node::Kind::kBegin : Node::Kind::kEnd};
      ++pos_;
      return add(std::move(assertion));
    }
    if (at('\\') && (at('b', 1) || at('B', 1))) fail("word-boundary assertion");
    if (at('(') && at('?', 1) && (at('=', 2) || at('!', 2))) fail("lookahead");
    size_t node = atom();
    while (quantifier(node)) {
    }
    return node;
  }

  size_t atom() {
    switch (p_[pos_]) {
      case '(': {
        ++pos_;
        if (at('?') && at(':', 1)) pos_ += 2;  // Non-capturing group.
        const size_t inner = disjunction();
        if (!at(')')) fail("unclosed group");
        ++pos_;
        return inner;
      }
      case '[':
        return probed(bracketEnd());
      case '\\':
        if (pos_ + 1 < p_.size() && p_[pos_ + 1] >= '1' && p_[pos_ + 1] <= '9')
          fail("backreference");
        return probed(escapeEnd());
      case '.':
        return probed(pos_ + 1);
      case '*':
      case '+':
      case '?':
      case '{':
      case '|':
      case ')':
        fail("nothing to repeat");
      default: {
        CharSet set;
        set.set(static_cast<unsigned char>(p_[pos_]));
        return chars(std::string(1, p_[pos_++]), [&] { return set; });
      }
    }
  }

  // Wraps `node` in the quantifier at pos_, if there is one. A lazy
  // quantifier (`*?`, `{2}?`) matches the same strings as the greedy one.
  bool quantifier(size_t& node) {
    if (pos_ >= p_.size()) return false;
    uint32_t min = 0;
    uint32_t max = kUnbounded;
    switch (p_[pos_]) {
      case '*': ++pos_; break;
      case '+': ++pos_; min = 1; break;
      case '?': ++pos_; max = 1; break;
      case '{':
        ++pos_;
        min = max = number();
        if (at(',')) {
          ++pos_;
          max = pos_ < p_.size() && std::isdigit(static_cast<unsigned char>(p_[pos_]))
                    ? number()
                    : kUnbounded;
        }
        if (!at('}')) fail("unclosed repeat");
        ++pos_;
        break;
      default:
        return false;
    }
    if (at('?')) ++pos_;
    Node repeat{Node::Kind::kRepeat};
    repeat.min = min;
    repeat.max = max;
    repeat.kids.push_back(node);
    node = add(std::move(repeat));
    return true;
  }

  uint32_t number() {
    uint64_t value = 0;
    const size_t start = pos_;
    while (pos_ < p_.size() && std::isdigit(static_cast<unsigned char>(p_[pos_]))) {
      value = value * 10 + static_cast<uint64_t>(p_[pos_++] - '0');
      if (value > kMaxNfaStates)
        fail("repeat count over the " + std::to_string(kMaxNfaStates) + "-state NFA cap");
    }
    if (pos_ == start) fail("repeat count");
    return static_cast<uint32_t>(value);
  }

  // The end of the bracket expression opening at pos_: the first `]` that is
  // not escaped, not inside `[:…:]`, `[.….]` or `[=…=]`. In ECMAScript a `]`
  // right after `[` or `[^` closes an empty set.
  size_t bracketEnd() const {
    size_t i = pos_ + 1;
    if (i < p_.size() && p_[i] == '^') ++i;
    while (i < p_.size()) {
      const char c = p_[i++];
      if (c == ']') return i;
      if (c == '\\') {
        // `\cX` names X itself in libstdc++, so it consumes two characters.
        i += i < p_.size() && p_[i] == 'c' ? 2 : 1;
      } else if (c == '[' && i < p_.size() &&
                 (p_[i] == '.' || p_[i] == ':' || p_[i] == '=')) {
        const char kind = p_[i++];
        while (i < p_.size() && p_[i] != kind) ++i;
        i += 2;  // The closing `kind` and `]`.
      }
    }
    fail("unclosed bracket");
  }

  // The end of the escape at pos_ (`\x41`, `A`, `\cX`, `\d`, `\.`, …).
  size_t escapeEnd() const {
    if (pos_ + 1 >= p_.size()) fail("trailing backslash");
    const char e = p_[pos_ + 1];
    const size_t width = e == 'x' ? 4 : e == 'u' ? 6 : e == 'c' ? 3 : 2;
    if (pos_ + width > p_.size()) fail("truncated escape");
    return pos_ + width;
  }

  // A one-character atom spelled p_[pos_, end): its set is every byte that
  // std::regex matches with that atom alone, so escapes, classes and ranges
  // mean exactly what they mean to libstdc++.
  size_t probed(size_t end) {
    const std::string text(p_.substr(pos_, end - pos_));
    pos_ = end;
    return chars(text, [&] {
      CharSet set;
      try {
        const std::regex atom(text);
        std::string one(1, '\0');
        for (size_t b = 0; b < 256; ++b) {
          one[0] = static_cast<char>(b);
          if (std::regex_match(one, atom)) set.set(b);
        }
      } catch (const std::regex_error&) {
        fail("atom '" + text + "'");
      }
      return set;
    });
  }

  template <typename MakeSet>
  size_t chars(const std::string& text, MakeSet makeSet) {
    auto [it, fresh] = setByText_.try_emplace(text, static_cast<uint32_t>(sets.size()));
    if (fresh) sets.push_back(makeSet());
    Node node{Node::Kind::kChars};
    node.chars = it->second;
    return add(std::move(node));
  }

  std::string_view p_;
  size_t pos_ = 0;
  std::map<std::string, uint32_t> setByText_;
};

// --- Thompson NFA -----------------------------------------------------------

struct NfaState {
  enum class Kind : uint8_t { kChars, kSplit, kEps, kBegin, kEnd, kAccept };
  explicit NfaState(Kind k) : kind(k) {}

  Kind kind;
  uint32_t chars = 0;
  int32_t out = -1;
  int32_t out2 = -1;  // kSplit only.
};

class NfaBuilder {
 public:
  explicit NfaBuilder(const std::vector<Node>& nodes) : nodes_(nodes) {}

  // Builds the automaton for `root`; returns its start state.
  int32_t build(size_t root) {
    const Fragment fragment = build(nodes_[root]);
    states[fragment.end].out = add(NfaState(NfaState::Kind::kAccept));
    return fragment.start;
  }

  std::vector<NfaState> states;

 private:
  // States [start … end]; `end`'s `out` is the one dangling edge.
  struct Fragment {
    int32_t start;
    int32_t end;
  };

  int32_t add(NfaState state) {
    if (states.size() >= kMaxNfaStates)
      throw Unsupported{"NFA over the " + std::to_string(kMaxNfaStates) + "-state cap"};
    states.push_back(state);
    return static_cast<int32_t>(states.size() - 1);
  }

  Fragment single(NfaState state) {
    const int32_t s = add(state);
    return {s, s};
  }

  void append(Fragment& to, Fragment next) {
    states[to.end].out = next.start;
    to.end = next.end;
  }

  // `body` once or not at all, or (loop) any number of times.
  Fragment optional(const Node& body, bool loop) {
    const int32_t split = add(NfaState(NfaState::Kind::kSplit));
    const Fragment inner = build(body);
    const int32_t end = add(NfaState(NfaState::Kind::kEps));
    states[split].out = inner.start;
    states[split].out2 = end;
    states[inner.end].out = loop ? split : end;
    return {split, end};
  }

  Fragment build(const Node& node) {
    switch (node.kind) {
      case Node::Kind::kChars: {
        NfaState state{NfaState::Kind::kChars};
        state.chars = node.chars;
        return single(state);
      }
      case Node::Kind::kBegin: return single(NfaState(NfaState::Kind::kBegin));
      case Node::Kind::kEnd: return single(NfaState(NfaState::Kind::kEnd));
      case Node::Kind::kConcat: {
        Fragment whole = single(NfaState(NfaState::Kind::kEps));
        for (const size_t kid : node.kids) append(whole, build(nodes_[kid]));
        return whole;
      }
      case Node::Kind::kAlt: {
        const int32_t end = add(NfaState(NfaState::Kind::kEps));
        int32_t start = -1;
        for (auto kid = node.kids.rbegin(); kid != node.kids.rend(); ++kid) {
          const Fragment branch = build(nodes_[*kid]);
          states[branch.end].out = end;
          if (start < 0) {
            start = branch.start;
          } else {
            NfaState split{NfaState::Kind::kSplit};
            split.out = branch.start;
            split.out2 = start;
            start = add(split);
          }
        }
        return {start, end};
      }
      case Node::Kind::kRepeat: {
        const Node& body = nodes_[node.kids.front()];
        Fragment whole = single(NfaState(NfaState::Kind::kEps));
        for (uint32_t i = 0; i < node.min; ++i) append(whole, build(body));
        if (node.max == kUnbounded)
          append(whole, optional(body, /*loop=*/true));
        else
          for (uint32_t i = node.min; i < node.max; ++i)
            append(whole, optional(body, /*loop=*/false));
        return whole;
      }
    }
    throw Unsupported{"node kind"};
  }

  const std::vector<Node>& nodes_;
};

// --- subset construction ----------------------------------------------------

class SubsetBuilder {
 public:
  explicit SubsetBuilder(const std::vector<NfaState>& states)
      : states_(states), mark_(states.size(), 0) {}

  // The states reachable from `seeds` without reading a character, keeping
  // only those a DFA state needs: character readers, `$` assertions (for the
  // end-of-text check) and the accept state. `^` holds only when `atBegin`,
  // `$` only when `atEnd`.
  std::vector<int32_t> closure(std::vector<int32_t> seeds, bool atBegin, bool atEnd) {
    ++generation_;
    std::vector<int32_t> kept;
    std::vector<int32_t>& stack = seeds;
    while (!stack.empty()) {
      const int32_t s = stack.back();
      stack.pop_back();
      if (s < 0 || mark_[s] == generation_) continue;
      mark_[s] = generation_;
      const NfaState& state = states_[s];
      switch (state.kind) {
        case NfaState::Kind::kChars:
        case NfaState::Kind::kAccept:
          kept.push_back(s);
          break;
        case NfaState::Kind::kSplit:
          stack.push_back(state.out2);
          stack.push_back(state.out);
          break;
        case NfaState::Kind::kEps:
          stack.push_back(state.out);
          break;
        case NfaState::Kind::kBegin:
          if (atBegin) stack.push_back(state.out);
          break;
        case NfaState::Kind::kEnd:
          kept.push_back(s);
          if (atEnd) stack.push_back(state.out);
          break;
      }
    }
    std::sort(kept.begin(), kept.end());
    return kept;
  }

  bool accepts(const std::vector<int32_t>& set) const {
    return std::any_of(set.begin(), set.end(), [&](int32_t s) {
      return states_[s].kind == NfaState::Kind::kAccept;
    });
  }

 private:
  const std::vector<NfaState>& states_;
  std::vector<uint32_t> mark_;
  uint32_t generation_ = 0;
};

}  // namespace

bool AsPathDfa::compile(const std::string& pattern, std::string& error) {
  try {
    Parser parser(pattern);
    const size_t root = parser.parse();
    NfaBuilder nfa(parser.nodes);
    const int32_t start = nfa.build(root);
    SubsetBuilder subsets(nfa.states);

    // Bytes that every character set treats alike share one class.
    std::map<std::string, uint8_t> classBySignature;
    std::vector<uint8_t> representative;
    for (size_t b = 0; b < 256; ++b) {
      std::string signature(parser.sets.size(), '0');
      for (size_t i = 0; i < parser.sets.size(); ++i)
        if (parser.sets[i][b]) signature[i] = '1';
      const auto [it, fresh] =
          classBySignature.try_emplace(signature, static_cast<uint8_t>(representative.size()));
      if (fresh) representative.push_back(static_cast<uint8_t>(b));
      classOf_[b] = it->second;
    }
    classes_ = static_cast<uint32_t>(representative.size());

    matchesEmptyText_ =
        subsets.accepts(subsets.closure({start}, /*atBegin=*/true, /*atEnd=*/true));

    // State 0 is the text's start, where `^` holds. After every character a
    // match may also begin afresh, so each step re-seeds the start state.
    std::map<std::vector<int32_t>, uint16_t> ids;
    std::vector<std::vector<int32_t>> sets;
    const auto intern = [&](std::vector<int32_t> set) -> uint16_t {
      const auto it = ids.find(set);
      if (it != ids.end()) return it->second;
      if (sets.size() >= kMaxStates)
        throw Unsupported{"DFA over the " + std::to_string(kMaxStates) + "-state cap"};
      const auto id = static_cast<uint16_t>(sets.size());
      ids.emplace(set, id);
      sets.push_back(std::move(set));
      return id;
    };
    intern(subsets.closure({start}, /*atBegin=*/true, /*atEnd=*/false));
    for (size_t i = 0; i < sets.size(); ++i) {
      const bool accepting = subsets.accepts(sets[i]);
      accepting_.push_back(accepting);
      acceptsAtEnd_.push_back(accepting ||
                              subsets.accepts(subsets.closure(sets[i], false, true)));
      for (uint32_t cls = 0; cls < classes_; ++cls) {
        // search() returns on reaching an accepting state, so it never
        // leaves one; its row stays on itself.
        if (accepting) {
          next_.push_back(static_cast<uint16_t>(i));
          continue;
        }
        std::vector<int32_t> moved{start};
        for (const int32_t s : sets[i]) {
          const NfaState& state = nfa.states[s];
          if (state.kind == NfaState::Kind::kChars &&
              parser.sets[state.chars][representative[cls]])
            moved.push_back(state.out);
        }
        next_.push_back(intern(subsets.closure(std::move(moved), false, false)));
      }
    }
    return true;
  } catch (const Unsupported& unsupported) {
    error = "unsupported by the as-path matcher: " + unsupported.what;
    return false;
  }
}

}  // namespace hoyan
