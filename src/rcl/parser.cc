#include "rcl/parser.h"

#include <cctype>
#include <charconv>
#include <stdexcept>
#include <vector>

#include "net/community.h"
#include "net/ip.h"

namespace hoyan::rcl {
namespace {

enum class TokenKind : uint8_t {
  kIdent,    // field names, PRE/POST, keywords, bare values like R1/BEST
  kNumber,   // 42
  kValue,    // canonicalised prefix / IP / community
  kString,   // "regex"
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kColon,
  kCompare,  // = != > >= < <=
  kGuard,    // =>
  kApply,    // |>
  kFilter,   // ||
  kConcat,   // ++
  kArith,    // + - * /
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  double number = 0;
  CompareOp op = CompareOp::kEq;
  char arith = '+';
  size_t position = 0;
};

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// An error that no other reading of the text avoids, such as an invalid
// regex after `matches`: backtracking does not catch it, so it reaches the
// caller with its own message and location.
class FatalParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

bool isValueChar(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) || c == '.' || c == ':' || c == '/';
}

std::vector<Token> lex(std::string_view text) {
  std::vector<Token> tokens;
  size_t i = 0;
  const auto push = [&](Token token) {
    token.position = i;
    tokens.push_back(std::move(token));
  };
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '(') { push({TokenKind::kLParen}); ++i; continue; }
    if (c == ')') { push({TokenKind::kRParen}); ++i; continue; }
    if (c == '{') { push({TokenKind::kLBrace}); ++i; continue; }
    if (c == '}') { push({TokenKind::kRBrace}); ++i; continue; }
    if (c == ',') { push({TokenKind::kComma}); ++i; continue; }
    if (c == ':') { push({TokenKind::kColon}); ++i; continue; }
    if (c == '"') {
      const size_t close = text.find('"', i + 1);
      if (close == std::string_view::npos) throw ParseError("unterminated string");
      Token token{TokenKind::kString};
      token.text = std::string(text.substr(i + 1, close - i - 1));
      push(std::move(token));
      i = close + 1;
      continue;
    }
    if (c == '=' && i + 1 < text.size() && text[i + 1] == '>') {
      push({TokenKind::kGuard});
      i += 2;
      continue;
    }
    if (c == '|' && i + 1 < text.size() && text[i + 1] == '>') {
      push({TokenKind::kApply});
      i += 2;
      continue;
    }
    if (c == '|' && i + 1 < text.size() && text[i + 1] == '|') {
      push({TokenKind::kFilter});
      i += 2;
      continue;
    }
    const auto compare = [&](CompareOp op, size_t width) {
      Token token{TokenKind::kCompare};
      token.op = op;
      push(std::move(token));
      i += width;
    };
    if (c == '=') { compare(CompareOp::kEq, 1); continue; }
    if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') { compare(CompareOp::kNe, 2); continue; }
    if (c == '>' && i + 1 < text.size() && text[i + 1] == '=') { compare(CompareOp::kGe, 2); continue; }
    if (c == '<' && i + 1 < text.size() && text[i + 1] == '=') { compare(CompareOp::kLe, 2); continue; }
    if (c == '>') { compare(CompareOp::kGt, 1); continue; }
    if (c == '<') { compare(CompareOp::kLt, 1); continue; }
    if (c == '+' && i + 1 < text.size() && text[i + 1] == '+') {
      push({TokenKind::kConcat});
      i += 2;
      continue;
    }
    if (c == '+' || c == '-' || c == '*' || c == '/') {
      Token token{TokenKind::kArith};
      token.arith = c;
      push(std::move(token));
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Number / IP / prefix / community: absorb the value character run,
      // but leave a trailing ':' to the colon token (forall ... in {x}: g).
      size_t j = i;
      while (j < text.size() && isValueChar(text[j])) ++j;
      while (j > i && text[j - 1] == ':') --j;
      std::string raw(text.substr(i, j - i));
      i = j;
      Token token;
      if (raw.find('/') != std::string::npos) {
        const auto prefix = Prefix::parse(raw);
        if (!prefix) throw ParseError("bad prefix '" + raw + "'");
        token.kind = TokenKind::kValue;
        token.text = prefix->str();
      } else if (raw.find('.') != std::string::npos ||
                 raw.find("::") != std::string::npos) {
        const auto address = IpAddress::parse(raw);
        if (!address) throw ParseError("bad address '" + raw + "'");
        token.kind = TokenKind::kValue;
        token.text = address->str();
      } else if (raw.find(':') != std::string::npos) {
        const auto community = Community::parse(raw);
        if (community) {
          token.kind = TokenKind::kValue;
          token.text = community->str();
        } else {
          const auto address = IpAddress::parse(raw);
          if (!address) throw ParseError("bad value '" + raw + "'");
          token.kind = TokenKind::kValue;
          token.text = address->str();
        }
      } else {
        double value = 0;
        const auto [ptr, ec] = std::from_chars(raw.data(), raw.data() + raw.size(), value);
        if (ec != std::errc() || ptr != raw.data() + raw.size())
          throw ParseError("bad number '" + raw + "'");
        token.kind = TokenKind::kNumber;
        token.number = value;
      }
      push(std::move(token));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_' ||
              text[j] == '-' || text[j] == '.'))
        ++j;
      Token token{TokenKind::kIdent};
      token.text = std::string(text.substr(i, j - i));
      push(std::move(token));
      i = j;
      continue;
    }
    throw ParseError(std::string("unexpected character '") + c + "'");
  }
  tokens.push_back({TokenKind::kEnd});
  return tokens;
}

// Backtracking recursive-descent parser.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  IntentPtr parse() {
    IntentPtr intent = parseIntentExpr();
    expect(TokenKind::kEnd, "trailing input after intent");
    return intent;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool checkIdent(std::string_view word) const {
    return peek().kind == TokenKind::kIdent && peek().text == word;
  }
  bool matchIdent(std::string_view word) {
    if (!checkIdent(word)) return false;
    ++pos_;
    return true;
  }
  void expect(TokenKind kind, const std::string& message) {
    if (!check(kind)) throw ParseError(message);
    ++pos_;
  }

  // --- intents ---------------------------------------------------------------
  IntentPtr parseIntentExpr() { return parseImplyIntent(); }

  IntentPtr parseImplyIntent() {
    IntentPtr left = parseOrIntent();
    while (matchIdent("imply")) {
      auto node = std::make_shared<Intent>();
      node->kind = Intent::Kind::kImply;
      node->left = left;
      node->right = parseOrIntent();
      left = node;
    }
    return left;
  }

  IntentPtr parseOrIntent() {
    IntentPtr left = parseAndIntent();
    while (matchIdent("or")) {
      auto node = std::make_shared<Intent>();
      node->kind = Intent::Kind::kOr;
      node->left = left;
      node->right = parseAndIntent();
      left = node;
    }
    return left;
  }

  IntentPtr parseAndIntent() {
    IntentPtr left = parseUnaryIntent();
    while (matchIdent("and")) {
      auto node = std::make_shared<Intent>();
      node->kind = Intent::Kind::kAnd;
      node->left = left;
      node->right = parseUnaryIntent();
      left = node;
    }
    return left;
  }

  IntentPtr parseUnaryIntent() {
    // Guarded intent: predicate '=>' intent. Tried before intent-level `not`
    // so `not p => g` reads as `(not p) => g`, matching Fig. 7 where `not`
    // binds inside route predicates.
    if (IntentPtr guarded = tryParseGuardedIntent()) return guarded;
    if (matchIdent("not")) {
      auto node = std::make_shared<Intent>();
      node->kind = Intent::Kind::kNot;
      node->left = parseUnaryIntent();
      return node;
    }
    return parseAtomIntent();
  }

  IntentPtr tryParseGuardedIntent() {
    const size_t save = pos_;
    try {
      PredicatePtr guard = parsePredicate();
      if (check(TokenKind::kGuard)) {
        ++pos_;
        auto node = std::make_shared<Intent>();
        node->kind = Intent::Kind::kGuarded;
        node->guard = guard;
        node->left = parseIntentExpr();  // Guard scopes the rest.
        return node;
      }
    } catch (const ParseError&) {
    }
    pos_ = save;
    return nullptr;
  }

  IntentPtr parseAtomIntent() {
    if (matchIdent("forall")) return parseForall();

    if (check(TokenKind::kLParen)) {
      // Parenthesised intent.
      const size_t save = pos_;
      try {
        ++pos_;
        IntentPtr inner = parseIntentExpr();
        expect(TokenKind::kRParen, "expected ')'");
        return inner;
      } catch (const ParseError&) {
        pos_ = save;
      }
    }

    return parseComparisonIntent();
  }

  IntentPtr parseForall() {
    const Field field = parseField();
    std::optional<ScalarSet> values;
    if (matchIdent("in")) values = parseScalarSet();
    expect(TokenKind::kColon, "expected ':' after forall");
    auto node = std::make_shared<Intent>();
    node->kind = Intent::Kind::kForall;
    node->forallField = field;
    node->forallValues = std::move(values);
    node->left = parseIntentExpr();
    return node;
  }

  // Comparison intent: RIB equality or aggregate-value comparison.
  IntentPtr parseComparisonIntent() {
    // LHS operand.
    auto [lhsTransform, lhsEval] = parseOperand();
    if (!check(TokenKind::kCompare))
      throw ParseError("expected comparison operator in intent");
    const CompareOp op = advance().op;
    auto [rhsTransform, rhsEval] = parseOperand();
    if (lhsTransform && rhsTransform) {
      if (op != CompareOp::kEq && op != CompareOp::kNe)
        throw ParseError("RIBs compare only with = or !=");
      auto node = std::make_shared<Intent>();
      node->kind = Intent::Kind::kRibCompare;
      node->transformLeft = lhsTransform;
      node->transformRight = rhsTransform;
      node->ribEqual = op == CompareOp::kEq;
      return node;
    }
    const auto asEval = [](TransformPtr transform, EvaluationPtr eval) -> EvaluationPtr {
      if (eval) return eval;
      throw ParseError(transform ? "cannot compare a RIB with a value"
                                 : "expected evaluation");
    };
    auto node = std::make_shared<Intent>();
    node->kind = Intent::Kind::kEvalCompare;
    node->evalLeft = asEval(lhsTransform, lhsEval);
    node->evalRight = asEval(rhsTransform, rhsEval);
    node->op = op;
    return node;
  }

  // An operand is either a plain transform (PRE/POST with filters) or an
  // evaluation (literal / aggregate / arithmetic). `(PRE |> count() + 1)`
  // also starts with '(' and PRE, so on a failed transform parse we backtrack
  // into the evaluation grammar rather than reporting the transform error.
  std::pair<TransformPtr, EvaluationPtr> parseOperand() {
    if (checkIdent("PRE") || checkIdent("POST") ||
        (check(TokenKind::kLParen) && startsTransform(pos_ + 1))) {
      const size_t start = pos_;
      try {
        const bool parenthesised = check(TokenKind::kLParen);
        if (parenthesised) ++pos_;
        TransformPtr transform = parseTransform();
        if (parenthesised) {
          expect(TokenKind::kRParen, "expected ')' after transform");
          // Filters/concats may chain onto a parenthesised transform:
          // `(PRE ++ POST) || (p)` is the printer's form of a filtered concat.
          transform = parseTransformChain(std::move(transform));
        }
        if (check(TokenKind::kApply)) {
          ++pos_;
          EvaluationPtr eval = parseAggregate(transform);
          return {nullptr, parseArithmeticTail(eval)};
        }
        return {transform, nullptr};
      } catch (const ParseError&) {
        pos_ = start;
      }
    }
    return {nullptr, parseEvaluation()};
  }

  bool startsTransform(size_t at) const {
    // Look through opening parens: `((PRE ++ POST) || p)` starts a transform.
    while (at < tokens_.size() && tokens_[at].kind == TokenKind::kLParen) ++at;
    return at < tokens_.size() && tokens_[at].kind == TokenKind::kIdent &&
           (tokens_[at].text == "PRE" || tokens_[at].text == "POST");
  }

  // A primary transform: the PRE/POST selector, or a parenthesised transform
  // (the printer's form of a concat operand, e.g. `POST ++ (PRE ++ PRE)`).
  TransformPtr parsePrimaryTransform() {
    if (check(TokenKind::kLParen) && startsTransform(pos_ + 1)) {
      const size_t start = pos_;
      try {
        ++pos_;
        TransformPtr inner = parseTransform();
        expect(TokenKind::kRParen, "expected ')' after transform");
        return inner;
      } catch (const ParseError&) {
        pos_ = start;
      }
    }
    auto node = std::make_shared<Transform>();
    if (matchIdent("PRE")) {
      node->kind = Transform::Kind::kPre;
    } else if (matchIdent("POST")) {
      node->kind = Transform::Kind::kPost;
    } else {
      throw ParseError("expected PRE or POST");
    }
    return node;
  }

  // Filters and concatenations chain left-associatively:
  // `PRE ++ POST || p` reads as `(PRE ++ POST) || p`.
  TransformPtr parseTransform() {
    return parseTransformChain(parsePrimaryTransform());
  }

  TransformPtr parseTransformChain(TransformPtr current) {
    while (check(TokenKind::kFilter) || check(TokenKind::kConcat)) {
      if (check(TokenKind::kFilter)) {
        ++pos_;
        auto filter = std::make_shared<Transform>();
        filter->kind = Transform::Kind::kFilter;
        filter->inner = current;
        filter->predicate = parsePredicateUnary();
        current = filter;
      } else {
        ++pos_;
        auto concat = std::make_shared<Transform>();
        concat->kind = Transform::Kind::kConcat;
        concat->inner = current;
        concat->right = parsePrimaryTransform();
        current = concat;
      }
    }
    return current;
  }

  EvaluationPtr parseAggregate(TransformPtr transform) {
    auto node = std::make_shared<Evaluation>();
    node->kind = Evaluation::Kind::kAggregate;
    node->transform = std::move(transform);
    if (matchIdent("count")) {
      node->func = AggFunc::kCount;
      expect(TokenKind::kLParen, "expected '(' after count");
      expect(TokenKind::kRParen, "expected ')' after count(");
    } else if (matchIdent("distCnt")) {
      node->func = AggFunc::kDistCnt;
      expect(TokenKind::kLParen, "expected '(' after distCnt");
      node->field = parseField();
      expect(TokenKind::kRParen, "expected ')'");
    } else if (matchIdent("distVals")) {
      node->func = AggFunc::kDistVals;
      expect(TokenKind::kLParen, "expected '(' after distVals");
      node->field = parseField();
      expect(TokenKind::kRParen, "expected ')'");
    } else {
      throw ParseError("expected aggregate function after |>");
    }
    return node;
  }

  EvaluationPtr parseEvaluation() { return parseArithmeticTail(parseEvalTerm()); }

  EvaluationPtr parseArithmeticTail(EvaluationPtr left) {
    while (check(TokenKind::kArith)) {
      const char op = advance().arith;
      auto node = std::make_shared<Evaluation>();
      node->kind = Evaluation::Kind::kArithmetic;
      node->arithOp = op;
      node->left = left;
      node->right = parseEvalTerm();
      left = node;
    }
    return left;
  }

  EvaluationPtr parseEvalTerm() {
    if (checkIdent("PRE") || checkIdent("POST") ||
        (check(TokenKind::kLParen) && startsTransform(pos_ + 1))) {
      // `(PRE ++ POST) |> count()` also starts with '('; backtrack into the
      // parenthesised-evaluation branch when the transform read fails.
      const size_t start = pos_;
      try {
        TransformPtr transform = parseTransform();
        expect(TokenKind::kApply, "expected |> after transform in evaluation");
        return parseAggregate(transform);
      } catch (const ParseError&) {
        pos_ = start;
        if (!check(TokenKind::kLParen)) throw;
      }
    }
    // Parenthesised evaluation — the printer's form of arithmetic, e.g.
    // `(PRE |> count() + 1)`. Backtracks so '(' can still open a scalar set
    // error path or fall through to the literal diagnostics below.
    if (check(TokenKind::kLParen)) {
      const size_t start = pos_;
      try {
        ++pos_;
        EvaluationPtr eval = parseEvaluation();
        expect(TokenKind::kRParen, "expected ')' after evaluation");
        return eval;
      } catch (const ParseError&) {
        pos_ = start;
      }
    }
    auto node = std::make_shared<Evaluation>();
    node->kind = Evaluation::Kind::kLiteral;
    if (check(TokenKind::kNumber)) {
      node->literal = Value::fromScalar(Scalar::num(advance().number));
      return node;
    }
    if (check(TokenKind::kValue) || check(TokenKind::kIdent)) {
      node->literal = Value::fromScalar(Scalar::str(advance().text));
      return node;
    }
    if (check(TokenKind::kLBrace)) {
      node->literal = Value::fromSet(parseScalarSet());
      return node;
    }
    throw ParseError("expected value, set, or aggregate");
  }

  ScalarSet parseScalarSet() {
    expect(TokenKind::kLBrace, "expected '{'");
    ScalarSet set;
    if (!check(TokenKind::kRBrace)) {
      while (true) {
        set.insert(parseScalar());
        if (!check(TokenKind::kComma)) break;
        ++pos_;
      }
    }
    expect(TokenKind::kRBrace, "expected '}'");
    return set;
  }

  Scalar parseScalar() {
    if (check(TokenKind::kNumber)) return Scalar::num(advance().number);
    if (check(TokenKind::kValue) || check(TokenKind::kIdent) ||
        check(TokenKind::kString))
      return Scalar::str(advance().text);
    throw ParseError("expected scalar value");
  }

  // --- predicates ---------------------------------------------------------------
  PredicatePtr parsePredicate() { return parsePredicateImply(); }

  PredicatePtr parsePredicateImply() {
    PredicatePtr left = parsePredicateOr();
    while (matchIdent("imply")) {
      auto node = std::make_shared<Predicate>();
      node->kind = Predicate::Kind::kImply;
      node->left = left;
      node->right = parsePredicateOr();
      left = node;
    }
    return left;
  }

  PredicatePtr parsePredicateOr() {
    PredicatePtr left = parsePredicateAnd();
    while (matchIdent("or")) {
      auto node = std::make_shared<Predicate>();
      node->kind = Predicate::Kind::kOr;
      node->left = left;
      node->right = parsePredicateAnd();
      left = node;
    }
    return left;
  }

  PredicatePtr parsePredicateAnd() {
    PredicatePtr left = parsePredicateUnary();
    while (matchIdent("and")) {
      auto node = std::make_shared<Predicate>();
      node->kind = Predicate::Kind::kAnd;
      node->left = left;
      node->right = parsePredicateUnary();
      left = node;
    }
    return left;
  }

  PredicatePtr parsePredicateUnary() {
    if (matchIdent("not")) {
      auto node = std::make_shared<Predicate>();
      node->kind = Predicate::Kind::kNot;
      node->left = parsePredicateUnary();
      return node;
    }
    if (check(TokenKind::kLParen)) {
      ++pos_;
      PredicatePtr inner = parsePredicate();
      expect(TokenKind::kRParen, "expected ')' in predicate");
      return inner;
    }
    return parsePredicateAtom();
  }

  PredicatePtr parsePredicateAtom() {
    const Field field = parseField();
    if (check(TokenKind::kCompare)) {
      const CompareOp op = advance().op;
      return Predicate::compare(field, op, parseScalar());
    }
    auto node = std::make_shared<Predicate>();
    node->field = field;
    if (matchIdent("contains") || matchIdent("has")) {
      node->kind = Predicate::Kind::kContains;
      node->value = parseScalar();
      return node;
    }
    if (matchIdent("in")) {
      node->kind = Predicate::Kind::kInSet;
      node->valueSet = parseScalarSet();
      return node;
    }
    if (matchIdent("matches")) {
      if (!check(TokenKind::kString)) throw ParseError("matches expects a string");
      const Token& regex = advance();
      try {
        return Predicate::matches(field, regex.text);
      } catch (const std::invalid_argument& error) {
        throw FatalParseError("column " + std::to_string(regex.position + 1) +
                              ": bad regex \"" + regex.text + "\": " + error.what());
      }
    }
    throw ParseError("expected predicate operator after field");
  }

  Field parseField() {
    if (!check(TokenKind::kIdent)) throw ParseError("expected field name");
    const auto field = fieldByName(peek().text);
    if (!field) throw ParseError("unknown field '" + peek().text + "'");
    ++pos_;
    return *field;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

ParseOutcome parseIntent(std::string_view text) {
  ParseOutcome outcome;
  try {
    Parser parser(lex(text));
    outcome.intent = parser.parse();
  } catch (const ParseError& error) {
    outcome.error = error.what();
  } catch (const FatalParseError& error) {
    outcome.error = error.what();
  }
  return outcome;
}

}  // namespace hoyan::rcl
