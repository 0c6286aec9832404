// RCL abstract syntax (Fig. 7).
//
// Concrete (ASCII) syntax used by the parser, mapping the paper's symbols:
//   p => g           guarded intent        (⇒)
//   r |> f           aggregate application (▷)
//   r || p           filter transformation (‖)
//   forall f: g      grouping intent
//   forall f in {…}: g
//   and or not imply, = != > >= < <=, + - * /
//   count() distCnt(field) distVals(field)
//   field contains val, field in {…}, field matches "regex"
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/as_path_dfa.h"
#include "rcl/global_rib.h"
#include "rcl/value.h"

namespace hoyan::rcl {

enum class CompareOp : uint8_t { kGt, kGe, kEq, kNe, kLt, kLe };
std::string compareOpName(CompareOp op);
bool evalCompare(CompareOp op, const Scalar& a, const Scalar& b);

// ---------------------------------------------------------------------------
// Route predicates p.
// ---------------------------------------------------------------------------
struct Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

struct Predicate {
  enum class Kind : uint8_t {
    kFieldCompare,  // χ ⊙ val
    kContains,      // χ contains val
    kInSet,         // χ in {val...}
    kMatches,       // χ matches regex
    kAnd,
    kOr,
    kImply,
    kNot,
  };
  Kind kind = Kind::kFieldCompare;
  Field field = Field::kDevice;
  CompareOp op = CompareOp::kEq;
  Scalar value;
  ScalarSet valueSet;
  std::string regex;
  PredicatePtr left;
  PredicatePtr right;

  // `value` as the prefix (field kPrefix) or nexthop address (kNexthop) it
  // names, parsed once when the comparison is built by `compare`. eval's
  // allocation-free equality fast path and the GlobalRib prefix prefilter
  // read them. Nothing writes them afterwards, so one parsed intent can be
  // checked on many threads at once (a sweep checks it on every worker).
  // Empty when `value` is not the canonical text of one: rows render
  // canonically, so such a literal equals no row.
  std::optional<Prefix> prefixLiteral;
  std::optional<IpAddress> addressLiteral;

  // `regex` compiled once, by `matches`, into the automaton as-path lists
  // use, and only read afterwards (a sweep checks one intent on every
  // worker). Null on a predicate not built by `matches`, which then matches
  // no row.
  std::shared_ptr<const AsPathDfa> compiledRegex;

  // Builds `field op value` with its literal parsed; the parser builds every
  // comparison through it.
  static PredicatePtr compare(Field field, CompareOp op, Scalar value);
  // Builds `field matches "regex"` with the regex compiled; the parser builds
  // every match through it. std::regex's constructor decides validity, as
  // for as-path lists. Throws std::invalid_argument, saying why, for a regex
  // std::regex rejects or one the automaton does not model (a backreference,
  // a lookahead, `\b`/`\B`, or too many states).
  static PredicatePtr matches(Field field, std::string regex);

  bool eval(const RibRow& row) const;
  std::string str() const;
  size_t internalNodes() const;
};

// ---------------------------------------------------------------------------
// RIB transformations r.
// ---------------------------------------------------------------------------
struct Transform;
using TransformPtr = std::shared_ptr<const Transform>;

struct Transform {
  // kConcat (`r1 ++ r2`) is the paper's stated future-work extension (§4.4:
  // "the unsupported intents require concatenation of two RIBs; we plan to
  // support it in the future") — implemented here.
  enum class Kind : uint8_t { kPre, kPost, kFilter, kConcat };
  Kind kind = Kind::kPre;
  TransformPtr inner;      // For kFilter; left operand for kConcat.
  PredicatePtr predicate;  // For kFilter.
  TransformPtr right;      // For kConcat.

  std::string str() const;
  size_t internalNodes() const;
};

// ---------------------------------------------------------------------------
// RIB evaluations e.
// ---------------------------------------------------------------------------
struct Evaluation;
using EvaluationPtr = std::shared_ptr<const Evaluation>;

enum class AggFunc : uint8_t { kCount, kDistCnt, kDistVals };

struct Evaluation {
  enum class Kind : uint8_t {
    kLiteral,     // val or {val...}
    kAggregate,   // r |> f
    kArithmetic,  // e1 (+|-|*|/) e2
  };
  Kind kind = Kind::kLiteral;
  Value literal;
  TransformPtr transform;
  AggFunc func = AggFunc::kCount;
  Field field = Field::kDevice;  // For distCnt/distVals.
  char arithOp = '+';
  EvaluationPtr left;
  EvaluationPtr right;

  std::string str() const;
  size_t internalNodes() const;
};

// ---------------------------------------------------------------------------
// Intents g.
// ---------------------------------------------------------------------------
struct Intent;
using IntentPtr = std::shared_ptr<const Intent>;

struct Intent {
  enum class Kind : uint8_t {
    kRibCompare,   // r1 (=|!=) r2
    kEvalCompare,  // e1 ⊙ e2
    kGuarded,      // p => g
    kForall,       // forall χ [in {val...}]: g
    kAnd,
    kOr,
    kImply,
    kNot,
  };
  Kind kind = Kind::kEvalCompare;
  TransformPtr transformLeft;
  TransformPtr transformRight;
  bool ribEqual = true;  // kRibCompare: = vs !=.
  EvaluationPtr evalLeft;
  EvaluationPtr evalRight;
  CompareOp op = CompareOp::kEq;
  PredicatePtr guard;
  Field forallField = Field::kDevice;
  std::optional<ScalarSet> forallValues;
  IntentPtr left;
  IntentPtr right;

  std::string str() const;
  // Intent size metric used by Fig. 8: internal (non-leaf) AST nodes.
  size_t internalNodes() const;
};

}  // namespace hoyan::rcl
