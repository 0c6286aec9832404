#include "rcl/ast.h"

#include <regex>
#include <stdexcept>

namespace hoyan::rcl {

std::string compareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
  }
  return "?";
}

bool evalCompare(CompareOp op, const Scalar& a, const Scalar& b) {
  switch (op) {
    case CompareOp::kEq: return a == b;
    case CompareOp::kNe: return !(a == b);
    case CompareOp::kGt: return b < a;
    case CompareOp::kGe: return !(a < b);
    case CompareOp::kLt: return a < b;
    case CompareOp::kLe: return !(b < a);
  }
  return false;
}

namespace {

// `text` parsed as T when it is T's canonical rendering, else nothing.
template <typename T>
std::optional<T> canonicalLiteral(const std::string& text) {
  std::optional<T> parsed = T::parse(text);
  if (parsed && parsed->str() != text) parsed.reset();
  return parsed;
}

}  // namespace

PredicatePtr Predicate::compare(Field field, CompareOp op, Scalar value) {
  auto node = std::make_shared<Predicate>();
  node->kind = Kind::kFieldCompare;
  node->field = field;
  node->op = op;
  if (!value.isNumber && field == Field::kPrefix)
    node->prefixLiteral = canonicalLiteral<Prefix>(value.text);
  if (!value.isNumber && field == Field::kNexthop)
    node->addressLiteral = canonicalLiteral<IpAddress>(value.text);
  node->value = std::move(value);
  return node;
}

PredicatePtr Predicate::matches(Field field, std::string regex) {
  try {
    const std::regex check(regex);
  } catch (const std::regex_error& error) {
    throw std::invalid_argument(error.what());
  }
  auto dfa = std::make_shared<AsPathDfa>();
  std::string error;
  if (!dfa->compile(regex, error)) throw std::invalid_argument(error);
  auto node = std::make_shared<Predicate>();
  node->kind = Kind::kMatches;
  node->field = field;
  node->compiledRegex = std::move(dfa);
  node->regex = std::move(regex);
  return node;
}

bool Predicate::eval(const RibRow& row) const {
  switch (kind) {
    case Kind::kFieldCompare: {
      // Equality guards run per row while filtering whole tables; compare in
      // place instead of materialising a Scalar (and, for prefix/nexthop, a
      // rendered string) for every row. Prefix/address text that is not the
      // canonical form has no literal and never equals a row's canonical
      // render, matching the string-compare semantics of the slow path.
      if ((op == CompareOp::kEq || op == CompareOp::kNe) && !value.isNumber) {
        const bool want = op == CompareOp::kEq;
        switch (field) {
          case Field::kDevice: return (row.device == value.text) == want;
          case Field::kVrf: return (row.vrf == value.text) == want;
          case Field::kAsPath: return (row.asPath.str() == value.text) == want;
          case Field::kPrefix:
            return (prefixLiteral && row.prefix == *prefixLiteral) == want;
          case Field::kNexthop:
            return (addressLiteral && row.nexthop == *addressLiteral) == want;
          default: break;
        }
      }
      return evalCompare(op, row.fieldValue(field), value);
    }
    case Kind::kContains:
      return row.setFieldContains(field, value);
    case Kind::kInSet:
      return valueSet.contains(row.fieldValue(field));
    case Kind::kMatches:
      // The row's own text where it holds one; the other fields render.
      if (!compiledRegex) return false;
      switch (field) {
        case Field::kDevice: return compiledRegex->search(row.device);
        case Field::kVrf: return compiledRegex->search(row.vrf);
        case Field::kAsPath: return compiledRegex->search(row.asPath.str());
        default: return compiledRegex->search(row.fieldValue(field).render());
      }
    case Kind::kAnd: return left->eval(row) && right->eval(row);
    case Kind::kOr: return left->eval(row) || right->eval(row);
    case Kind::kImply: return !left->eval(row) || right->eval(row);
    case Kind::kNot: return !left->eval(row);
  }
  return false;
}

std::string Predicate::str() const {
  switch (kind) {
    case Kind::kFieldCompare:
      return fieldName(field) + " " + compareOpName(op) + " " + value.render();
    case Kind::kContains:
      return fieldName(field) + " contains " + value.render();
    case Kind::kInSet:
      return fieldName(field) + " in " + valueSet.render();
    case Kind::kMatches:
      return fieldName(field) + " matches \"" + regex + "\"";
    case Kind::kAnd: return "(" + left->str() + " and " + right->str() + ")";
    case Kind::kOr: return "(" + left->str() + " or " + right->str() + ")";
    case Kind::kImply: return "(" + left->str() + " imply " + right->str() + ")";
    case Kind::kNot: return "not (" + left->str() + ")";
  }
  return "?";
}

size_t Predicate::internalNodes() const {
  switch (kind) {
    case Kind::kFieldCompare:
    case Kind::kContains:
    case Kind::kInSet:
    case Kind::kMatches:
      return 1;  // The predicate operator node itself (leaves are operands).
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImply:
      return 1 + left->internalNodes() + right->internalNodes();
    case Kind::kNot:
      return 1 + left->internalNodes();
  }
  return 1;
}

std::string Transform::str() const {
  switch (kind) {
    case Kind::kPre: return "PRE";
    case Kind::kPost: return "POST";
    case Kind::kFilter:
      return inner->str() + " || (" + predicate->str() + ")";
    case Kind::kConcat: {
      // Filters chain left-associatively, so a filter as the right operand
      // needs its own parentheses to reparse with the same shape.
      const std::string rhs =
          right->kind == Kind::kFilter ? "(" + right->str() + ")" : right->str();
      return "(" + inner->str() + " ++ " + rhs + ")";
    }
  }
  return "?";
}

size_t Transform::internalNodes() const {
  switch (kind) {
    case Kind::kPre:
    case Kind::kPost:
      return 0;  // Leaf selectors.
    case Kind::kFilter:
      return 1 + inner->internalNodes() + predicate->internalNodes();
    case Kind::kConcat:
      return 1 + inner->internalNodes() + right->internalNodes();
  }
  return 0;
}

std::string Evaluation::str() const {
  switch (kind) {
    case Kind::kLiteral: return literal.render();
    case Kind::kAggregate: {
      std::string funcText;
      switch (func) {
        case AggFunc::kCount: funcText = "count()"; break;
        case AggFunc::kDistCnt: funcText = "distCnt(" + fieldName(field) + ")"; break;
        case AggFunc::kDistVals: funcText = "distVals(" + fieldName(field) + ")"; break;
      }
      return transform->str() + " |> " + funcText;
    }
    case Kind::kArithmetic:
      return "(" + left->str() + " " + arithOp + " " + right->str() + ")";
  }
  return "?";
}

size_t Evaluation::internalNodes() const {
  switch (kind) {
    case Kind::kLiteral: return 0;
    case Kind::kAggregate: return 1 + transform->internalNodes();
    case Kind::kArithmetic: return 1 + left->internalNodes() + right->internalNodes();
  }
  return 0;
}

namespace {

// forall and guarded intents scope everything to their right, so as the left
// operand of a binary connective they need their own parentheses for the
// printed form to reparse with the same shape.
std::string leftOperandStr(const Intent& intent) {
  const bool openEnded =
      intent.kind == Intent::Kind::kForall || intent.kind == Intent::Kind::kGuarded;
  return openEnded ? "(" + intent.str() + ")" : intent.str();
}

}  // namespace

std::string Intent::str() const {
  switch (kind) {
    case Kind::kRibCompare:
      return transformLeft->str() + (ribEqual ? " = " : " != ") + transformRight->str();
    case Kind::kEvalCompare:
      return evalLeft->str() + " " + compareOpName(op) + " " + evalRight->str();
    case Kind::kGuarded:
      return guard->str() + " => " + left->str();
    case Kind::kForall: {
      std::string out = "forall " + fieldName(forallField);
      if (forallValues) out += " in " + forallValues->render();
      return out + ": " + left->str();
    }
    case Kind::kAnd:
      return "(" + leftOperandStr(*left) + " and " + right->str() + ")";
    case Kind::kOr:
      return "(" + leftOperandStr(*left) + " or " + right->str() + ")";
    case Kind::kImply:
      return "(" + leftOperandStr(*left) + " imply " + right->str() + ")";
    case Kind::kNot: return "not (" + left->str() + ")";
  }
  return "?";
}

size_t Intent::internalNodes() const {
  switch (kind) {
    case Kind::kRibCompare:
      return 1 + transformLeft->internalNodes() + transformRight->internalNodes();
    case Kind::kEvalCompare:
      return 1 + evalLeft->internalNodes() + evalRight->internalNodes();
    case Kind::kGuarded:
      return 1 + guard->internalNodes() + left->internalNodes();
    case Kind::kForall:
      return 1 + left->internalNodes();
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImply:
      return 1 + left->internalNodes() + right->internalNodes();
    case Kind::kNot:
      return 1 + left->internalNodes();
  }
  return 1;
}

}  // namespace hoyan::rcl
