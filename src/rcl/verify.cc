#include "rcl/verify.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>

#include "obs/provenance.h"
#include "rcl/parser.h"

namespace hoyan::rcl {
namespace {

constexpr size_t kMaxExampleRows = 3;
constexpr size_t kMaxViolations = 64;

struct EvalContext {
  std::vector<std::string> bindings;
  std::vector<Violation>* violations = nullptr;

  std::string bindingTrail() const {
    std::string out;
    for (const std::string& binding : bindings) {
      if (!out.empty()) out += ", ";
      out += binding;
    }
    return out;
  }

  void report(std::string message, const RibView& m, const RibView& n) {
    if (!violations || violations->size() >= kMaxViolations) return;
    Violation violation;
    violation.context = bindingTrail();
    violation.message = std::move(message);
    for (size_t i = 0; i < m.size() && violation.exampleRows.size() < kMaxExampleRows; ++i)
      violation.exampleRows.push_back("PRE:  " + m.row(i).str());
    for (size_t i = 0; i < n.size() && violation.exampleRows.size() < 2 * kMaxExampleRows;
         ++i)
      violation.exampleRows.push_back("POST: " + n.row(i).str());
    // Structured explain target: prefer the updated (POST) side's first row.
    const RibRow* example = n.size() ? &n.row(0) : (m.size() ? &m.row(0) : nullptr);
    if (example) {
      violation.exampleDevice = example->device;
      violation.examplePrefix = example->prefix;
    }
    violations->push_back(std::move(violation));
  }
};

// Scratch RIBs backing concatenated views. Entries live until the top-level
// checkIntent returns (cleared there); a deque keeps pointers stable.
thread_local std::deque<GlobalRib> g_concatScratch;

RibView concatViews(const RibView& a, const RibView& b) {
  if (a.rib == b.rib) {
    RibView out;
    out.rib = a.rib;
    out.rows = a.rows;
    out.rows.insert(out.rows.end(), b.rows.begin(), b.rows.end());
    return out;
  }
  GlobalRib& scratch = g_concatScratch.emplace_back();
  for (size_t i = 0; i < a.size(); ++i) scratch.add(a.row(i));
  for (size_t i = 0; i < b.size(); ++i) scratch.add(b.row(i));
  return RibView::all(scratch);
}

RibView filterView(const PredicatePtr& predicate, const RibView& view) {
  RibView out;
  out.rib = view.rib;
  for (const uint32_t index : view.rows)
    if (predicate->eval(view.rib->rows()[index])) out.rows.push_back(index);
  return out;
}

RibView applyTransform(const Transform& transform, const RibView& m, const RibView& n) {
  switch (transform.kind) {
    case Transform::Kind::kPre: return m;
    case Transform::Kind::kPost: return n;
    case Transform::Kind::kFilter:
      return filterView(transform.predicate, applyTransform(*transform.inner, m, n));
    case Transform::Kind::kConcat: {
      // Concatenation only composes views over the same underlying table, so
      // rows from PRE and POST are merged into a materialised scratch RIB
      // held by the evaluation context (see concatScratch below).
      return concatViews(applyTransform(*transform.inner, m, n),
                         applyTransform(*transform.right, m, n));
    }
  }
  return m;
}

Value applyAggregate(const Evaluation& eval, const RibView& view) {
  switch (eval.func) {
    case AggFunc::kCount:
      return Value::fromScalar(Scalar::num(static_cast<double>(view.size())));
    case AggFunc::kDistCnt: {
      ScalarSet values;
      for (size_t i = 0; i < view.size(); ++i) values.insert(view.row(i).fieldValue(eval.field));
      return Value::fromScalar(Scalar::num(static_cast<double>(values.size())));
    }
    case AggFunc::kDistVals: {
      ScalarSet values;
      for (size_t i = 0; i < view.size(); ++i) values.insert(view.row(i).fieldValue(eval.field));
      return Value::fromSet(std::move(values));
    }
  }
  return Value::fromScalar(Scalar::num(0));
}

Value evalEvaluation(const Evaluation& eval, const RibView& m, const RibView& n) {
  switch (eval.kind) {
    case Evaluation::Kind::kLiteral:
      return eval.literal;
    case Evaluation::Kind::kAggregate:
      return applyAggregate(eval, applyTransform(*eval.transform, m, n));
    case Evaluation::Kind::kArithmetic: {
      const Value a = evalEvaluation(*eval.left, m, n);
      const Value b = evalEvaluation(*eval.right, m, n);
      if (a.isSet || b.isSet || !a.scalar.isNumber || !b.scalar.isNumber)
        return Value::fromScalar(Scalar::num(0));
      const double x = a.scalar.number;
      const double y = b.scalar.number;
      double r = 0;
      switch (eval.arithOp) {
        case '+': r = x + y; break;
        case '-': r = x - y; break;
        case '*': r = x * y; break;
        case '/': r = y == 0 ? 0 : x / y; break;
      }
      return Value::fromScalar(Scalar::num(r));
    }
  }
  return Value::fromScalar(Scalar::num(0));
}

bool compareValues(CompareOp op, const Value& a, const Value& b) {
  if (a.isSet || b.isSet) {
    if (op == CompareOp::kEq) return a == b;
    if (op == CompareOp::kNe) return !(a == b);
    return false;  // Ordered comparison of sets is undefined -> false.
  }
  return evalCompare(op, a.scalar, b.scalar);
}

bool evalIntent(const Intent& intent, const RibView& m, const RibView& n,
                EvalContext& context) {
  switch (intent.kind) {
    case Intent::Kind::kRibCompare: {
      const RibView a = applyTransform(*intent.transformLeft, m, n);
      const RibView b = applyTransform(*intent.transformRight, m, n);
      const bool equal = ribViewsEqual(a, b);
      const bool result = intent.ribEqual ? equal : !equal;
      if (!result) {
        // Show the differing rows as the counter-example.
        RibView onlyA, onlyB;
        onlyA.rib = a.rib;
        onlyB.rib = b.rib;
        if (intent.ribEqual) {
          // Rows in one side but not the other (by rendered identity).
          std::vector<std::string> keysB;
          for (size_t i = 0; i < b.size(); ++i) keysB.push_back(b.row(i).str());
          std::sort(keysB.begin(), keysB.end());
          for (size_t i = 0; i < a.size(); ++i)
            if (!std::binary_search(keysB.begin(), keysB.end(), a.row(i).str()))
              onlyA.rows.push_back(a.rows[i]);
          std::vector<std::string> keysA;
          for (size_t i = 0; i < a.size(); ++i) keysA.push_back(a.row(i).str());
          std::sort(keysA.begin(), keysA.end());
          for (size_t i = 0; i < b.size(); ++i)
            if (!std::binary_search(keysA.begin(), keysA.end(), b.row(i).str()))
              onlyB.rows.push_back(b.rows[i]);
        }
        context.report(intent.str() + " violated (left has " + std::to_string(a.size()) +
                           " rows, right has " + std::to_string(b.size()) + ")",
                       onlyA, onlyB);
      }
      return result;
    }
    case Intent::Kind::kEvalCompare: {
      const Value a = evalEvaluation(*intent.evalLeft, m, n);
      const Value b = evalEvaluation(*intent.evalRight, m, n);
      const bool result = compareValues(intent.op, a, b);
      if (!result)
        context.report(intent.str() + " violated: " + a.render() + " " +
                           compareOpName(intent.op) + " " + b.render() + " is false",
                       m, n);
      return result;
    }
    case Intent::Kind::kGuarded: {
      const RibView mf = filterView(intent.guard, m);
      const RibView nf = filterView(intent.guard, n);
      return evalIntent(*intent.left, mf, nf, context);
    }
    case Intent::Kind::kForall: {
      // Bucket both views by the grouping field in one pass (equivalent to
      // Algorithm 1's per-value filter, but O(rows) instead of
      // O(rows x values) — essential for `forall prefix` on full RIBs).
      std::map<std::string, std::pair<RibView, RibView>> groups;
      const auto bucket = [&](const RibView& view, bool isPre) {
        for (size_t i = 0; i < view.size(); ++i) {
          const std::string key = view.row(i).fieldValue(intent.forallField).render();
          auto& [mg, ng] = groups[key];
          RibView& target = isPre ? mg : ng;
          if (!target.rib) target.rib = view.rib;
          target.rows.push_back(view.rows[i]);
        }
      };
      bucket(m, true);
      bucket(n, false);
      if (intent.forallValues) {
        // Restrict to (and include empty groups for) the listed values.
        std::map<std::string, std::pair<RibView, RibView>> restricted;
        for (const Scalar& value : *intent.forallValues) {
          const auto it = groups.find(value.render());
          restricted[value.render()] =
              it != groups.end() ? it->second : std::pair<RibView, RibView>{};
        }
        groups = std::move(restricted);
      }
      bool result = true;
      for (auto& [value, views] : groups) {
        auto& [mg, ng] = views;
        if (!mg.rib) mg.rib = m.rib;
        if (!ng.rib) ng.rib = n.rib;
        context.bindings.push_back(fieldName(intent.forallField) + "=" + value);
        if (!evalIntent(*intent.left, mg, ng, context)) result = false;
        context.bindings.pop_back();
      }
      return result;
    }
    case Intent::Kind::kAnd: {
      const bool a = evalIntent(*intent.left, m, n, context);
      const bool b = evalIntent(*intent.right, m, n, context);
      return a && b;
    }
    case Intent::Kind::kOr: {
      // Suppress sub-violations: an or is violated only as a whole.
      EvalContext quiet;
      quiet.bindings = context.bindings;
      const bool result =
          evalIntent(*intent.left, m, n, quiet) || evalIntent(*intent.right, m, n, quiet);
      if (!result) context.report(intent.str() + " violated", m, n);
      return result;
    }
    case Intent::Kind::kImply: {
      EvalContext quiet;
      quiet.bindings = context.bindings;
      if (!evalIntent(*intent.left, m, n, quiet)) return true;  // Vacuous.
      return evalIntent(*intent.right, m, n, context);
    }
    case Intent::Kind::kNot: {
      EvalContext quiet;
      quiet.bindings = context.bindings;
      const bool result = !evalIntent(*intent.left, m, n, quiet);
      if (!result) context.report(intent.str() + " violated", m, n);
      return result;
    }
  }
  return false;
}

// Pulls the value of `field=` out of a ", "-joined binding trail.
std::string bindingValue(const std::string& trail, const std::string& field) {
  size_t pos = 0;
  const std::string needle = field + "=";
  while (pos < trail.size()) {
    size_t end = trail.find(", ", pos);
    if (end == std::string::npos) end = trail.size();
    if (trail.compare(pos, needle.size(), needle) == 0)
      return trail.substr(pos + needle.size(), end - pos - needle.size());
    pos = end == trail.size() ? end : end + 2;
  }
  return {};
}

// Attaches explain chains: the target device/prefix come from the binding
// trail when the intent iterated them (forall device/prefix), else from the
// first example row.
void attachProvenance(std::vector<Violation>& violations,
                      const obs::ProvenanceRecorder& provenance) {
  for (Violation& violation : violations) {
    std::string device = bindingValue(violation.context, "device");
    if (device.empty()) device = violation.exampleDevice;
    if (device.empty()) continue;
    Prefix prefix = violation.examplePrefix;
    const std::string boundPrefix = bindingValue(violation.context, "prefix");
    if (!boundPrefix.empty()) {
      if (const auto parsed = Prefix::parse(boundPrefix)) prefix = *parsed;
    }
    violation.provenanceJson = provenance.explainJson(Names::id(device), prefix);
  }
}

// Finds a `field = <text>` conjunct on an indexed field (device/prefix) by
// walking `and` chains. Only positive conjuncts are sound to prune on: a row
// failing the conjunct fails the whole conjunction, so rows outside the
// field's bucket can never pass the guard.
const Predicate* findIndexableConjunct(const Predicate& predicate) {
  if (predicate.kind == Predicate::Kind::kAnd) {
    if (const Predicate* hit = findIndexableConjunct(*predicate.left)) return hit;
    return findIndexableConjunct(*predicate.right);
  }
  if (predicate.kind != Predicate::Kind::kFieldCompare) return nullptr;
  if (predicate.op != CompareOp::kEq) return nullptr;
  if (predicate.value.isNumber) return nullptr;
  if (predicate.field != Field::kDevice && predicate.field != Field::kPrefix)
    return nullptr;
  return &predicate;
}

// The initial view for one side of the check. For a top-level guarded intent
// over a finalized table, seed from the prefilter bucket of an indexed
// equality conjunct instead of every row — the guard is still applied in
// full, so this only skips rows the guard would drop anyway.
RibView seedView(const Intent& intent, const GlobalRib& rib) {
  if (intent.kind == Intent::Kind::kGuarded && rib.finalized()) {
    if (const Predicate* conjunct = findIndexableConjunct(*intent.guard)) {
      RibView view;
      view.rib = &rib;
      // A prefix literal that is not canonical text selects no row.
      if (conjunct->field == Field::kDevice)
        view.rows = *rib.deviceBucket(conjunct->value.text);
      else if (conjunct->prefixLiteral)
        view.rows = *rib.prefixBucket(*conjunct->prefixLiteral);
      return view;
    }
  }
  return RibView::all(rib);
}

}  // namespace

std::string CheckResult::summary() const {
  if (satisfied) return "SATISFIED";
  std::string out = "VIOLATED (" + std::to_string(violations.size()) + " finding(s))";
  for (const Violation& violation : violations) {
    out += "\n  - ";
    if (!violation.context.empty()) out += "[" + violation.context + "] ";
    out += violation.message;
    for (const std::string& row : violation.exampleRows) out += "\n      " + row;
  }
  return out;
}

CheckResult checkIntent(const Intent& intent, const GlobalRib& base,
                        const GlobalRib& updated,
                        const obs::ProvenanceRecorder* provenance) {
  const auto start = std::chrono::steady_clock::now();
  CheckResult result;
  EvalContext context;
  context.violations = &result.violations;
  const RibView m = seedView(intent, base);
  const RibView n = seedView(intent, updated);
  result.satisfied = evalIntent(intent, m, n, context);
  g_concatScratch.clear();
  if (result.satisfied) result.violations.clear();
  if (provenance && provenance->enabled() && !result.violations.empty())
    attachProvenance(result.violations, *provenance);
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

CheckResult checkIntentText(const std::string& specification, const GlobalRib& base,
                            const GlobalRib& updated,
                            const obs::ProvenanceRecorder* provenance) {
  const ParseOutcome outcome = parseIntent(specification);
  if (!outcome.ok()) {
    CheckResult result;
    result.satisfied = false;
    Violation violation;
    violation.message = "parse error: " + outcome.error;
    result.violations.push_back(std::move(violation));
    return result;
  }
  return checkIntent(*outcome.intent, base, updated, provenance);
}

}  // namespace hoyan::rcl
