#include "sweep/derive_hints.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "rcl/global_rib.h"

namespace hoyan::sweep {
namespace {

using rcl::Field;
using rcl::Intent;
using rcl::Predicate;
using rcl::PredicatePtr;

// --- scope analysis ---------------------------------------------------------

// True when every field the predicate subtree references is `prefix`. Such a
// subtree — whatever its shape: equality, range, in-set, regex, or boolean
// structure over them — evaluates identically on any two rows with the same
// prefix, so it can scope rows by prefix alone.
bool prefixPure(const Predicate& predicate) {
  switch (predicate.kind) {
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
    case Predicate::Kind::kImply:
      return prefixPure(*predicate.left) && prefixPure(*predicate.right);
    case Predicate::Kind::kNot:
      return prefixPure(*predicate.left);
    default:
      return predicate.field == Field::kPrefix;
  }
}

PredicatePtr conjoin(PredicatePtr a, PredicatePtr b) {
  if (!a) return b;
  if (!b) return a;
  auto combined = std::make_shared<Predicate>();
  combined->kind = Predicate::Kind::kAnd;
  combined->left = std::move(a);
  combined->right = std::move(b);
  return combined;
}

// The prefix-pure part of a predicate's positive `and`-chain, conjoined; null
// when no conjunct qualifies. Only top-level conjuncts are sound to lift: a
// row failing a conjunct fails the whole conjunction, so rows outside the
// lifted scope can never influence the filtered view. A prefix term buried
// under a mixed `or`/`not` does not bound the row set and is not lifted.
PredicatePtr scopeOf(const PredicatePtr& predicate) {
  if (!predicate) return nullptr;
  if (prefixPure(*predicate)) return predicate;
  if (predicate->kind == Predicate::Kind::kAnd)
    return conjoin(scopeOf(predicate->left), scopeOf(predicate->right));
  return nullptr;
}

struct Analysis {
  // The union of lifted scopes: the verdict only depends on rows satisfying
  // at least one entry.
  std::vector<PredicatePtr> scopes;
  bool ok = true;
  std::string reason;

  void fail(std::string why) {
    if (!ok) return;
    ok = false;
    reason = std::move(why);
  }
};

void analyzeTransform(const rcl::TransformPtr& transform, bool scoped,
                      Analysis& analysis) {
  if (!transform) return;
  switch (transform->kind) {
    case rcl::Transform::Kind::kPre:
    case rcl::Transform::Kind::kPost:
      if (!scoped)
        analysis.fail(std::string(transform->kind == rcl::Transform::Kind::kPre
                                      ? "PRE"
                                      : "POST") +
                      " accessed without a prefix-pure restriction");
      return;
    case rcl::Transform::Kind::kFilter: {
      const PredicatePtr scope = scopeOf(transform->predicate);
      if (scope) analysis.scopes.push_back(scope);
      analyzeTransform(transform->inner, scoped || scope != nullptr, analysis);
      return;
    }
    case rcl::Transform::Kind::kConcat:
      analyzeTransform(transform->inner, scoped, analysis);
      analyzeTransform(transform->right, scoped, analysis);
      return;
  }
}

void analyzeEvaluation(const rcl::EvaluationPtr& eval, bool scoped,
                       Analysis& analysis) {
  if (!eval) return;
  switch (eval->kind) {
    case rcl::Evaluation::Kind::kLiteral:
      return;
    case rcl::Evaluation::Kind::kAggregate:
      analyzeTransform(eval->transform, scoped, analysis);
      return;
    case rcl::Evaluation::Kind::kArithmetic:
      analyzeEvaluation(eval->left, scoped, analysis);
      analyzeEvaluation(eval->right, scoped, analysis);
      return;
  }
}

void analyzeIntent(const Intent& intent, bool scoped, Analysis& analysis) {
  switch (intent.kind) {
    case Intent::Kind::kRibCompare:
      analyzeTransform(intent.transformLeft, scoped, analysis);
      analyzeTransform(intent.transformRight, scoped, analysis);
      return;
    case Intent::Kind::kEvalCompare:
      analyzeEvaluation(intent.evalLeft, scoped, analysis);
      analyzeEvaluation(intent.evalRight, scoped, analysis);
      return;
    case Intent::Kind::kGuarded: {
      const PredicatePtr scope = scopeOf(intent.guard);
      if (scope) analysis.scopes.push_back(scope);
      analyzeIntent(*intent.left, scoped || scope != nullptr, analysis);
      return;
    }
    case Intent::Kind::kForall: {
      bool childScoped = scoped;
      if (intent.forallValues) {
        // Explicit values fix the group set (missing values iterate as empty
        // groups), so grouping reads nothing beyond the listed rows. On the
        // prefix field the listing *is* a prefix scope.
        if (intent.forallField == Field::kPrefix) {
          auto inSet = std::make_shared<Predicate>();
          inSet->kind = Predicate::Kind::kInSet;
          inSet->field = Field::kPrefix;
          inSet->valueSet = *intent.forallValues;
          analysis.scopes.push_back(std::move(inSet));
          childScoped = true;
        }
      } else if (!scoped) {
        // Without values the group set itself is computed from every
        // incoming row — a group appearing or vanishing changes which
        // iterations run, so no inner restriction can recover soundness.
        analysis.fail("forall " + rcl::fieldName(intent.forallField) +
                      " without explicit values groups the whole RIB");
      }
      analyzeIntent(*intent.left, childScoped, analysis);
      return;
    }
    case Intent::Kind::kAnd:
    case Intent::Kind::kOr:
    case Intent::Kind::kImply:
      analyzeIntent(*intent.left, scoped, analysis);
      analyzeIntent(*intent.right, scoped, analysis);
      return;
    case Intent::Kind::kNot:
      analyzeIntent(*intent.left, scoped, analysis);
      return;
  }
}

// --- prefix universe --------------------------------------------------------

// Every prefix that can appear in a RIB row of the base model or any
// failure-degraded variant. Failures only remove routes, never mint new
// prefixes: BGP/IS-IS propagate what was injected or locally originated, and
// the local originators (direct subnets, interface and loopback host routes,
// statics, aggregates) are fixed by inventory + config.
class PrefixUniverse {
 public:
  void add(const Prefix& prefix) {
    if (seen_.insert(prefix.str()).second) prefixes_.push_back(prefix);
  }
  const std::vector<Prefix>& prefixes() const { return prefixes_; }

 private:
  std::vector<Prefix> prefixes_;
  std::set<std::string> seen_;
};

PrefixUniverse buildUniverse(const NetworkModel& model,
                             std::span<const InputRoute> inputs) {
  PrefixUniverse universe;
  for (const InputRoute& input : inputs) universe.add(input.route.prefix);
  for (const auto& [name, device] : model.topology.devices()) {
    universe.add(Prefix(device.loopback,
                        static_cast<uint8_t>(device.loopback.width())));
    for (const Interface& itf : device.interfaces) {
      universe.add(itf.subnet());
      universe.add(
          Prefix(itf.address, static_cast<uint8_t>(itf.address.width())));
    }
  }
  for (const auto& [name, config] : model.configs.devices()) {
    for (const StaticRouteConfig& route : config.staticRoutes)
      universe.add(route.prefix);
    for (const AggregateConfig& aggregate : config.bgp.aggregates)
      universe.add(aggregate.prefix);
  }
  return universe;
}

bool overlapsAny(const std::vector<Prefix>& relevant, const Prefix& prefix) {
  for (const Prefix& r : relevant)
    if (r.overlaps(prefix)) return true;
  return false;
}

// --- relevant devices -------------------------------------------------------

bool hasIsisInterface(const Device& device) {
  for (const Interface& itf : device.interfaces)
    if (itf.isisEnabled) return true;
  return false;
}

// Can `session`'s export policy pass any route for a relevant prefix? Every
// unresolvable or non-prefix restriction counts as "yes": only a permit-node
// walk that provably cannot match a relevant prefix returns false.
bool exportFeasible(const NetworkModel& model, const BgpSession& session,
                    const std::vector<Prefix>& relevant) {
  if (!session.exportPolicy) return true;
  const DeviceConfig* config = model.configs.findDevice(session.local);
  if (!config) return true;
  const RoutePolicy* policy = config->findRoutePolicy(*session.exportPolicy);
  if (!policy) return true;
  for (const PolicyNode& node : policy->nodes) {
    if (node.action == PolicyAction::kDeny) continue;  // Only removes routes.
    if (!node.match.prefixList) return true;  // Permits without prefix match.
    const PrefixList* list = config->findPrefixList(*node.match.prefixList);
    if (!list) return true;
    for (const PrefixListEntry& entry : list->entries)
      if (entry.permit && overlapsAny(relevant, entry.prefix)) return true;
  }
  return false;
}

std::vector<NameId> deriveRelevantDevices(const NetworkModel& model,
                                          std::span<const InputRoute> inputs,
                                          const std::vector<Prefix>& relevant) {
  // Holders: devices where routes for relevant prefixes enter the network or
  // originate locally...
  std::unordered_set<NameId> holders;
  for (const InputRoute& input : inputs)
    if (overlapsAny(relevant, input.route.prefix)) holders.insert(input.device);
  for (const auto& [name, device] : model.topology.devices()) {
    if (overlapsAny(relevant,
                    Prefix(device.loopback,
                           static_cast<uint8_t>(device.loopback.width())))) {
      holders.insert(name);
      continue;
    }
    for (const Interface& itf : device.interfaces)
      if (overlapsAny(relevant, itf.subnet())) {
        holders.insert(name);
        break;
      }
  }
  for (const auto& [name, config] : model.configs.devices()) {
    for (const StaticRouteConfig& route : config.staticRoutes)
      if (overlapsAny(relevant, route.prefix)) holders.insert(name);
    for (const AggregateConfig& aggregate : config.bgp.aggregates)
      if (overlapsAny(relevant, aggregate.prefix)) holders.insert(name);
  }
  // ...propagated across sessions whose export can carry them.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const BgpSession& session : model.sessions) {
      if (!holders.contains(session.local) || holders.contains(session.peer))
        continue;
      if (exportFeasible(model, session, relevant)) {
        holders.insert(session.peer);
        changed = true;
      }
    }
  }
  // List what prefix overlap alone cannot keep relevant. Devices with an
  // IS-IS interface are never inert to the engine, so listing them would only
  // blunt pruning; the exception is the local end of a holder session with no
  // IGP path to its peer — that session lives on a specific adjacency
  // (proto/bgp.cc), so the carrying device's links must stay relevant.
  std::vector<NameId> out;
  for (const NameId holder : holders) {
    const Device* device = model.topology.findDevice(holder);
    if (!device || !hasIsisInterface(*device)) out.push_back(holder);
  }
  for (const BgpSession& session : model.sessions) {
    if (!holders.contains(session.local)) continue;
    if (model.igp.path(session.local, session.peer).reachable()) continue;
    if (exportFeasible(model, session, relevant)) out.push_back(session.local);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

std::vector<Prefix> closeOverAggregates(const NetworkModel& model,
                                        std::vector<Prefix> relevant) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, config] : model.configs.devices()) {
      for (const AggregateConfig& aggregate : config.bgp.aggregates) {
        if (!overlapsAny(relevant, aggregate.prefix)) continue;
        if (std::find(relevant.begin(), relevant.end(), aggregate.prefix) !=
            relevant.end())
          continue;
        relevant.push_back(aggregate.prefix);
        changed = true;
      }
    }
  }
  return relevant;
}

DeriveResult deriveHints(const rcl::Intent& intent, const NetworkModel& model,
                         std::span<const InputRoute> inputs) {
  DeriveResult result;
  result.hints.cacheId = intent.str();
  result.hints.source = "derived";

  Analysis analysis;
  analyzeIntent(intent, /*scoped=*/false, analysis);
  if (!analysis.ok) {
    result.reason = analysis.reason;
    return result;
  }

  // Evaluate the union of scopes over the prefix universe. The synthetic row
  // carries only the prefix; prefix-pure predicates read nothing else, so
  // this is exactly how the checker would classify a real row.
  const PrefixUniverse universe = buildUniverse(model, inputs);
  std::vector<Prefix>& relevant = result.hints.relevantPrefixes;
  for (const Prefix& prefix : universe.prefixes()) {
    rcl::RibRow row;
    row.prefix = prefix;
    for (const PredicatePtr& scope : analysis.scopes)
      if (scope->eval(row)) {
        relevant.push_back(prefix);
        break;
      }
  }
  if (relevant.empty()) {
    // Nothing the network can ever carry matches the scope: the verdict is
    // failure-independent, but the engine reads empty relevance as "prune
    // nothing", so report the degenerate case as unscoped instead.
    result.reason = "no prefix the network can carry matches the intent scope";
    return result;
  }

  relevant = closeOverAggregates(model, std::move(relevant));
  result.hints.relevantDevices = deriveRelevantDevices(model, inputs, relevant);
  result.scoped = true;
  return result;
}

}  // namespace hoyan::sweep
