#include "proto/policy_eval.h"

#include <algorithm>
#include <memory>

#include "proto/policy_kernel.h"

namespace hoyan {
namespace {

Protocolish toProtocolish(Protocol p) {
  switch (p) {
    case Protocol::kDirect: return Protocolish::kDirect;
    case Protocol::kStatic: return Protocolish::kStatic;
    case Protocol::kIsis: return Protocolish::kIsis;
    case Protocol::kBgp: return Protocolish::kBgp;
    case Protocol::kAggregate: return Protocolish::kAggregate;
  }
  return Protocolish::kBgp;
}

// The match helpers take `reason` as a nullable out-parameter: the decision
// trace is formatted only when a caller (provenance, RCL counter-examples)
// will actually read it — non-explaining runs allocate nothing here.

bool prefixListMatches(const PolicyContext& context, NameId listName, const Route& route,
                       std::string* reason) {
  const PrefixList* list = context.device->findPrefixList(listName);
  if (!list || list->entries.empty()) {
    // Table 5 "undefined policy filter".
    if (reason)
      *reason = "prefix-list " + Names::str(listName) + " undefined -> " +
                (context.vendor->undefinedFilterMatchesAll ? "match-all" : "match-none");
    return context.vendor->undefinedFilterMatchesAll;
  }
  // §6.1(b) VSB: an `ip-prefix` (IPv4) list matched against an IPv6 route.
  if (list->family == IpFamily::kV4 && route.prefix.family() == IpFamily::kV6) {
    if (context.vendor->ipv4PrefixListPermitsAllV6) {
      if (reason) *reason = "ip-prefix vs IPv6 route -> vendor permits all IPv6";
      return true;
    }
    if (reason) *reason = "ip-prefix vs IPv6 route -> no match";
    return false;
  }
  const bool matched = list->permits(route.prefix);
  if (reason)
    *reason = "prefix-list " + Names::str(listName) + (matched ? " matched" : " not matched");
  return matched;
}

bool communityListMatches(const PolicyContext& context, NameId listName, const Route& route,
                          std::string* reason) {
  const CommunityList* list = context.device->findCommunityList(listName);
  if (!list || list->entries.empty()) {
    if (reason) *reason = "community-list " + Names::str(listName) + " undefined";
    return context.vendor->undefinedFilterMatchesAll;
  }
  const bool matched = list->permits(route.attrs.communities);
  if (reason)
    *reason = "community-list " + Names::str(listName) + (matched ? " matched" : " not matched");
  return matched;
}

bool asPathListMatches(const PolicyContext& context, NameId listName, const Route& route,
                       std::string* reason) {
  const AsPathList* list = context.device->findAsPathList(listName);
  if (!list || list->entries.empty()) {
    if (reason) *reason = "as-path-list " + Names::str(listName) + " undefined";
    return context.vendor->undefinedFilterMatchesAll;
  }
  // The path's text is rendered once, when the path is built.
  const std::string& pathStr = route.attrs.asPath.str();
  for (const AsPathListEntry& entry : list->entries) {
    // Engine-attached evaluations go through the kernel's L1 pattern cache;
    // standalone ones hit the process-global cache directly. Either way each
    // pattern compiles once per process.
    std::shared_ptr<const AsPathRegexCache::Compiled> held;
    const AsPathRegexCache::Compiled* compiled;
    if (context.kernel) {
      compiled = context.kernel->compiled(entry.regex);
    } else {
      held = AsPathRegexCache::global().get(entry.regex);
      compiled = held.get();
    }
    if (!compiled->valid) {
      // An invalid pattern matches nothing — but no longer silently: the
      // cache warned at compile time and the kernel counts every evaluation
      // that consulted it (`sim.policy.bad_regex`).
      if (context.kernel) context.kernel->countBadRegexEval();
      continue;
    }
    if (compiled->dfa.search(pathStr)) {
      if (reason)
        *reason = "as-path-list " + Names::str(listName) + " entry \"" + entry.regex + "\"";
      return entry.permit;
    }
  }
  if (reason) *reason = "as-path-list " + Names::str(listName) + " no entry matched";
  return false;
}

bool nodeMatches(const PolicyContext& context, const PolicyMatch& match,
                 const Route& route) {
  if (match.prefixList && !prefixListMatches(context, *match.prefixList, route, nullptr))
    return false;
  if (match.communityList &&
      !communityListMatches(context, *match.communityList, route, nullptr))
    return false;
  if (match.asPathList && !asPathListMatches(context, *match.asPathList, route, nullptr))
    return false;
  if (match.nexthop && !(route.nexthop == *match.nexthop)) return false;
  if (match.protocol && *match.protocol != toProtocolish(route.protocol)) return false;
  return true;
}

}  // namespace

bool asPathMatches(const AsPath& path, const std::string& pattern) {
  return AsPathRegexCache::global().get(pattern)->matches(path.str());
}

void applySets(const PolicyContext& context, const PolicySets& sets, Route& route) {
  if (sets.clearCommunities) route.attrs.communities.clear();
  for (const Community c : sets.deleteCommunities) route.attrs.communities.erase(c);
  for (const Community c : sets.addCommunities) route.attrs.communities.insert(c);
  if (sets.localPref) route.attrs.localPref = *sets.localPref;
  if (sets.med) route.attrs.med = *sets.med;
  if (sets.weight) route.attrs.weight = *sets.weight;
  if (sets.nexthop) route.nexthop = *sets.nexthop;
  if (sets.overwriteAsPath) {
    route.attrs.asPath = AsPath(*sets.overwriteAsPath);
    // Table 5 "adding own ASN": some vendors re-insert the device's ASN in
    // front of an overwritten path.
    if (context.vendor->addOwnAsnAfterOverwrite && context.localAsn != 0)
      route.attrs.asPath.prepend(context.localAsn);
  }
  if (sets.prepend) {
    for (uint32_t i = 0; i < sets.prepend->second; ++i)
      route.attrs.asPath.prepend(sets.prepend->first);
  }
}

PolicyResult evaluatePolicy(const PolicyContext& context, std::optional<NameId> policyName,
                            const Route& route, bool explain) {
  PolicyResult result;
  result.route = route;
  if (!policyName) {
    // Table 5 "missing route policy".
    result.permitted = context.vendor->acceptWhenNoPolicy;
    if (explain) result.reason = result.permitted ? "no policy -> accept" : "no policy -> reject";
    return result;
  }
  const RoutePolicy* policy = context.device->findRoutePolicy(*policyName);
  if (!policy || policy->nodes.empty()) {
    // Table 5 "undefined route policy".
    result.permitted = context.vendor->acceptWhenPolicyUndefined;
    if (explain)
      result.reason = "policy " + Names::str(*policyName) + " undefined -> " +
                      (result.permitted ? "accept" : "reject");
    return result;
  }
  for (const PolicyNode& node : policy->nodes) {
    if (!nodeMatches(context, node.match, route)) continue;
    result.matchedNode = node.sequence;
    bool permit = false;
    switch (node.action) {
      case PolicyAction::kPermit:
        permit = true;
        break;
      case PolicyAction::kDeny:
        permit = false;
        break;
      case PolicyAction::kUnspecified:
        // Table 5 "no explicit permit/deny".
        permit = context.vendor->nodeWithoutActionPermits;
        break;
    }
    result.permitted = permit;
    if (explain)
      result.reason = "policy " + Names::str(*policyName) + " node " +
                      std::to_string(node.sequence) + (permit ? " permit" : " deny");
    if (permit) applySets(context, node.sets, result.route);
    return result;
  }
  // Table 5 "default route policy": no node matched.
  result.permitted = context.vendor->acceptWhenNoNodeMatches;
  if (explain)
    result.reason = "policy " + Names::str(*policyName) + " fell through -> " +
                    (result.permitted ? "accept" : "reject");
  return result;
}

bool evaluatePolicyInPlace(const PolicyContext& context,
                           std::optional<NameId> policyName, Route& route) {
  if (!policyName) return context.vendor->acceptWhenNoPolicy;
  const RoutePolicy* policy = context.device->findRoutePolicy(*policyName);
  if (!policy || policy->nodes.empty()) return context.vendor->acceptWhenPolicyUndefined;
  for (const PolicyNode& node : policy->nodes) {
    // Matching reads the route; sets are applied only after the walk decides,
    // and only by the permitting node — so mutating in place is equivalent to
    // evaluatePolicy's copy-then-rewrite.
    if (!nodeMatches(context, node.match, route)) continue;
    bool permit = false;
    switch (node.action) {
      case PolicyAction::kPermit:
        permit = true;
        break;
      case PolicyAction::kDeny:
        permit = false;
        break;
      case PolicyAction::kUnspecified:
        permit = context.vendor->nodeWithoutActionPermits;
        break;
    }
    if (permit) applySets(context, node.sets, route);
    return permit;
  }
  return context.vendor->acceptWhenNoNodeMatches;
}

}  // namespace hoyan
