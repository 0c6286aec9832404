// Route-policy evaluation engine with vendor-specific behaviour semantics.
//
// Every decision point the Table-5 VSB catalogue touches goes through here:
// missing/undefined/defaulted policies, undefined filters, actionless nodes,
// the ip-prefix-vs-IPv6 mismatch, AS-path overwrite + own-ASN insertion. The
// evaluator also produces an explanation trace used by RCL counter-examples
// and the root-cause-analysis workflow.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "config/device_config.h"
#include "config/vendor.h"
#include "net/route.h"

namespace hoyan {

class PolicyEvalKernel;

struct PolicyContext {
  const DeviceConfig* device = nullptr;   // Filters are resolved on this device.
  const VendorProfile* vendor = nullptr;  // VSB knobs.
  Asn localAsn = 0;                       // For own-ASN insertion after overwrite.
  // Optional evaluation kernel (proto/policy_kernel.h): routes as-path regex
  // lookups through the engine's compiled-pattern cache and accounts kernel
  // stats. Null = standalone evaluation (tests, diag) via the process-global
  // pattern cache.
  PolicyEvalKernel* kernel = nullptr;
};

struct PolicyResult {
  bool permitted = false;
  Route route;                    // The (possibly rewritten) route when permitted.
  std::optional<uint32_t> matchedNode;  // Sequence of the node that decided.
  std::string reason;             // Human-readable decision trace.
};

// Evaluates whether `route` passes the policy named `policyName` on the
// context device and applies its attribute rewrites. `policyName` == nullopt
// means no policy is configured on this session direction. `explain` gates
// the `reason` trace: pass false on hot paths that never read it (the
// strings are allocation-heavy and most runs drop them on the floor).
PolicyResult evaluatePolicy(const PolicyContext& context,
                            std::optional<NameId> policyName, const Route& route,
                            bool explain = true);

// The zero-copy variant for hot paths: same verdict and rewrites as
// evaluatePolicy (they share the match walk and applySets), but mutates
// `route` directly instead of copying it into a PolicyResult — the common
// permit-without-rewrite case touches nothing at all. On deny the route is
// left unmodified (sets only ever apply to the matched, permitting node).
bool evaluatePolicyInPlace(const PolicyContext& context,
                           std::optional<NameId> policyName, Route& route);

// Applies the attribute rewrites of a node to a route (exposed for tests).
void applySets(const PolicyContext& context, const PolicySets& sets, Route& route);

// AS-path regular-expression matching. The paper notes Hoyan's early AS-path
// regex implementation was flawed (Table 4, "implementation bugs"); this one
// translates vendor-style anchors (`_` = boundary) to ECMAScript syntax and
// matches the canonical rendering of the path through the pattern's DFA in
// the process-wide cache (proto/policy_kernel.h), with std::regex_search's
// verdict. An invalid or unsupported pattern matches nothing.
bool asPathMatches(const AsPath& path, const std::string& pattern);

}  // namespace hoyan
