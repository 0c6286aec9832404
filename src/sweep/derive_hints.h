// Automatic SweepHints derivation from an RCL intent (§6.2).
//
// `sweepKFailures` prunes failure scenarios using caller-declared relevance
// (SweepHints) because it cannot see through a NetworkProperty closure. When
// the property *is* an RCL intent checked over the degraded network's global
// RIB, the intent's own guard structure declares what it reads — so the hints
// can be derived instead of hand-written, and they are sound by construction:
//
//  1. Scope analysis walks the intent and proves that every RIB access
//     (PRE/POST leaf) is restricted — by a guard conjunct, a filter conjunct,
//     or a `forall prefix in {…}` grouping — to rows satisfying a
//     *prefix-pure* predicate (one whose subtree references only the `prefix`
//     field). The union of those predicates bounds the rows the verdict can
//     depend on. Intents with an unscoped access (e.g. a bare `PRE = POST`,
//     `forall prefix:` without values, or a guard whose only prefix term sits
//     under a mixed `or`) fail the analysis and fall back to no-pruning hints.
//  2. The relevant-prefix set is computed by *evaluating* — not symbolically
//     inverting — the collected predicates against the finite universe of
//     prefixes that can ever appear in a RIB row of any degraded model:
//     injected input routes, interface subnets and host routes, loopback
//     host routes, static routes, and configured aggregates. Evaluation uses
//     Predicate::eval on a synthetic row (only `prefix` populated), so the
//     scope matches checker semantics exactly, ranges and regexes included.
//     The set is then closed over aggregates (closeOverAggregates below, the
//     one closure the sweep engine also applies to caller hints).
//  3. The relevant-device list covers what prefix overlap alone cannot:
//     holders of relevant routes reached over BGP sessions that do not ride
//     the IGP. Holder devices (injectors and local originators) propagate
//     across sessions whose export policy feasibly passes a relevant prefix;
//     holders with no IS-IS interface are listed (their links and failures
//     are otherwise invisible to the engine), as are the local ends of
//     feasible holder sessions with no IGP path to the peer (the session
//     rides a specific adjacency, so the carrying link must stay relevant).
//
// Everything conservative is resolved toward "relevant": unparseable policy
// references, peer-group indirection, and match clauses other than prefix
// lists all count as feasible. The fallback for unscopable intents disables
// pruning entirely (empty relevantPrefixes), which the engine treats as
// "reads everything" — correct, just not fast.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "net/route.h"
#include "proto/network_model.h"
#include "rcl/ast.h"
#include "sweep/sweep.h"

namespace hoyan::sweep {

struct DeriveResult {
  // Ready to pass to sweepKFailures. When the intent is unscopable this is
  // the conservative fallback: cacheId still set (verdict caching stays on),
  // relevance empty (pruning off).
  SweepHints hints;
  // True when the scope analysis succeeded and `hints` carries relevance.
  bool scoped = false;
  // Why scoping failed (first reason); empty when `scoped`.
  std::string reason;
};

// Closes `relevant` over the configured aggregates that overlap it, to a
// fixpoint. An aggregate's route exists while any of its contributors does,
// and a summary-only aggregate hides them, so an aggregate overlapping a
// relevant prefix couples the two: its own prefix joins the set, so every
// contributor it covers overlaps the set too. deriveHints returns closed sets
// (closing them again changes nothing); sweepKFailures closes whatever hints
// it is given before it prunes and slices the inputs.
std::vector<Prefix> closeOverAggregates(const NetworkModel& model,
                                        std::vector<Prefix> relevant);

// Derives pruning hints for checking `intent` over the RIBs of each degraded
// model. `model` must be the sweep's base model with derived state built;
// `inputs` the same injected routes the sweep will simulate.
DeriveResult deriveHints(const rcl::Intent& intent, const NetworkModel& model,
                         std::span<const InputRoute> inputs);

}  // namespace hoyan::sweep
