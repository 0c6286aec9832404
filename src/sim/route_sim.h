// BGP fixpoint route simulation (§3.1).
//
// Simulates the message-passing propagation of input routes: each round a
// device processes incoming advertisements (ingress policy, loop prevention,
// nexthop/IGP resolution with SR VSBs), installs them, selects best/ECMP
// routes, and advertises the updated BGP best paths to its neighbours after
// egress policy (multiple paths on add-path sessions). The fixpoint
// terminates when no new advertisements are produced (within ~20 rounds on
// the production WAN).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "net/route.h"
#include "proto/network_model.h"
#include "proto/policy_kernel.h"
#include "sim/route_ec.h"

namespace hoyan::obs {
class ProvenanceRecorder;
class Telemetry;
}  // namespace hoyan::obs

namespace hoyan {

struct RouteSimOptions {
  int maxRounds = 20;
  bool useEquivalenceClasses = true;
  // Emulated memory budget in installed-route count; exceeded => the task
  // aborts with outOfMemory (how centralized WAN+DCN runs failed, Fig. 1).
  size_t memoryBudgetRoutes = 0;  // 0 = unlimited.
  // Install direct/static/IS-IS routes into the result RIBs. The distributed
  // master runs exactly one local-routes subtask; centralized runs set this.
  bool includeLocalRoutes = false;
  // Optional sink for per-phase spans/metrics (null = disabled, no cost).
  obs::Telemetry* telemetry = nullptr;
  // Optional route-decision provenance sink (null or disabled = no
  // recording, costing one branch).
  obs::ProvenanceRecorder* provenance = nullptr;
  // Emit chosen-best/ecmp/lost-tie-break events from the final RIBs. The
  // distributed master disables this on route subtasks (subtask-local
  // selection is provisional) and calls recordSelectionEvents() itself after
  // the merged reselect.
  bool provenanceSelectionEvents = true;
  // Per-class policy-eval memoization (proto/policy_kernel.h). Results are
  // byte-identical either way — the flag exists for the determinism
  // differentials and the bench oracle, and is deliberately excluded from
  // incr:: option fingerprints (cache keys must not churn on it).
  bool policyMemo = true;
};

struct RouteSimStats {
  size_t inputRoutes = 0;
  size_t simulatedInputs = 0;  // After EC reduction.
  size_t rounds = 0;
  size_t messagesProcessed = 0;
  size_t installedRoutes = 0;
  bool converged = true;
  bool outOfMemory = false;
  EcStats ec;
  PolicyKernelStats policy;  // Policy-eval kernel counters (memo/regex/bad).
  // Per-phase wall times of one simulateRoutes call (also traced as spans).
  double ecSeconds = 0;           // Equivalence-class reduction.
  double propagateSeconds = 0;    // Fixpoint rounds.
  double materializeSeconds = 0;  // RIB materialisation + EC expansion.

  // Folds one subtask's stats into a merged total: counts and seconds add,
  // `rounds` is the max and `converged` the AND. The merger recomputes the
  // whole-task totals (inputRoutes, installedRoutes) itself.
  void add(const RouteSimStats& other) {
    simulatedInputs += other.simulatedInputs;
    messagesProcessed += other.messagesProcessed;
    rounds = std::max(rounds, other.rounds);
    converged = converged && other.converged;
    ec.inputRoutes += other.ec.inputRoutes;
    ec.classes += other.ec.classes;
    ec.prefixClasses += other.ec.prefixClasses;
    ecSeconds += other.ecSeconds;
    propagateSeconds += other.propagateSeconds;
    materializeSeconds += other.materializeSeconds;
    policy.add(other.policy);
  }
};

struct RouteSimResult {
  NetworkRibs ribs;
  RouteSimStats stats;
};

// Simulates the propagation of `inputs` over the network model. Input routes
// at external-peer devices propagate over their eBGP sessions into our
// border routers (ingress policies apply there); inputs at our own devices
// are locally originated (DC aggregates, redistribution).
RouteSimResult simulateRoutes(const NetworkModel& model,
                              std::span<const InputRoute> inputs,
                              const RouteSimOptions& options = {});

// Re-runs best-path selection over every (device, vrf, prefix) cell. The
// distributed master calls this after merging subtask results so routes from
// different subtasks (and the local-routes subtask) are ranked together.
void reselectAll(NetworkRibs& ribs);

// Removes exact-duplicate routes within each (device, vrf, prefix) cell.
// Needed after merging subtask results: an aggregate whose contributors span
// several route subtasks is originated once per subtask.
void dedupeRoutes(NetworkRibs& ribs);

// Emits chosen-best / chosen-ecmp / lost-tie-break provenance events for
// every (device, vrf, prefix) cell of `ribs` that the recorder watches, in
// deterministic (sorted-key) order. Lost routes carry the deciding step of
// the BGP decision process (proto/bgp.h bgpDecisionStep). No-op when
// `recorder` is null or disabled.
void recordSelectionEvents(const NetworkRibs& ribs, obs::ProvenanceRecorder* recorder);

}  // namespace hoyan
