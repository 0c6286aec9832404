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
#include "sim/local_routes.h"
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
  // Optional sink for per-phase spans/metrics (null = disabled, no cost).
  obs::Telemetry* telemetry = nullptr;
  // Optional route-decision provenance sink (null or disabled = no
  // recording, costing one branch).
  obs::ProvenanceRecorder* provenance = nullptr;
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
  size_t localRoutes = 0;  // Routes simulateCentralized's installLocalRoutes installed.
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
//
// Returns what a distributed route subtask stores: the BGP and aggregate
// routes, EC-expanded (every member prefix of a class holds a copy of its
// representative's cell). It holds no local routes and no forwarding index,
// and the recorder gets no selection events: each cell is ranked on its own
// routes, which is provisional until finishRib ranks the merged RIB.
RouteSimResult simulateRoutes(const NetworkModel& model,
                              std::span<const InputRoute> inputs,
                              const RouteSimOptions& options = {});

// Makes a merged RIB forwardable. The distributed master's merge, its
// local-routes file, every traffic subtask and simulateCentralized end here.
// Per (device, vrf, prefix) cell it drops exact duplicates (an aggregate
// whose contributors span several route subtasks is originated once per
// subtask) and re-runs best-path selection; then it builds the forwarding
// index. With an enabled `recorder` it then emits the chosen-best /
// chosen-ecmp / lost-tie-break events of every watched cell in sorted
// (device, vrf, prefix) order; lost routes carry the deciding step of the
// BGP decision process (proto/bgp.h bgpDecisionStep).
void finishRib(NetworkRibs& ribs, obs::ProvenanceRecorder* recorder = nullptr);

// Centralized route simulation, assembled the way the distributed master
// assembles its route files: the simulateRoutes file, then a fresh
// installLocalRoutes file merged after it, then finishRib. Returns the whole
// forwardable RIB: BGP and local routes, indexed; `stats.installedRoutes`
// counts all of it and `stats.localRoutes` the local routes installed.
// `options.provenance` also gets the local-installed and selection events.
//
// `keepLocal` is installLocalRoutes's keep set: null installs every local
// route, a set only the routes whose prefix it holds. A scoped k-failure
// sweep job passes the local prefixes its property can read (sweep/sweep.h).
// It is an argument, not a RouteSimOptions field, because options are
// fingerprinted into incremental cache keys and a keep set is not a
// simulation setting.
RouteSimResult simulateCentralized(const NetworkModel& model,
                                   std::span<const InputRoute> inputs,
                                   const RouteSimOptions& options = {},
                                   const LocalPrefixSet* keepLocal = nullptr);

}  // namespace hoyan
