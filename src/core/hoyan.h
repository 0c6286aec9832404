// Hoyan's public API: the change-verification pipeline of Fig. 2.
//
// Pre-processing (daily): build the base network model from configurations
// and topology, build inputs, simulate the base RIBs/flow paths/loads.
// Change verification (per request): parse the change commands, construct
// the updated model incrementally, run distributed route+traffic simulation,
// and check the operator's intents (RCL for route change intents, path and
// load intents for the data plane), producing counter-examples on violation.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/parser.h"
#include "dist/dist_sim.h"
#include "incr/engine.h"
#include "net/flow.h"
#include "obs/provenance.h"
#include "obs/telemetry.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "rcl/verify.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"
#include "sweep/derive_hints.h"
#include "sweep/sweep.h"
#include "topo/topology.h"
#include "verify/properties.h"

namespace hoyan {

// A planned network change: topology deltas plus configuration commands.
// Commands use the device configuration grammar with `device <name>` section
// headers selecting the target router, e.g.:
//
//   device BR-0-0
//   route-policy ISP-IN node 10 permit
//    apply local-pref 200
//   device CORE-0-0
//   no static-route 10.9.0.0/24 nexthop 1.2.3.4
struct ChangePlan {
  std::string name;
  TopologyChange topologyChange;
  std::string commands;
  // Additional input routes injected by the change (new prefix announcement).
  std::vector<InputRoute> newInputRoutes;
  // Input routes withdrawn by the change (prefix reclamation): prefixes to
  // drop from the input set.
  std::vector<Prefix> withdrawnPrefixes;
  // Withdrawals scoped to one injection device (e.g. an old-WAN router
  // stopping a specific announcement while others keep theirs).
  std::vector<std::pair<NameId, Prefix>> withdrawnInputs;
};

// The operator's change intents.
struct IntentSet {
  std::vector<std::string> rclIntents;       // Route change intents (§4).
  std::vector<PathChangeIntent> pathIntents; // Flow path change intents.
  std::optional<double> maxLinkUtilization;  // Traffic load intent.
};

struct RclOutcome {
  std::string specification;
  rcl::CheckResult result;
};

struct ChangeVerificationResult {
  std::vector<ParseError> commandErrors;
  RouteSimStats routeStats;
  TrafficSimStats trafficStats;
  double routeSimSeconds = 0;
  double trafficSimSeconds = 0;
  double verifySeconds = 0;

  std::vector<RclOutcome> rclOutcomes;
  std::vector<PathChangeViolation> pathViolations;
  std::vector<LoadViolation> loadViolations;

  // Incremental-engine accounting (all zero unless enableIncremental ran).
  bool incrementalUsed = false;
  size_t routeSubtaskCacheHits = 0;
  size_t trafficSubtaskCacheHits = 0;
  size_t routeSubtaskCount = 0;
  size_t trafficSubtaskCount = 0;
  std::string impactSummary;  // One-line change-impact description.

  // The simulated post-change state (for probes, diagnosis, and examples).
  NetworkRibs updatedRibs;
  LinkLoadMap updatedLinkLoads;

  bool satisfied() const {
    if (!commandErrors.empty()) return false;
    for (const RclOutcome& outcome : rclOutcomes)
      if (!outcome.result.satisfied) return false;
    return pathViolations.empty() && loadViolations.empty();
  }
  std::string report() const;
};

class Hoyan {
 public:
  Hoyan(Topology topology, NetworkConfig configs);

  // Builds device models by parsing configuration text (hostname taken from
  // the text); interfaces parsed from the text are installed onto the
  // topology devices.
  static Hoyan fromConfigTexts(Topology topology,
                               const std::vector<std::string>& configTexts);

  // Registers the pre-built simulation inputs (from the input route/flow
  // building services), kept in split order (sortForSplit, dist_sim.h): the
  // distributed master then splits them in place on every run, and
  // inputRoutes()/inputFlows() return them in that order, equal keys in
  // registration order.
  void setInputRoutes(std::vector<InputRoute> inputs);
  void setInputFlows(std::vector<Flow> flows);

  // Distributed-simulation knobs used for every simulation run. Each run
  // reports into this facade's observability context (below), whatever
  // `options.telemetry` holds.
  void setSimulationOptions(DistSimOptions options) { distOptions_ = std::move(options); }

  // The observability context of the whole pipeline (preprocessing,
  // simulation, the incremental engine, intent checking, fault sweeps):
  // configureTelemetry builds an owned one from `options`, setTelemetry
  // adopts an externally owned one (e.g. shared across Hoyan instances).
  // Without either, every entry point resolves the process global, else the
  // disabled context (obs::Telemetry::resolve). Sinks attached to the
  // resolved context apply to everything this facade runs: a RunRegistry
  // shows each preprocess, verifyChange and fault sweep as a live run; a
  // ProvenanceRecorder records the distributed simulations of preprocess and
  // verifyChange (not the fault sweeps' per-scenario ones) and gives
  // violations their explain chains, and verifyChange clears it at entry so
  // its log describes the post-change simulation. `telemetry()` is the
  // configured context, null when never configured.
  void configureTelemetry(const obs::TelemetryOptions& options);
  void setTelemetry(obs::Telemetry* telemetry);
  obs::Telemetry* telemetry() const { return telemetry_; }

  // The decision chain for (device, prefix) from the context's recorder —
  // the `hoyan explain <device> <prefix>` entry point. Returns "{}" when no
  // recorder is attached (or it recorded nothing for the pair).
  std::string explain(const std::string& device, const Prefix& prefix,
                      size_t maxDepth = 8) const;

  // Daily pre-processing: base model + base RIBs + base flow paths/loads.
  void preprocess();

  const NetworkModel& baseModel() const { return *baseModel_; }
  const NetworkRibs& baseRibs() const { return baseRibs_; }
  const LinkLoadMap& baseLinkLoads() const { return baseLoads_; }
  const rcl::GlobalRib& baseGlobalRib() const { return baseGlobal_; }
  const std::vector<InputRoute>& inputRoutes() const { return inputRoutes_; }
  const std::vector<Flow>& inputFlows() const { return inputFlows_; }

  // Builds the updated model for a change plan (exposed for scenarios and
  // diagnosis). Command errors are returned through `errors`.
  NetworkModel buildUpdatedModel(const ChangePlan& plan,
                                 std::vector<ParseError>* errors = nullptr) const;

  // Turns on the incremental verification engine: change-impact analysis +
  // content-addressed subtask result cache shared across verifyChange calls.
  // Results stay byte-identical to cold runs; repeated/overlapping plans get
  // served from the cache. The engine reports into each run's context.
  // Call any time; takes effect from the next preprocess()/verifyChange().
  void enableIncremental(incr::IncrementalOptions options = {});
  // The engine, for inspection (cache stats, last impact); null when
  // enableIncremental was never called.
  incr::IncrementalEngine* incremental() const { return incremental_.get(); }

  // Full change verification (Fig. 2 left half). Throws std::runtime_error,
  // naming the subtasks, when a simulation phase's subtasks run out of
  // retries (preprocess does the same for the base simulation).
  ChangeVerificationResult verifyChange(const ChangePlan& plan, const IntentSet& intents);

  // Daily configuration auditing (§6.2): each audit task is an RCL intent
  // evaluated with both PRE and POST bound to the *base* global RIB.
  std::vector<RclOutcome> runAuditTasks(const std::vector<std::string>& auditSpecs);

  // Fault-tolerance checking (§6.2) on the base network. Runs the
  // distributed k-failure sweep engine (src/sweep): scenarios fan out over
  // the configured worker count, inert scenarios are pruned via `hints`,
  // symmetric ones deduped, and verdicts served from the incremental
  // engine's cas/k cache when enableIncremental ran and hints carry a
  // cacheId. Results are byte-identical to checkFaultToleranceSerial.
  KFailureResult checkFaultTolerance(const NetworkProperty& property,
                                     const KFailureOptions& options = {},
                                     const sweep::SweepHints& hints = {});

  // The serial reference oracle (verify/checkKFailures, one deep copy and
  // centralized simulation per scenario) the sweep engine is
  // differential-tested against.
  KFailureResult checkFaultToleranceSerial(const NetworkProperty& property,
                                           const KFailureOptions& options = {}) const;

  // checkFaultTolerance with the sweep's full accounting (enumerated/
  // pruned/deduped/scheduled/cache-hit counts) for benches and dashboards.
  sweep::SweepResult sweepFaultTolerance(const NetworkProperty& property,
                                         const KFailureOptions& options = {},
                                         const sweep::SweepHints& hints = {});

  // Fault-tolerance checking with the property stated as an RCL intent and
  // the pruning hints *derived* from it (sweep::deriveHints): the intent's
  // guard structure scopes the relevant prefixes/devices, so callers get the
  // sweep's pruning with zero hand-written hints. The intent is checked on
  // each degraded network with PRE and POST both bound to that network's
  // global RIB (the audit-task reading: the degraded RIB satisfies the
  // invariant). Unscopable intents fall back to an unpruned — still deduped,
  // cached, and byte-identical — sweep. Throws std::invalid_argument on a
  // parse error.
  sweep::SweepResult sweepIntentFaultTolerance(const std::string& rclSpec,
                                               const KFailureOptions& options = {});
  KFailureResult checkIntentFaultTolerance(const std::string& rclSpec,
                                           const KFailureOptions& options = {});

  // The hints sweepIntentFaultTolerance would use for `rclSpec` — exposed for
  // tests, benches, and operators inspecting why a sweep did (not) prune.
  sweep::DeriveResult deriveSweepHints(const std::string& rclSpec) const;

 private:
  void requirePreprocessed() const;
  // The context every entry point resolves once.
  obs::Telemetry& context() const { return obs::Telemetry::resolve(telemetry_); }

  std::unique_ptr<NetworkModel> baseModel_;
  std::vector<InputRoute> inputRoutes_;
  std::vector<Flow> inputFlows_;
  DistSimOptions distOptions_;
  std::unique_ptr<obs::Telemetry> ownedTelemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  std::unique_ptr<incr::IncrementalEngine> incremental_;
  bool preprocessed_ = false;

  NetworkRibs baseRibs_;
  LinkLoadMap baseLoads_;
  rcl::GlobalRib baseGlobal_;
};

// Applies a change plan's commands to a network (configs + topology
// interfaces). Exposed for tests; Hoyan::buildUpdatedModel uses it.
std::vector<ParseError> applyChangeCommands(Topology& topology, NetworkConfig& configs,
                                            const std::string& commands);

}  // namespace hoyan
