// The distributed k-failure sweep engine (§6.2 fault-tolerance checking at
// scale). `checkKFailures` (verify/properties.cc) is the semantic oracle: a
// serial pre-order DFS over failure sets that deep-copies the model and
// re-simulates per scenario. This engine produces the *same* verdicts and the
// *same* counterexample set — byte-identical, enforced by a differential
// test — while
//
//  * enumerating the scenario list once, up front, in exactly the oracle's
//    evaluation order;
//  * pruning scenarios whose failed elements are provably inert for the
//    property (caller-supplied relevance hints; see SweepHints) so they
//    inherit the base network's verdict without a simulation;
//  * slicing, under the same hints, the input routes each job simulates and
//    the local routes it installs down to those the property can read;
//  * deduping symmetric scenarios by impact fingerprint (parallel links,
//    orientation, inert padding) so each distinct degraded network simulates
//    once no matter how many scenarios map onto it;
//  * running the surviving jobs on the distributed simulator's job executor
//    (dist/job_runner.h), with the same retry/exhaust accounting; and
//  * serving repeat jobs from a content-addressed verdict cache in the
//    incremental engine's object store (`cas/k/<fp>`), so overlapping sweeps
//    — warm re-runs, growing k, shifted focus — skip shared scenarios.
//
// Byte-identity despite out-of-order execution: *jobs* settle in any order,
// but the executor's serialized settle callback commits *scenarios* strictly
// in enumeration order through a cursor that applies the oracle's
// counterexample cap before each commit. The committed set therefore equals
// the set the serial loop would have evaluated; `earlyExit` only decides
// whether outstanding jobs are cancelled once the cap is reached, never what
// is committed.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "incr/engine.h"
#include "net/route.h"
#include "obs/telemetry.h"
#include "proto/network_model.h"
#include "verify/properties.h"

namespace hoyan::sweep {

// What the property reads — the engine cannot see through a NetworkProperty
// closure, so the caller declares relevance. The contract: the property's
// verdict may only depend on routes for prefixes overlapping
// `relevantPrefixes` and on the state of `relevantDevices`. The engine first
// closes `relevantPrefixes` over the configured aggregates that overlap them
// (closeOverAggregates in sweep/derive_hints.h), since an aggregate's route
// lives on its contributors. Against the closed set it then
//  * prunes: failing an element that (a) is not on a relevant device, (b)
//    carries no IGP adjacency, and (c) neither owns nor originates routes
//    overlapping a relevant prefix (its loopback and interface subnets; the
//    inputs, statics and aggregates of a device or of a link's endpoints)
//    cannot change the verdict, so such scenarios inherit the base verdict;
//    and
//  * slices: every job simulates only the input routes whose prefix overlaps
//    the set (in either direction), and installs only the local routes
//    (direct, static, IS-IS) whose prefix does, so the property is handed
//    RIBs holding nothing else.
// Empty `relevantPrefixes` means "reads everything": pruning and slicing are
// off, every scenario simulates every input and local route (dedupe still
// applies — it is unconditionally sound).
struct SweepHints {
  // Stable content id of the property (e.g. its RCL text or a descriptive
  // tag). Non-empty + an incremental engine => verdicts are cached under
  // `cas/k/<fp(model, inputs, cacheId, scenario)>` across sweeps. Empty
  // disables the verdict cache (an opaque closure has no identity).
  std::string cacheId;
  std::vector<Prefix> relevantPrefixes;
  std::vector<NameId> relevantDevices;
  // Where the relevance came from, for the run journal's sweep_plan event:
  // "derived" (deriveHints), "caller" (hand-written), or "none". Empty is
  // classified automatically from the relevance fields.
  std::string source;
};

struct SweepOptions {
  KFailureOptions failure;  // k, device failures, cap, focus — oracle knobs.
  size_t workers = 4;
  int maxAttempts = 3;
  // Cancel outstanding jobs once the counterexample cap commits (the serial
  // checker stops enumerating there). Off keeps evaluating so the verdict
  // cache warms fully; the committed result is identical either way.
  bool earlyExit = true;
  // Fault injection for retry-path tests: probability a worker "crashes"
  // mid-job, deterministic per (job, attempt, seed) — the dist simulator's
  // scheme.
  double workerFailureProbability = 0;
  uint64_t failureSeed = 0;
  // Resolved by Telemetry::resolve (null: the process global, else the
  // disabled context). Per-scenario simulations record no provenance.
  obs::Telemetry* telemetry = nullptr;
  // Verdict-cache host; null disables caching (every job simulates). The
  // sweep binds it to `telemetry` before touching its store.
  incr::IncrementalEngine* incremental = nullptr;
};

struct SweepStats {
  size_t enumerated = 0;  // Scenarios in the oracle's full enumeration.
  size_t pruned = 0;      // Inert scenarios inheriting the base verdict.
  size_t deduped = 0;     // Scenarios attached to another scenario's job.
  size_t scheduled = 0;   // Unique jobs dispatched to workers.
  size_t cacheHits = 0;   // Jobs served from the cas/k verdict cache.
  size_t evaluated = 0;   // Jobs actually simulated this sweep.
  size_t retries = 0;     // Worker attempts re-enqueued after a crash.
  // Input routes each job simulates: those overlapping the closed relevant
  // set under scoped hints, every input otherwise.
  size_t jobInputs = 0;
  // Local routes installed, summed over the jobs this sweep evaluated: under
  // scoped hints a job installs only those whose prefix overlaps the closed
  // relevant set, otherwise all of them. Deterministic for a cold sweep that
  // evaluates every job (no early exit cancels one).
  size_t localRoutesInstalled = 0;
  // SPF sources run, summed over the jobs this sweep evaluated: each job's
  // IgpState::sourcesRun on its degraded network. Deterministic under the
  // same condition as localRoutesInstalled.
  size_t spfSources = 0;
  // Worker-model memory accounting (copy-on-write). Deep is what one worker
  // would hold if it deep-copied the base model (the pre-CoW design); peak is
  // the largest bytes any worker actually materialized during a job — shared
  // tables excluded, masks + recomputed derived state included. Zero when no
  // job simulated.
  size_t workerModelDeepBytes = 0;
  size_t workerModelPeakBytes = 0;
};

struct SweepResult {
  KFailureResult result;  // Byte-identical to checkKFailures on these inputs.
  SweepStats stats;
};

// Runs the sweep. Throws std::runtime_error when a job exhausts its retry
// budget before the scenarios needing it could commit (mirrors the
// distributed simulator's failed-subtask surfacing).
SweepResult sweepKFailures(const NetworkModel& baseModel,
                           std::span<const InputRoute> inputs,
                           const NetworkProperty& property,
                           const SweepOptions& options = {},
                           const SweepHints& hints = {});

}  // namespace hoyan::sweep
