#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "dist/job_runner.h"
#include "incr/fingerprint.h"
#include "sim/route_sim.h"

namespace hoyan::sweep {
namespace {

constexpr std::string_view kPhase = "fault_sweep";

std::string paddedId(char kind, size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c%06zu", kind, index);
  return buf;
}

// The names sweep jobs report under on the shared executor.
JobNames sweepJobNames() {
  return JobNames{
      .phase = std::string(kPhase),
      .span = "sweep.job",
      .category = "sweep",
      .queueDepth = {"sweep.queue.depth", "Sweep jobs awaiting a worker."},
      .queueWait = {"sweep.queue.wait_seconds",
                    "Sweep job queue wait (enqueue -> dequeue)."},
      .retries = {"sweep.retries",
                  "Sweep job attempts re-enqueued after a worker crash."},
      .completed = {"sweep.jobs.completed", ""},
      .crashed = {"sweep.jobs.crashed", ""},
      .exhausted = {"sweep.jobs.exhausted", ""},
      .seconds = {"sweep.job_seconds", ""},
      .durationMs = {"sweep.job_duration_ms",
                     "Per-job degraded-network simulation + property check latency."},
      .cacheHits = {"sweep.cache.hits", "Sweep jobs served from cas/k."},
      .cacheMisses = {"sweep.cache.misses",
                      "Sweep jobs evaluated for lack of a cached verdict."},
  };
}

// The canonical degraded-network identity of a failure set: link pairs
// normalized to (min, max) endpoint order, sorted, duplicates collapsed
// (parallel links fail together — setLinkState matches every link between
// the pair in either orientation); devices sorted and collapsed. Two failure
// sets with equal canonical forms degrade the topology identically, so they
// share one evaluation unconditionally.
struct CanonicalScenario {
  std::vector<std::pair<NameId, NameId>> links;
  std::vector<NameId> devices;

  uint64_t fingerprint() const {
    incr::Fnv1a fp;
    fp.mix("L").mix(static_cast<uint64_t>(links.size()));
    for (const auto& [a, b] : links)
      fp.mix(static_cast<uint64_t>(a)).mix(static_cast<uint64_t>(b));
    fp.mix("D").mix(static_cast<uint64_t>(devices.size()));
    for (const NameId device : devices) fp.mix(static_cast<uint64_t>(device));
    return fp.digest();
  }
};

// Relevance analysis for pruning. An element is *inert* when, per the
// SweepHints contract, failing it cannot change which routes exist for the
// relevant prefixes or the state of the relevant devices:
//  * it touches no relevant device;
//  * it carries no IGP adjacency (an IS-IS-enabled link or a device with any
//    IS-IS interface reshapes SPF, which reroutes everything);
//  * none of its interface subnets overlaps a relevant prefix (direct routes
//    and nexthop resolution for those prefixes are untouched); and
//  * no device it silences injects an input route overlapping a relevant
//    prefix (injection points gone => the routes themselves change).
// Overlap is checked both directions, so a covering or covered prefix — which
// shifts longest-prefix forwarding — blocks inertness too.
class RelevanceIndex {
 public:
  RelevanceIndex(const NetworkModel& model, std::span<const InputRoute> inputs,
                 const SweepHints& hints)
      : model_(model), prefixes_(hints.relevantPrefixes) {
    relevantDevices_.insert(hints.relevantDevices.begin(),
                            hints.relevantDevices.end());
    for (const InputRoute& input : inputs)
      if (overlapsRelevant(input.route.prefix)) injectors_.insert(input.device);
  }

  bool linkInert(NameId a, NameId b) const {
    if (deviceTouchesRelevant(a) || deviceTouchesRelevant(b)) return false;
    for (const Link& link : model_.topology.links()) {
      if (!((link.deviceA == a && link.deviceB == b) ||
            (link.deviceA == b && link.deviceB == a)))
        continue;
      if (!interfaceInert(link.deviceA, link.interfaceA)) return false;
      if (!interfaceInert(link.deviceB, link.interfaceB)) return false;
    }
    return true;
  }

  bool deviceInert(NameId device) const {
    if (deviceTouchesRelevant(device)) return false;
    const Device* dev = model_.topology.findDevice(device);
    if (!dev) return true;  // Unknown device: failing it is a no-op.
    if (overlapsRelevant(
            Prefix(dev->loopback, static_cast<uint8_t>(dev->loopback.width()))))
      return false;  // Owns a relevant host route (the loopback).
    for (const Interface& itf : dev->interfaces) {
      if (itf.isisEnabled) return false;
      if (overlapsRelevant(itf.subnet())) return false;
    }
    return true;
  }

 private:
  bool overlapsRelevant(const Prefix& prefix) const {
    for (const Prefix& relevant : prefixes_)
      if (relevant.overlaps(prefix)) return true;
    return false;
  }

  bool deviceTouchesRelevant(NameId device) const {
    return relevantDevices_.contains(device) || injectors_.contains(device);
  }

  bool interfaceInert(NameId device, NameId ifName) const {
    const Device* dev = model_.topology.findDevice(device);
    const Interface* itf = dev ? dev->findInterface(ifName) : nullptr;
    if (!itf) return true;
    return !itf->isisEnabled && !overlapsRelevant(itf->subnet());
  }

  const NetworkModel& model_;
  std::span<const Prefix> prefixes_;
  std::unordered_set<NameId> relevantDevices_;
  std::unordered_set<NameId> injectors_;  // Devices injecting relevant routes.
};

// One enumerated scenario, in the oracle's evaluation order. `failures` is
// the failure set exactly as the serial checker constructs it — that object
// (not the canonical form) becomes the counterexample, so counterexample
// sets match the oracle byte for byte.
struct Scenario {
  FailureSet failures;
  uint64_t fp = 0;   // Canonical fingerprint (after inert-element drop).
  size_t job = 0;    // Index into the job table.
};

// One unique degraded network to evaluate. Jobs resolve out of order on
// worker threads; scenarios commit in order against `state`/`verdict`.
// `state` changes only before the run or inside the executor's serialized
// settle callback, which also orders each body's `verdict` write before the
// commit that reads it.
struct Job {
  CanonicalScenario canonical;
  std::string cacheKey;  // Empty = verdict cache off for this sweep.
  size_t shared = 0;     // Scenarios mapping onto this job.
  int state = 0;         // 0 pending, 1 resolved, 2 failed (exhausted).
  bool verdict = false;  // Valid once state == 1.
};

}  // namespace

SweepResult sweepKFailures(const NetworkModel& baseModel,
                           std::span<const InputRoute> inputs,
                           const NetworkProperty& property,
                           const SweepOptions& options, const SweepHints& hints) {
  SweepResult out;
  obs::Telemetry& tel = obs::Telemetry::resolve(options.telemetry);
  obs::RunJournal& journal = tel.journal();
  obs::Span sweepSpan = tel.tracer().span("sweep.task", "sweep");
  journal.phaseBegin(kPhase);

  // --- candidates: exactly the oracle's element lists -----------------------
  const KFailureOptions& failure = options.failure;
  std::vector<std::pair<NameId, NameId>> candidateLinks;
  for (size_t i = 0; i < baseModel.topology.links().size(); ++i) {
    const Link& link = baseModel.topology.links()[i];
    if (!baseModel.topology.linkUp(i)) continue;
    if (!failure.focusDevices.empty()) {
      const bool touches =
          std::find(failure.focusDevices.begin(), failure.focusDevices.end(),
                    link.deviceA) != failure.focusDevices.end() ||
          std::find(failure.focusDevices.begin(), failure.focusDevices.end(),
                    link.deviceB) != failure.focusDevices.end();
      if (!touches) continue;
    }
    candidateLinks.emplace_back(link.deviceA, link.deviceB);
  }
  std::vector<NameId> candidateDevices;
  if (failure.includeDeviceFailures) {
    for (const auto& [name, device] : baseModel.topology.devices()) {
      if (device.role == DeviceRole::kExternalPeer) continue;
      if (!failure.focusDevices.empty() &&
          std::find(failure.focusDevices.begin(), failure.focusDevices.end(),
                    name) == failure.focusDevices.end())
        continue;
      candidateDevices.push_back(name);
    }
  }

  // --- enumerate: the oracle's full pre-order DFS ---------------------------
  // The serial checker stops enumerating once the counterexample cap fills;
  // here the *commit cursor* applies that cap instead, so the list is the
  // complete enumeration and the committed prefix of it is what the oracle
  // would have evaluated.
  std::vector<Scenario> scenarios;
  std::vector<size_t> indices;
  const std::function<void(size_t, int)> enumerate = [&](size_t start,
                                                         int remaining) {
    if (!indices.empty()) {
      Scenario scenario;
      for (const size_t index : indices)
        scenario.failures.failedLinks.push_back(candidateLinks[index]);
      scenarios.push_back(std::move(scenario));
    }
    if (remaining == 0) return;
    for (size_t i = start; i < candidateLinks.size(); ++i) {
      indices.push_back(i);
      enumerate(i + 1, remaining - 1);
      indices.pop_back();
    }
  };
  enumerate(0, failure.k);
  for (const NameId device : candidateDevices) {
    Scenario scenario;
    scenario.failures.failedDevices.push_back(device);
    scenarios.push_back(std::move(scenario));
  }
  out.stats.enumerated = scenarios.size();

  // --- classify: prune inert elements, dedupe by canonical fingerprint -----
  const bool pruning = options.prune && !hints.relevantPrefixes.empty();
  std::optional<RelevanceIndex> relevance;
  if (pruning) relevance.emplace(baseModel, inputs, hints);
  // Memoized per-element inertness (elements recur across scenarios).
  std::unordered_map<uint64_t, bool> linkInert;
  std::unordered_map<NameId, bool> deviceInert;
  const auto isLinkInert = [&](NameId a, NameId b) {
    if (!pruning) return false;
    const NameId lo = std::min(a, b), hi = std::max(a, b);
    const uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
    const auto it = linkInert.find(key);
    if (it != linkInert.end()) return it->second;
    return linkInert[key] = relevance->linkInert(a, b);
  };
  const auto isDeviceInert = [&](NameId device) {
    if (!pruning) return false;
    const auto it = deviceInert.find(device);
    if (it != deviceInert.end()) return it->second;
    return deviceInert[device] = relevance->deviceInert(device);
  };

  ObjectStore* store =
      options.incremental ? &options.incremental->store() : nullptr;
  const bool caching = store != nullptr && !hints.cacheId.empty();
  uint64_t sweepFp = 0;
  if (caching) {
    sweepFp = incr::Fnv1a()
                  .mix("sweep-verdict")
                  .mix(incr::fingerprintModel(baseModel))
                  .mix(incr::fingerprintInputRouteChunk(inputs))
                  .mix(hints.cacheId)
                  .digest();
  }

  std::vector<Job> jobs;
  std::unordered_map<uint64_t, size_t> jobByFp;
  for (Scenario& scenario : scenarios) {
    CanonicalScenario canonical;
    for (const auto& [a, b] : scenario.failures.failedLinks) {
      if (isLinkInert(a, b)) continue;
      canonical.links.emplace_back(std::min(a, b), std::max(a, b));
    }
    for (const NameId device : scenario.failures.failedDevices) {
      if (isDeviceInert(device)) continue;
      canonical.devices.push_back(device);
    }
    std::sort(canonical.links.begin(), canonical.links.end());
    canonical.links.erase(
        std::unique(canonical.links.begin(), canonical.links.end()),
        canonical.links.end());
    std::sort(canonical.devices.begin(), canonical.devices.end());
    canonical.devices.erase(
        std::unique(canonical.devices.begin(), canonical.devices.end()),
        canonical.devices.end());
    // Fully-inert scenarios degrade to the base network (empty canonical
    // form): they share the one base evaluation and inherit its verdict.
    const bool pruned = canonical.links.empty() && canonical.devices.empty();
    if (!options.dedupe && !pruned) {
      // Dedupe off: every scenario gets its own job (canonical form is still
      // what evaluates — it produces the identical degraded network).
      scenario.fp = canonical.fingerprint();
      scenario.job = jobs.size();
      Job& job = jobs.emplace_back();
      job.canonical = std::move(canonical);
      job.shared = 1;
      continue;
    }
    scenario.fp = canonical.fingerprint();
    const auto [it, inserted] = jobByFp.try_emplace(scenario.fp, jobs.size());
    if (inserted) {
      Job& job = jobs.emplace_back();
      job.canonical = std::move(canonical);
    }
    scenario.job = it->second;
    ++jobs[it->second].shared;
    if (pruned)
      ++out.stats.pruned;
    else if (!inserted)
      ++out.stats.deduped;
  }

  // --- resolve from the verdict cache, schedule the rest --------------------
  JobRunner runner(tel, sweepJobNames(),
                   JobPolicy{options.workers, options.maxAttempts,
                             options.workerFailureProbability, options.failureSeed});
  size_t scheduled = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    Job& job = jobs[i];
    runner.add(paddedId('j', i));
    if (caching) {
      job.cacheKey = "cas/k/" + incr::fingerprintHex(
                                    incr::Fnv1a()
                                        .mix(sweepFp)
                                        .mix(job.canonical.fingerprint())
                                        .digest());
      if (store->contains(job.cacheKey)) {
        job.verdict = *store->get<uint8_t>(job.cacheKey) != 0;
        job.state = 1;
        ++out.stats.cacheHits;
        runner.cacheHit(i, job.cacheKey);
        continue;
      }
      runner.cacheMiss(i, job.cacheKey);
    }
    runner.enqueue(i);
    ++scheduled;
  }
  out.stats.scheduled = scheduled;
  const std::string hintSource =
      !hints.source.empty()
          ? hints.source
          : (hints.relevantPrefixes.empty() && hints.relevantDevices.empty()
                 ? "none"
                 : "caller");
  journal.sweepPlan(kPhase, out.stats.enumerated, out.stats.pruned,
                    out.stats.deduped, scheduled, hintSource);

  // --- commit scenarios in enumeration order as jobs settle -----------------
  // The cursor applies the oracle's counterexample cap before every commit,
  // so the committed prefix is exactly the serial evaluation set no matter
  // how jobs resolved. A failed (retry-exhausted) job blocks the cursor and
  // surfaces as an error below — unless the cap filled first, in which case
  // the oracle would never have evaluated it either.
  KFailureResult& result = out.result;
  size_t cursor = 0;
  const auto commitComplete = [&] {
    return cursor == scenarios.size() ||
           result.counterexamples.size() >= failure.maxCounterexamples;
  };
  const auto commitReady = [&] {
    while (!commitComplete()) {
      const Scenario& scenario = scenarios[cursor];
      const Job& job = jobs[scenario.job];
      if (job.state != 1) break;
      ++result.scenariosChecked;
      if (!job.verdict) result.counterexamples.push_back(scenario.failures);
      if (journal.enabled())
        journal.sweepVerdict(kPhase, paddedId('s', cursor), job.verdict,
                             incr::fingerprintHex(scenario.fp), job.shared);
      ++cursor;
    }
    // Nothing further can commit: with earlyExit, cancel outstanding jobs.
    const bool blocked = !commitComplete() && jobs[scenarios[cursor].job].state == 2;
    if (options.earlyExit && (commitComplete() || blocked)) runner.cancel();
  };
  commitReady();

  // --- workers --------------------------------------------------------------
  // One private model per worker: the copy-on-write topology/config tables
  // and the failure-independent address index are physically the base
  // model's (O(1) copies, never detached — the overlay masks failures per
  // instance), so a worker only materializes the failure-dependent derived
  // state it recomputes per job. Per-worker memory is O(impact), not
  // O(model).
  std::vector<NetworkModel> workerModels(runner.workerCount());
  for (NetworkModel& local : workerModels) {
    local.topology = baseModel.topology;
    local.configs = baseModel.configs;
    local.addresses = baseModel.addresses;
  }
  std::atomic<size_t> peakWorkerBytes{0};
  const JobReport report = runner.run(
      [&](size_t j, int worker) {
        Job& job = jobs[j];
        NetworkModel& local = workerModels[worker];
        FailureOverlay overlay;
        for (const auto& [a, b] : job.canonical.links) overlay.addLink(a, b);
        for (const NameId device : job.canonical.devices) overlay.addDevice(device);
        try {
          overlay.apply(local.topology);
          local.rebuildDerivedForFailures();
          RouteSimOptions simOptions;
          simOptions.includeLocalRoutes = true;
          RouteSimResult sim = simulateRoutes(local, inputs, simOptions);
          sim.ribs.buildForwardingIndex();
          job.verdict = property(local, sim.ribs);
          // Sample the worker's materialized footprint at its peak — overlay
          // applied, derived state rebuilt — for the CoW accounting.
          const size_t materialized = local.materializedBytes(baseModel);
          size_t seen = peakWorkerBytes.load(std::memory_order_relaxed);
          while (seen < materialized &&
                 !peakWorkerBytes.compare_exchange_weak(seen, materialized,
                                                        std::memory_order_relaxed)) {
          }
        } catch (...) {
          overlay.revert(local.topology);  // Keep the worker model reusable.
          throw;
        }
        overlay.revert(local.topology);
        if (!job.cacheKey.empty())
          store->put(job.cacheKey, static_cast<uint8_t>(job.verdict ? 1 : 0), 1);
      },
      [&](size_t j, const JobOutcome& outcome) {
        jobs[j].state = outcome.succeeded ? 1 : 2;
        commitReady();
      });
  if (!commitComplete()) {
    throw std::runtime_error("sweepKFailures: job " +
                             runner.id(scenarios[cursor].job) +
                             " exhausted its retry budget");
  }

  // --- accounting -----------------------------------------------------------
  out.stats.evaluated = report.succeeded;
  out.stats.retries = report.retries;
  out.stats.workerModelDeepBytes = baseModel.approxDeepBytes();
  out.stats.workerModelPeakBytes = peakWorkerBytes.load();
  obs::MetricsRegistry& metrics = tel.metrics();
  metrics.counter("sweep.scenarios.enumerated").add(out.stats.enumerated);
  metrics.counter("sweep.scenarios.pruned").add(out.stats.pruned);
  metrics.counter("sweep.scenarios.deduped").add(out.stats.deduped);
  metrics.counter("sweep.scenarios.committed").add(result.scenariosChecked);
  metrics.counter("sweep.jobs.scheduled").add(scheduled);
  metrics.counter("sweep.counterexamples").add(result.counterexamples.size());
  journal.sweepResult(kPhase, result.scenariosChecked,
                      result.counterexamples.size(), out.stats.cacheHits,
                      out.stats.retries);
  sweepSpan.finish();
  journal.phaseEnd(kPhase, sweepSpan.seconds());
  tel.log().info(
      "sweep.done",
      {{"enumerated", std::to_string(out.stats.enumerated)},
       {"pruned", std::to_string(out.stats.pruned)},
       {"deduped", std::to_string(out.stats.deduped)},
       {"scheduled", std::to_string(out.stats.scheduled)},
       {"cache_hits", std::to_string(out.stats.cacheHits)},
       {"committed", std::to_string(result.scenariosChecked)},
       {"counterexamples", std::to_string(result.counterexamples.size())}});
  return out;
}

}  // namespace hoyan::sweep
