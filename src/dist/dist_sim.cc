#include "dist/dist_sim.h"

#include "dist/job_runner.h"
#include "obs/provenance.h"
#include "sim/local_routes.h"

#include <algorithm>
#include <random>

namespace hoyan {
namespace {

// The names one dist phase ("route" or "traffic") reports its subtasks under.
JobNames subtaskNames(const std::string& phase) {
  return JobNames{
      .phase = phase,
      .execPhase = phase + ".exec",
      .span = phase + ".subtask",
      .category = "dist",
      .queueDepth = {"mq.depth", "Subtask messages queued, not yet claimed."},
      .queueWait = {"mq.wait_seconds", "Seconds a subtask message waited in the queue."},
      .retries = {"dist.retries", "Subtask attempts re-enqueued after a worker crash."},
      .completed = {"dist.subtasks.completed", ""},
      .crashed = {"dist.subtasks.crashed", ""},
      .exhausted = {"dist.subtask_exhausted", ""},
      .seconds = {"dist.subtask_seconds", ""},
      .durationMs = {"dist.subtask_duration_ms." + phase, ""},
  };
}

JobPolicy subtaskPolicy(const DistSimOptions& options) {
  return JobPolicy{options.workers, options.maxAttempts,
                   options.workerFailureProbability, options.failureSeed};
}

// Records how a queued subtask settled in the status database.
void settleRecord(SubtaskDb& db, const std::string& id, const JobOutcome& outcome) {
  db.update(id, [&](SubtaskRecord& r) {
    r.status = outcome.succeeded ? SubtaskStatus::kSucceeded : SubtaskStatus::kFailed;
    r.attempts = outcome.attempts;
    r.runtimeSeconds = outcome.seconds;
  });
}

// Destination range of a traffic subtask's flows.
std::optional<IpRange> destinationRange(std::span<const Flow> flows) {
  std::optional<IpRange> range;
  for (const Flow& flow : flows) {
    if (!range)
      range = IpRange{flow.dst, flow.dst};
    else
      range->extend(flow.dst);
  }
  return range;
}

// The order a phase splits its inputs in: sorted by `less` under the ordering
// strategy (§3.2, done offline by the input building services), shuffled by
// `shuffleSeed` under the random one. An unchanged input set reuses the
// split-plan cache's sorted copy instead of re-sorting (ordering strategy
// only: the shuffle is seeded per run).
template <typename T, typename Less>
std::shared_ptr<const std::vector<T>> splitOrder(
    std::span<const T> inputs, const DistSimOptions& options, Less less,
    uint64_t shuffleSeed,
    std::shared_ptr<const std::vector<T>> (SplitPlanCache::*cached)(std::span<const T>),
    void (SplitPlanCache::*store)(std::shared_ptr<const std::vector<T>>)) {
  const bool sorted = options.strategy == SplitStrategy::kOrdering;
  SplitPlanCache* cache = sorted ? options.splitCache : nullptr;
  if (cache)
    if (auto hit = (cache->*cached)(inputs)) return hit;
  std::vector<T> ordered(inputs.begin(), inputs.end());
  if (sorted) {
    std::stable_sort(ordered.begin(), ordered.end(), less);
  } else {
    std::mt19937_64 rng(shuffleSeed);
    std::shuffle(ordered.begin(), ordered.end(), rng);
  }
  auto shared = std::make_shared<const std::vector<T>>(std::move(ordered));
  if (cache) (cache->*store)(shared);
  return shared;
}

size_t approxRouteBytes(size_t routes) { return routes * 96; }
size_t approxRibBytes(const NetworkRibs& ribs) { return ribs.routeCount() * 96; }
size_t approxFlowBytes(size_t flows) { return flows * 48; }

}  // namespace

DistributedSimulator::DistributedSimulator(const NetworkModel& model,
                                           DistSimOptions options)
    : model_(model),
      options_(std::move(options)),
      telemetry_(obs::Telemetry::resolve(options_.telemetry)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.routeSubtasks == 0) options_.routeSubtasks = 1;
  if (options_.trafficSubtasks == 0) options_.trafficSubtasks = 1;
  store_ = options_.store ? options_.store : &ownStore_;
  obs::MetricsRegistry& metrics = telemetry_.metrics();
  store_->bindTelemetry(
      &metrics.gauge("store.blobs", "Live blobs in the object store."),
      &metrics.gauge("store.live_bytes", "Bytes held by live object-store blobs."),
      &metrics.counter("store.bytes_read", "Bytes read from the object store."),
      &metrics.counter("store.bytes_written", "Bytes written to the object store."));
}

DistRouteResult DistributedSimulator::runRouteSimulation(
    std::span<const InputRoute> inputs) {
  obs::Telemetry& tel = telemetry_;
  obs::Span taskSpan = tel.tracer().span("route.task", "dist");
  taskSpan.arg("inputs", std::to_string(inputs.size()));
  tel.log().info("route.task.start", {{"inputs", std::to_string(inputs.size())},
                                      {"workers", std::to_string(options_.workers)}});
  DistRouteResult result;
  routeResultKeys_.clear();
  // Master-side provenance sink: the explicit option, else the context's
  // recorder. Subtasks record into private recorders; the master appends
  // them in subtask order below, so the merged event log is identical for
  // every worker count.
  obs::ProvenanceRecorder* prov = options_.routeOptions.provenance
                                      ? options_.routeOptions.provenance
                                      : tel.provenance();
  if (prov && !prov->enabled()) prov = nullptr;
  // Result cache: recording runs participate too. Every executed subtask
  // stores its event log under `<result key>#prov`, so a later
  // hit *replays* the original execution's events at merge time. A hit is
  // only served when a blob recorded under the same filter/caps is resident;
  // otherwise the subtask re-runs (never replaying mismatched events).
  SubtaskResultCache* cache = options_.cache;
  obs::RunJournal& journal = tel.journal();
  const uint64_t provFp =
      prov ? obs::provenanceOptionsFingerprint(prov->options()) : 0;
  // True when serving a hit on `resultKey` would not lose or corrupt this
  // run's provenance. A missing *result* blob is a plain miss, not a bypass.
  const auto provReplayable = [&](const std::string& resultKey) {
    if (!prov) return true;
    if (!store_->contains(resultKey)) return true;
    const std::string provKey = resultKey + "#prov";
    return store_->contains(provKey) &&
           store_->get<obs::RecordedRouteEvents>(provKey)->filterFp == provFp;
  };

  // --- master: prepare subtasks -------------------------------------------
  journal.phaseBegin("route.split");
  obs::Span splitSpan = tel.tracer().span("route.split", "dist");
  // Order by the last IP address of the prefix; keep same-prefix routes
  // adjacent.
  const auto orderedInputs = splitOrder(
      inputs, options_,
      [](const InputRoute& a, const InputRoute& b) {
        const IpAddress lastA = a.route.prefix.lastAddress();
        const IpAddress lastB = b.route.prefix.lastAddress();
        if (!(lastA == lastB)) return lastA < lastB;
        return a.route.prefix < b.route.prefix;
      },
      options_.failureSeed * 7919 + 13, &SplitPlanCache::cachedRouteOrder,
      &SplitPlanCache::storeRouteOrder);
  const std::span<const InputRoute> ordered(*orderedInputs);

  const size_t subtaskCount = std::min(options_.routeSubtasks,
                                       std::max<size_t>(ordered.size(), 1));
  JobRunner jobs(tel, subtaskNames("route"), subtaskPolicy(options_));
  // The split-time cache decision. A hit is served from the store at merge
  // time (a cache read, not sim work): never queued, inputs never uploaded.
  const auto servedFromCache = [&](size_t job, SubtaskRecord& record) {
    if (!cache) return false;
    if (!provReplayable(record.resultKey)) {
      cache->noteBypass();
      jobs.cacheBypass(job, "prov_filter_mismatch", record.resultKey);
      return false;
    }
    if (!cache->lookup(record.resultKey)) {
      jobs.cacheMiss(job, record.resultKey);
      return false;
    }
    jobs.cacheHit(job, record.resultKey);
    record.status = SubtaskStatus::kSucceeded;
    record.attempts = 0;
    record.fromCache = true;
    ++result.cacheHits;
    return true;
  };
  size_t cursor = 0;
  for (size_t i = 0; i < subtaskCount; ++i) {
    const size_t begin = cursor;
    size_t end = std::max(begin, ordered.size() * (i + 1) / subtaskCount);
    if (i + 1 == subtaskCount) end = ordered.size();
    // Keep routes with the same prefix in the same subtask.
    while (end > begin && end < ordered.size() &&
           ordered[end].route.prefix == ordered[end - 1].route.prefix)
      ++end;
    cursor = end;
    if (begin >= end) continue;
    const std::span<const InputRoute> slice(ordered.data() + begin, end - begin);
    SubtaskRecord record;
    record.id = "route-" + std::to_string(jobs.size());
    record.inputKey = options_.keyPrefix + record.id + "/input";
    record.resultKey = options_.keyPrefix + record.id + "/result";
    // Record the address range the subtask's routes cover (§3.2).
    IpRange range{slice.front().route.prefix.firstAddress(),
                  slice.front().route.prefix.lastAddress()};
    for (const InputRoute& input : slice) range.extend(input.route.prefix);
    record.coverage = range;
    if (cache) record.resultKey = cache->routeResultKey(slice, record.coverage);
    const size_t job = jobs.add(record.id);
    if (!servedFromCache(job, record)) {
      store_->put(record.inputKey,
                  std::vector<InputRoute>(slice.begin(), slice.end()),
                  approxRouteBytes(end - begin));
      jobs.enqueue(job);
    }
    db_.upsert(std::move(record));
  }
  // The dedicated local-routes subtask (direct/static/IS-IS).
  const size_t localJob = jobs.add("route-local");
  {
    SubtaskRecord record;
    record.id = "route-local";
    record.resultKey = cache ? cache->localRoutesResultKey()
                             : options_.keyPrefix + record.id + "/result";
    if (!servedFromCache(localJob, record)) jobs.enqueue(localJob);
    db_.upsert(std::move(record));
  }
  splitSpan.arg("subtasks", std::to_string(jobs.size()));
  splitSpan.finish();
  result.splitSeconds = splitSpan.seconds();
  journal.phaseEnd("route.split", splitSpan.seconds());
  tel.metrics().counter("dist.route.subtasks").add(jobs.size());

  // --- workers --------------------------------------------------------------
  std::vector<RouteSimStats> executedStats(jobs.size());  // One writer per job.
  const JobReport report = jobs.run(
      [&](size_t job, int) {
        const auto record = db_.get(jobs.id(job));
        obs::Span executeSpan = tel.tracer().span("route.subtask.execute", "dist");
        NetworkRibs ribs;
        // Private per-subtask recorder (same filter/caps as the master's):
        // concurrent subtasks must not interleave events in a shared sink.
        obs::ProvenanceRecorder subProv(prov ? prov->options()
                                             : obs::ProvenanceOptions{});
        if (job == localJob) {
          installLocalRoutes(model_, ribs, prov ? &subProv : nullptr);
        } else {
          const auto chunk = store_->get<std::vector<InputRoute>>(record->inputKey);
          RouteSimOptions subOptions = options_.routeOptions;
          subOptions.includeLocalRoutes = false;
          subOptions.telemetry = &telemetry_;
          subOptions.provenance = prov ? &subProv : nullptr;
          // Subtask-local selection is provisional (the master re-selects
          // after merging); selection events come from the merged RIBs below.
          subOptions.provenanceSelectionEvents = false;
          RouteSimResult subResult = simulateRoutes(model_, *chunk, subOptions);
          ribs = std::move(subResult.ribs);
          executedStats[job] = subResult.stats;
        }
        executeSpan.finish();
        obs::Span uploadSpan = tel.tracer().span("route.subtask.upload", "dist");
        const size_t resultBytes = approxRibBytes(ribs);
        store_->put(record->resultKey, std::move(ribs), resultBytes);
        size_t provBytes = 0;
        if (prov) {
          // The event log rides along under `<result key>#prov` so a future
          // recording run's hit replays these exact events.
          obs::RecordedRouteEvents log{provFp, subProv.snapshot()};
          provBytes = log.payloadBytes();
          store_->put(record->resultKey + "#prov", std::move(log), provBytes);
        }
        if (cache) {
          // Replayable stats ride along so a future hit merges identically.
          constexpr size_t kStatsBytes = 128;
          store_->put(record->resultKey + "#stats", executedStats[job], kStatsBytes);
          cache->stored(record->resultKey, resultBytes + kStatsBytes + provBytes);
        }
      },
      [&](size_t job, const JobOutcome& outcome) {
        settleRecord(db_, jobs.id(job), outcome);
      });
  result.retries = report.retries;
  result.succeeded = report.exhausted.empty();
  result.failedSubtasks = report.exhausted;

  // --- master: collect results ----------------------------------------------
  journal.phaseBegin("route.merge");
  obs::Span mergeSpan = tel.tracer().span("route.merge", "dist");
  for (size_t job = 0; job < jobs.size(); ++job) {
    const auto record = db_.get(jobs.id(job));
    if (!record || record->status != SubtaskStatus::kSucceeded) continue;
    const auto ribs = store_->get<NetworkRibs>(record->resultKey);
    result.ribs.merge(*ribs);
    if (!record->fromCache) {
      result.stats.add(executedStats[job]);
    } else if (const std::string statsKey = record->resultKey + "#stats";
               store_->contains(statsKey)) {
      // A cache hit replays the stats the original execution stored.
      result.stats.add(*store_->get<RouteSimStats>(statsKey));
    }
    // Ordered provenance merge: append each subtask's event log in subtask-id
    // order (not worker completion order), re-sequencing as we go. Cache hits
    // replay the blob their original execution stored.
    const std::string provKey = record->resultKey + "#prov";
    if (prov && store_->contains(provKey)) {
      prov->append(store_->get<obs::RecordedRouteEvents>(provKey)->events);
    }
    result.subtasks.push_back(SubtaskMetric{record->id, record->runtimeSeconds,
                                            record->attempts, 0, 0,
                                            record->fromCache});
    routeResultKeys_.push_back(record->resultKey);
  }
  dedupeRoutes(result.ribs);
  reselectAll(result.ribs);
  // Authoritative selection events from the merged, re-selected RIBs.
  if (prov) recordSelectionEvents(result.ribs, prov);
  result.ribs.buildForwardingIndex();
  // One master-side kernel event per route phase: per-subtask sums are
  // deterministic (L1-level regex accounting), so the aggregate — and the
  // canonical journal — is byte-identical for any worker count. Cache-served
  // subtasks replay the stats their original execution stored.
  journal.policyKernel("route", result.stats.policy.memoHits,
                       result.stats.policy.memoMisses,
                       result.stats.policy.regexCacheHits,
                       result.stats.policy.regexCacheMisses);
  mergeSpan.finish();
  result.mergeSeconds = mergeSpan.seconds();
  journal.phaseEnd("route.merge", mergeSpan.seconds());
  result.stats.installedRoutes = result.ribs.routeCount();
  result.stats.inputRoutes = inputs.size();
  taskSpan.finish();
  result.elapsedSeconds = taskSpan.seconds();
  tel.log().info("route.task.done",
                 {{"seconds", std::to_string(result.elapsedSeconds)},
                  {"routes", std::to_string(result.stats.installedRoutes)},
                  {"retries", std::to_string(result.retries)},
                  {"succeeded", result.succeeded ? "true" : "false"}});
  return result;
}

DistTrafficResult DistributedSimulator::runTrafficSimulation(
    std::span<const Flow> flows) {
  obs::Telemetry& tel = telemetry_;
  obs::Span taskSpan = tel.tracer().span("traffic.task", "dist");
  taskSpan.arg("flows", std::to_string(flows.size()));
  tel.log().info("traffic.task.start", {{"flows", std::to_string(flows.size())},
                                        {"workers", std::to_string(options_.workers)}});
  DistTrafficResult result;
  const size_t storeReadsBefore = store_->bytesRead();
  // Result cache: traffic subtasks record no provenance events, and with the
  // route phase keeping its content keys under recording (events replay from
  // `#prov` blobs), traffic content keys stay stable too — no bypass needed.
  SubtaskResultCache* cache = options_.cache;
  obs::RunJournal& journal = tel.journal();

  // Snapshot route-subtask coverage for the dependency check; the split loop
  // needs it too when the cache is on (a traffic subtask's content key names
  // exactly the route result files it would load).
  struct RouteFile {
    std::string resultKey;
    std::optional<IpRange> coverage;
    bool isLocal = false;
  };
  std::vector<RouteFile> routeFiles;
  for (const SubtaskRecord& record : db_.all()) {
    if (record.id.rfind("route-", 0) != 0 || record.status != SubtaskStatus::kSucceeded)
      continue;
    routeFiles.push_back(
        RouteFile{record.resultKey, record.coverage, record.id == "route-local"});
  }
  // Dependency pruning (§3.2): a route result file is needed when its
  // recorded coverage overlaps the subtask's destination range. The
  // local-routes file is always needed (nexthop/loopback routes).
  const auto ribNeeded = [&](const RouteFile& file,
                             const std::optional<IpRange>& dstRange) {
    return options_.loadAllRibs || file.isLocal || !file.coverage || !dstRange ||
           dstRange->overlaps(*file.coverage);
  };

  // Per-subtask outputs (one writer per job), merged by the master in
  // subtask order after the workers join: float addition is not associative,
  // so merging in worker *completion* order made link loads depend on the
  // worker count.
  std::vector<TrafficSubtaskResult> outputs;

  // --- master: prepare subtasks ----------------------------------------------
  journal.phaseBegin("traffic.split");
  obs::Span splitSpan = tel.tracer().span("traffic.split", "dist");
  // Order by destination address.
  const auto orderedFlows = splitOrder(
      flows, options_, [](const Flow& a, const Flow& b) { return a.dst < b.dst; },
      options_.failureSeed * 104729 + 41, &SplitPlanCache::cachedFlowOrder,
      &SplitPlanCache::storeFlowOrder);
  const std::span<const Flow> ordered(*orderedFlows);

  const size_t subtaskCount =
      std::min(options_.trafficSubtasks, std::max<size_t>(ordered.size(), 1));
  JobRunner jobs(tel, subtaskNames("traffic"), subtaskPolicy(options_));
  for (size_t i = 0; i < subtaskCount; ++i) {
    const size_t begin = ordered.size() * i / subtaskCount;
    const size_t end = ordered.size() * (i + 1) / subtaskCount;
    if (begin >= end) continue;
    const std::span<const Flow> slice(ordered.data() + begin, end - begin);
    SubtaskRecord record;
    record.id = "traffic-" + std::to_string(jobs.size());
    record.inputKey = options_.keyPrefix + record.id + "/input";
    record.resultKey = options_.keyPrefix + record.id + "/result";
    const size_t job = jobs.add(record.id);
    TrafficSubtaskResult& output = outputs.emplace_back();
    if (cache) {
      const std::optional<IpRange> dstRange = destinationRange(slice);
      std::vector<std::string> ribKeys;
      for (const RouteFile& file : routeFiles)
        if (ribNeeded(file, dstRange)) ribKeys.push_back(file.resultKey);
      record.resultKey = cache->trafficResultKey(slice, ribKeys);
      if (cache->lookup(record.resultKey)) {
        jobs.cacheHit(job, record.resultKey);
        output = *store_->get<TrafficSubtaskResult>(record.resultKey);
        record.status = SubtaskStatus::kSucceeded;
        record.attempts = 0;
        record.fromCache = true;
        db_.upsert(std::move(record));
        ++result.cacheHits;
        continue;
      }
      jobs.cacheMiss(job, record.resultKey);
    }
    store_->put(record.inputKey, std::vector<Flow>(slice.begin(), slice.end()),
                approxFlowBytes(end - begin));
    db_.upsert(std::move(record));
    jobs.enqueue(job);
  }

  splitSpan.arg("subtasks", std::to_string(jobs.size()));
  splitSpan.finish();
  result.splitSeconds = splitSpan.seconds();
  journal.phaseEnd("traffic.split", splitSpan.seconds());
  tel.metrics().counter("dist.traffic.subtasks").add(jobs.size());

  // --- workers -----------------------------------------------------------------
  obs::Counter& ribFilesLoaded = tel.metrics().counter("dist.traffic.rib_files_loaded");
  obs::Counter& ribFilesSkipped = tel.metrics().counter("dist.traffic.rib_files_skipped");
  const JobReport report = jobs.run(
      [&](size_t job, int) {
        const auto record = db_.get(jobs.id(job));
        const auto chunk = store_->get<std::vector<Flow>>(record->inputKey);
        const std::optional<IpRange> dstRange = destinationRange(*chunk);
        obs::Span loadSpan = tel.tracer().span("traffic.subtask.load_ribs", "dist");
        NetworkRibs ribs;
        size_t loaded = 0;
        for (const RouteFile& file : routeFiles) {
          if (!ribNeeded(file, dstRange)) continue;
          const auto part = store_->get<NetworkRibs>(file.resultKey);
          ribs.merge(*part);
          ++loaded;
        }
        dedupeRoutes(ribs);
        reselectAll(ribs);
        ribs.buildForwardingIndex();
        loadSpan.arg("loaded", std::to_string(loaded));
        loadSpan.finish();
        ribFilesLoaded.add(loaded);
        ribFilesSkipped.add(routeFiles.size() - loaded);
        obs::Span executeSpan = tel.tracer().span("traffic.subtask.execute", "dist");
        TrafficSimOptions subOptions = options_.trafficOptions;
        subOptions.telemetry = &telemetry_;
        const TrafficSimResult subResult =
            simulateTraffic(model_, ribs, *chunk, subOptions);
        executeSpan.finish();
        TrafficSubtaskResult& output = outputs[job];
        output = TrafficSubtaskResult{subResult.linkLoads, subResult.stats, loaded,
                                      routeFiles.size()};
        obs::Span uploadSpan = tel.tracer().span("traffic.subtask.upload", "dist");
        const size_t resultBytes = output.linkLoads.size() * 24 + 128;
        store_->put(record->resultKey, output, resultBytes);
        if (cache) cache->stored(record->resultKey, resultBytes);
      },
      [&](size_t job, const JobOutcome& outcome) {
        settleRecord(db_, jobs.id(job), outcome);
      });
  result.retries = report.retries;
  result.succeeded = report.exhausted.empty();
  result.failedSubtasks = report.exhausted;

  // --- master: merge in fixed subtask order (determinism) -------------------
  journal.phaseBegin("traffic.merge");
  obs::Span mergeSpan = tel.tracer().span("traffic.merge", "dist");
  for (size_t job = 0; job < jobs.size(); ++job) {
    const auto record = db_.get(jobs.id(job));
    const TrafficSubtaskResult& output = outputs[job];
    if (record->status == SubtaskStatus::kSucceeded) {
      result.linkLoads.merge(output.linkLoads);
      result.stats.add(output.stats);
    }
    result.subtasks.push_back(SubtaskMetric{record->id, record->runtimeSeconds,
                                            record->attempts, output.ribFilesLoaded,
                                            output.ribFilesTotal, record->fromCache});
  }
  mergeSpan.finish();
  journal.phaseEnd("traffic.merge", mergeSpan.seconds());
  result.storeBytesRead = store_->bytesRead() - storeReadsBefore;
  taskSpan.finish();
  result.elapsedSeconds = taskSpan.seconds();
  tel.log().info("traffic.task.done",
                 {{"seconds", std::to_string(result.elapsedSeconds)},
                  {"links", std::to_string(result.linkLoads.size())},
                  {"retries", std::to_string(result.retries)},
                  {"succeeded", result.succeeded ? "true" : "false"}});
  return result;
}

}  // namespace hoyan
