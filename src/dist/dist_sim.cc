#include "dist/dist_sim.h"

#include "dist/job_runner.h"
#include "obs/provenance.h"
#include "sim/local_routes.h"

#include <algorithm>
#include <random>
#include <stdexcept>

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

// One row of a phase's job table, indexed by the JobRunner job index. The
// master fills it at split time and records in it how each queued job
// settled (the executor's settle callback is serialized); a worker touches
// only its own job's row.
struct JobRecord {
  SubtaskMetric metric;
  std::string inputKey;  // Transient input blob; empty when served from cache.
  std::string resultKey;
  bool succeeded = false;

  void settle(const JobOutcome& outcome) {
    succeeded = outcome.succeeded;
    metric.attempts = outcome.attempts;
    metric.seconds = outcome.seconds;
  }
  // Served from the result cache at split time: never queued.
  void serveFromCache() {
    succeeded = true;
    metric.attempts = 0;
    metric.fromCache = true;
  }
};

struct RouteJob : JobRecord {
  std::optional<IpRange> coverage;
  bool local = false;
};

struct TrafficJob : JobRecord {
  std::vector<std::string> ribKeys;  // Route files it loads, in subtask order.
  TrafficSubtaskResult output;
};

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

// The split order (§3.2): routes by the last address of their prefix, then
// by prefix, so same-prefix routes are adjacent; flows by destination.
constexpr auto routeSplitLess = [](const InputRoute& a, const InputRoute& b) {
  const IpAddress lastA = a.route.prefix.lastAddress();
  const IpAddress lastB = b.route.prefix.lastAddress();
  if (!(lastA == lastB)) return lastA < lastB;
  return a.route.prefix < b.route.prefix;
};
constexpr auto flowSplitLess = [](const Flow& a, const Flow& b) { return a.dst < b.dst; };

// The sequence a phase splits. Under the ordering strategy: `inputs` itself
// when already in split order (as Hoyan registers them), else a sorted copy
// held in `copy`. Under the random one: a copy shuffled by `shuffleSeed`.
template <typename T, typename Less>
std::span<const T> splitOrder(std::span<const T> inputs, SplitStrategy strategy, Less less,
                              uint64_t shuffleSeed, std::vector<T>& copy) {
  const bool ordering = strategy == SplitStrategy::kOrdering;
  if (ordering && std::is_sorted(inputs.begin(), inputs.end(), less)) return inputs;
  copy.assign(inputs.begin(), inputs.end());
  if (ordering) {
    std::stable_sort(copy.begin(), copy.end(), less);
  } else {
    std::mt19937_64 rng(shuffleSeed);
    std::shuffle(copy.begin(), copy.end(), rng);
  }
  return copy;
}

size_t approxRouteBytes(size_t routes) { return routes * 96; }
// A route result blob as read: its routes, its stats and its recorded events.
size_t approxResultBytes(const RouteSubtaskResult& result) {
  constexpr size_t kStatsBytes = 128;
  return approxRouteBytes(result.ribs.routeCount()) + kStatsBytes +
         (result.events ? result.events->payloadBytes() : 0);
}
// What the local-routes blob holds beyond that, used in place by traffic
// subtasks: its LPM and prefix-union tries. 0 for other route files.
size_t approxFibBytes(const RouteSubtaskResult& result) {
  if (!result.prefixes) return 0;
  size_t bytes = result.prefixes->approxBytes();
  for (const auto& [deviceId, deviceRib] : result.ribs.devices())
    for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) bytes += vrfRib.indexBytes();
  return bytes;
}
size_t approxFlowBytes(size_t flows) { return flows * 48; }

}  // namespace

void sortForSplit(std::vector<InputRoute>& inputs) {
  std::stable_sort(inputs.begin(), inputs.end(), routeSplitLess);
}

void sortForSplit(std::vector<Flow>& flows) {
  std::stable_sort(flows.begin(), flows.end(), flowSplitLess);
}

DistributedSimulator::DistributedSimulator(const NetworkModel& model,
                                           DistSimOptions options)
    : model_(model),
      options_(std::move(options)),
      telemetry_(obs::Telemetry::resolve(options_.telemetry)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.routeSubtasks == 0) options_.routeSubtasks = 1;
  if (options_.trafficSubtasks == 0) options_.trafficSubtasks = 1;
  store_ = options_.cache ? &options_.cache->store() : &ownStore_;
  store_->bindTelemetry(telemetry_.metrics());
}

std::vector<std::string> DistributedSimulator::routeResultKeys() const {
  std::vector<std::string> keys;
  keys.reserve(routeFiles_.size());
  for (const RouteFile& file : routeFiles_) keys.push_back(file.resultKey);
  return keys;
}

DistRouteResult DistributedSimulator::runRouteSimulation(
    std::span<const InputRoute> inputs) {
  obs::Telemetry& tel = telemetry_;
  obs::Span taskSpan = tel.tracer().span("route.task", "dist");
  taskSpan.arg("inputs", std::to_string(inputs.size()));
  tel.log().info("route.task.start", {{"inputs", std::to_string(inputs.size())},
                                      {"workers", std::to_string(options_.workers)}});
  DistRouteResult result;
  routeFiles_.clear();
  // Master-side provenance sink: the explicit option, else the context's
  // recorder. Subtasks record into private recorders; the master appends
  // them in subtask order below, so the merged event log is identical for
  // every worker count.
  obs::ProvenanceRecorder* prov = options_.routeOptions.provenance
                                      ? options_.routeOptions.provenance
                                      : tel.provenance();
  if (prov && !prov->enabled()) prov = nullptr;
  // Result cache: recording runs participate too. Every executed subtask
  // stores its event log in its result blob, so a later hit *replays* the
  // original execution's events at merge time. A recording run is served a
  // hit only when the blob's events were recorded under the same
  // filter/caps; otherwise the subtask re-runs and overwrites the blob.
  SubtaskResultCache* cache = options_.cache;
  const std::string transient = cache ? cache->transientPrefix() : "";
  obs::RunJournal& journal = tel.journal();
  const uint64_t provFp =
      prov ? obs::provenanceOptionsFingerprint(prov->options()) : 0;
  // True when serving a hit on `resultKey` would not lose or corrupt this
  // run's provenance. A missing result blob is a plain miss, not a bypass.
  const auto provReplayable = [&](const std::string& resultKey) {
    if (!prov || !store_->contains(resultKey)) return true;
    const auto& events = store_->get<RouteSubtaskResult>(resultKey)->events;
    return events && events->filterFp == provFp;
  };

  // --- master: prepare subtasks -------------------------------------------
  journal.phaseBegin("route.split");
  obs::Span splitSpan = tel.tracer().span("route.split", "dist");
  std::vector<InputRoute> copy;
  const std::span<const InputRoute> ordered = splitOrder(
      inputs, options_.strategy, routeSplitLess, options_.failureSeed * 7919 + 13, copy);

  const size_t subtaskCount = std::min(options_.routeSubtasks,
                                       std::max<size_t>(ordered.size(), 1));
  JobRunner runner(tel, subtaskNames("route"), subtaskPolicy(options_));
  std::vector<RouteJob> jobs;
  jobs.reserve(subtaskCount + 1);
  // Adds a job to the table with the split-time cache decision. A hit is
  // served from the store at merge time (a cache read, not sim work): never
  // queued, inputs never uploaded.
  const auto addJob = [&](const std::string& id, std::string resultKey) {
    const size_t job = runner.add(id);
    RouteJob& record = jobs.emplace_back();
    record.metric.id = id;
    record.resultKey = std::move(resultKey);
    if (!cache) return job;
    if (!provReplayable(record.resultKey)) {
      cache->noteBypass();
      runner.cacheBypass(job, "prov_filter_mismatch", record.resultKey);
    } else if (!cache->lookup(record.resultKey)) {
      runner.cacheMiss(job, record.resultKey);
    } else {
      runner.cacheHit(job, record.resultKey);
      record.serveFromCache();
      ++result.cacheHits;
    }
    return job;
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
    const std::string id = "route-" + std::to_string(runner.size());
    // Record the address range the subtask's routes cover (§3.2).
    IpRange range{slice.front().route.prefix.firstAddress(),
                  slice.front().route.prefix.lastAddress()};
    for (const InputRoute& input : slice) range.extend(input.route.prefix);
    const size_t job =
        addJob(id, cache ? cache->routeResultKey(slice, range) : transient + id + "/result");
    RouteJob& record = jobs[job];
    record.coverage = range;
    if (record.metric.fromCache) continue;
    record.inputKey = transient + id + "/input";
    store_->put(record.inputKey, std::vector<InputRoute>(slice.begin(), slice.end()),
                approxRouteBytes(slice.size()));
    runner.enqueue(job);
  }
  // The dedicated local-routes subtask (direct/static/IS-IS).
  const size_t localJob = addJob(
      "route-local", cache ? cache->localRoutesResultKey() : transient + "route-local/result");
  jobs[localJob].local = true;
  if (!jobs[localJob].metric.fromCache) runner.enqueue(localJob);
  splitSpan.arg("subtasks", std::to_string(runner.size()));
  splitSpan.finish();
  result.splitSeconds = splitSpan.seconds();
  journal.phaseEnd("route.split", splitSpan.seconds());
  tel.metrics().counter("dist.route.subtasks").add(runner.size());

  // --- workers --------------------------------------------------------------
  const JobReport report = runner.run(
      [&](size_t job, int) {
        const RouteJob& record = jobs[job];
        obs::Span executeSpan = tel.tracer().span("route.subtask.execute", "dist");
        RouteSubtaskResult output;
        // Private per-subtask recorder (same filter/caps as the master's):
        // concurrent subtasks must not interleave events in a shared sink.
        obs::ProvenanceRecorder subProv(prov ? prov->options()
                                             : obs::ProvenanceOptions{});
        if (record.local) {
          installLocalRoutes(model_, output.ribs, prov ? &subProv : nullptr);
          // Forwarding form, built once for every traffic subtask.
          finishRib(output.ribs);
          output.prefixes.emplace(output.ribs);
        } else {
          const auto chunk = store_->get<std::vector<InputRoute>>(record.inputKey);
          RouteSimOptions subOptions = options_.routeOptions;
          subOptions.telemetry = &telemetry_;
          subOptions.provenance = prov ? &subProv : nullptr;
          RouteSimResult subResult = simulateRoutes(model_, *chunk, subOptions);
          output.ribs = std::move(subResult.ribs);
          output.stats = subResult.stats;
        }
        executeSpan.finish();
        obs::Span uploadSpan = tel.tracer().span("route.subtask.upload", "dist");
        if (prov) output.events = obs::RecordedRouteEvents{provFp, subProv.snapshot()};
        const size_t resultBytes = approxResultBytes(output);
        const size_t fibBytes = approxFibBytes(output);
        store_->put(record.resultKey, std::move(output), resultBytes, fibBytes);
        if (cache) cache->stored(record.resultKey, resultBytes + fibBytes);
      },
      [&](size_t job, const JobOutcome& outcome) { jobs[job].settle(outcome); });
  result.retries = report.retries;
  result.succeeded = report.exhausted.empty();
  result.failedSubtasks = report.exhausted;

  // --- master: collect results ----------------------------------------------
  journal.phaseBegin("route.merge");
  obs::Span mergeSpan = tel.tracer().span("route.merge", "dist");
  for (const RouteJob& record : jobs) {
    result.subtasks.push_back(record.metric);
    if (record.succeeded)
      routeFiles_.push_back(RouteFile{record.resultKey, record.coverage, record.local});
  }
  // Stats and provenance come from the result blobs, so a cache hit replays
  // what its original execution stored. Events append in subtask order (not
  // worker completion order), re-sequenced as they go.
  for (const RouteFile& routeFile : routeFiles_) {
    const auto file = store_->get<RouteSubtaskResult>(routeFile.resultKey);
    result.stats.add(file->stats);
    if (prov && file->events) prov->append(file->events->events);
    result.ribs.merge(file->ribs);
  }
  // Selection events come from the merged, re-selected RIBs: a subtask's
  // selection is provisional.
  finishRib(result.ribs, prov);
  // One master-side kernel event per route phase: per-subtask sums are
  // deterministic (L1-level regex accounting), so the aggregate — and the
  // canonical journal — is byte-identical for any worker count.
  journal.policyKernel("route", result.stats.policy.memoHits,
                       result.stats.policy.memoMisses,
                       result.stats.policy.regexCacheHits,
                       result.stats.policy.regexCacheMisses);
  mergeSpan.finish();
  result.mergeSeconds = mergeSpan.seconds();
  journal.phaseEnd("route.merge", mergeSpan.seconds());
  // The traffic phase must not forward over the RIBs of a partial run.
  if (!result.succeeded) routeFiles_.clear();
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
  if (routeFiles_.empty())
    throw std::logic_error(
        "DistributedSimulator: traffic simulation needs a successful route run");
  obs::Telemetry& tel = telemetry_;
  obs::Span taskSpan = tel.tracer().span("traffic.task", "dist");
  taskSpan.arg("flows", std::to_string(flows.size()));
  tel.log().info("traffic.task.start", {{"flows", std::to_string(flows.size())},
                                        {"workers", std::to_string(options_.workers)}});
  DistTrafficResult result;
  const size_t storeReadsBefore = store_->bytesRead();
  // Result cache: traffic subtasks record no provenance events, and the
  // route phase keeps its content keys under recording, so traffic content
  // keys stay stable too — no bypass needed.
  SubtaskResultCache* cache = options_.cache;
  const std::string transient = cache ? cache->transientPrefix() : "";
  obs::RunJournal& journal = tel.journal();

  // Dependency pruning (§3.2): a route result file is needed when its
  // recorded coverage overlaps the subtask's destination range. The
  // local-routes file is always needed (nexthop/loopback routes).
  const auto ribNeeded = [&](const RouteFile& file,
                             const std::optional<IpRange>& dstRange) {
    return options_.loadAllRibs || file.local || !dstRange ||
           dstRange->overlaps(*file.coverage);
  };
  // A successful route run always has the local-routes file.
  const std::string& localKey =
      std::find_if(routeFiles_.begin(), routeFiles_.end(),
                   [](const RouteFile& file) { return file.local; })
          ->resultKey;

  // --- master: prepare subtasks ----------------------------------------------
  journal.phaseBegin("traffic.split");
  obs::Span splitSpan = tel.tracer().span("traffic.split", "dist");
  std::vector<Flow> copy;
  const std::span<const Flow> ordered = splitOrder(
      flows, options_.strategy, flowSplitLess, options_.failureSeed * 104729 + 41, copy);

  const size_t subtaskCount =
      std::min(options_.trafficSubtasks, std::max<size_t>(ordered.size(), 1));
  JobRunner runner(tel, subtaskNames("traffic"), subtaskPolicy(options_));
  std::vector<TrafficJob> jobs;
  jobs.reserve(subtaskCount);
  for (size_t i = 0; i < subtaskCount; ++i) {
    const size_t begin = ordered.size() * i / subtaskCount;
    const size_t end = ordered.size() * (i + 1) / subtaskCount;
    if (begin >= end) continue;
    const std::span<const Flow> slice(ordered.data() + begin, end - begin);
    const size_t job = runner.add("traffic-" + std::to_string(runner.size()));
    TrafficJob& record = jobs.emplace_back();
    record.metric.id = runner.id(job);
    // The route files this subtask loads: named in its content key, read by
    // its worker.
    const std::optional<IpRange> dstRange = destinationRange(slice);
    for (const RouteFile& file : routeFiles_)
      if (ribNeeded(file, dstRange)) record.ribKeys.push_back(file.resultKey);
    record.resultKey = transient + record.metric.id + "/result";
    if (cache) {
      record.resultKey = cache->trafficResultKey(slice, record.ribKeys);
      if (cache->lookup(record.resultKey)) {
        runner.cacheHit(job, record.resultKey);
        record.output = *store_->get<TrafficSubtaskResult>(record.resultKey);
        record.serveFromCache();
        ++result.cacheHits;
        continue;
      }
      runner.cacheMiss(job, record.resultKey);
    }
    record.inputKey = transient + record.metric.id + "/input";
    store_->put(record.inputKey, std::vector<Flow>(slice.begin(), slice.end()),
                approxFlowBytes(slice.size()));
    runner.enqueue(job);
  }

  splitSpan.arg("subtasks", std::to_string(runner.size()));
  splitSpan.finish();
  result.splitSeconds = splitSpan.seconds();
  journal.phaseEnd("traffic.split", splitSpan.seconds());
  tel.metrics().counter("dist.traffic.subtasks").add(runner.size());

  // --- workers -----------------------------------------------------------------
  obs::Counter& ribFilesLoaded = tel.metrics().counter("dist.traffic.rib_files_loaded");
  obs::Counter& ribFilesSkipped = tel.metrics().counter("dist.traffic.rib_files_skipped");
  const JobReport report = runner.run(
      [&](size_t job, int) {
        TrafficJob& record = jobs[job];
        const auto chunk = store_->get<std::vector<Flow>>(record.inputKey);
        obs::Span loadSpan = tel.tracer().span("traffic.subtask.load_ribs", "dist");
        // Fetch every route file. The local-routes file is forwarded over in
        // place; the others are copied into this subtask's own layer.
        std::shared_ptr<const RouteSubtaskResult> local;
        NetworkRibs own;
        size_t copied = 0;
        for (const std::string& key : record.ribKeys) {
          auto file = store_->get<RouteSubtaskResult>(key);
          if (key == localKey) {
            local = std::move(file);
            continue;
          }
          own.merge(file->ribs);
          copied += file->ribs.routeCount();
        }
        copied += foldSharedRoutes(own, local->ribs);
        finishRib(own);
        record.metric.routesMerged = copied;
        const size_t loaded = record.ribKeys.size();
        loadSpan.arg("loaded", std::to_string(loaded));
        loadSpan.finish();
        ribFilesLoaded.add(loaded);
        ribFilesSkipped.add(routeFiles_.size() - loaded);
        obs::Span executeSpan = tel.tracer().span("traffic.subtask.execute", "dist");
        TrafficSimOptions subOptions = options_.trafficOptions;
        subOptions.telemetry = &telemetry_;
        const TrafficSimResult subResult = simulateTraffic(
            model_, ForwardingView(own, local->ribs, *local->prefixes), *chunk, subOptions);
        executeSpan.finish();
        record.output = TrafficSubtaskResult{subResult.linkLoads, subResult.stats, loaded,
                                             routeFiles_.size()};
        obs::Span uploadSpan = tel.tracer().span("traffic.subtask.upload", "dist");
        const size_t resultBytes = record.output.linkLoads.size() * 24 + 128;
        store_->put(record.resultKey, record.output, resultBytes);
        if (cache) cache->stored(record.resultKey, resultBytes);
      },
      [&](size_t job, const JobOutcome& outcome) { jobs[job].settle(outcome); });
  result.retries = report.retries;
  result.succeeded = report.exhausted.empty();
  result.failedSubtasks = report.exhausted;

  // --- master: merge in fixed subtask order (determinism) -------------------
  // Float addition is not associative, so merging in worker *completion*
  // order would make link loads depend on the worker count.
  journal.phaseBegin("traffic.merge");
  obs::Span mergeSpan = tel.tracer().span("traffic.merge", "dist");
  for (TrafficJob& record : jobs) {
    if (record.succeeded) {
      result.linkLoads.merge(record.output.linkLoads);
      result.stats.add(record.output.stats);
    }
    record.metric.ribFilesLoaded = record.output.ribFilesLoaded;
    record.metric.ribFilesTotal = record.output.ribFilesTotal;
    result.subtasks.push_back(std::move(record.metric));
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
