// Incremental verification batch: 50 scoped change plans (the paper's daily
// change-request queue, §6.2) verified end to end, cold (no cache) vs warm
// (incremental engine on, cache seeded by preprocessing). Each plan touches
// one border router with a prefix-scoped policy edit, so the change-impact
// analyzer bounds the dirty range and most route/traffic subtasks are served
// from the content-addressed cache. Reports per-plan timings, the aggregate
// subtask cache hit rate, and the median warm-over-cold speedup; writes a
// JSON artifact for CI.
//
// Flags (also readable from the environment, bench_util-style):
//   --json-out=<file>      JSON artifact path (HOYAN_INCR_JSON, default
//                          incr_batch.json); common BenchJson schema
//                          ({bench, config{}, metrics{}, seconds{}})
//   --incr=off             skip the incremental engine: run the cold pipeline
//                          only (baseline mode; no hit-rate gate)
//   --plans=<n>            corpus size (default 50)
//   --journal-cold=<file>  write the cold pipeline's RunJournal JSONL
//                          (HOYAN_JOURNAL_COLD); feed to `hoyan_inspect diff`
//   --journal-warm=<file>  same for the incremental pipeline
//                          (HOYAN_JOURNAL_WARM)
//
// Exit code: with the engine on, nonzero if the aggregate subtask cache hit
// rate falls below 0.7 — the cache regressing to misses is a correctness
// smell (fingerprint churn), not just a perf one. Wall-clock speedup is
// reported but not gated (machine-dependent).
#include <algorithm>
#include <memory>

#include "bench_util.h"
#include "core/hoyan.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

std::string flagValue(const std::string& name, const char* envVar,
                      const std::string& fallback) {
  const std::string value = benchFlag(name, envVar);
  return value.empty() ? fallback : value;
}

// A corpus plan: one border router gains a prefix-scoped local-pref bump on
// its ISP import policy. The touched /24 is inside the generated workload
// pool (100.<isp>.<n>.0/24), so the impact analyzer can bound the dirty
// coverage range to that prefix.
struct CorpusEntry {
  ChangePlan plan;
  IntentSet intents;
  std::string prefix;
};

CorpusEntry makeEntry(size_t i, const WanSpec& wan, const WorkloadSpec& workload) {
  const size_t region = i % wan.regions;
  const size_t ispCount =
      wan.regions * wan.bordersPerRegion * wan.ispsPerBorder;
  const size_t isp = i % std::min<size_t>(ispCount, 0x7f);
  const size_t n = i % std::min<size_t>(workload.prefixesPerIsp, 256);
  CorpusEntry entry;
  entry.prefix = "100." + std::to_string(isp) + "." + std::to_string(n) + ".0/24";
  entry.plan.name = "plan-" + std::to_string(i);
  entry.plan.commands =
      "device BR-" + std::to_string(region) + "-0\n" +
      "ip-prefix LP-INCR-" + std::to_string(i) + " index 10 permit " +
      entry.prefix + "\n" +
      "route-policy ISP-IN-" + std::to_string(region) + " node " +
      std::to_string(800 + i) + " permit\n" +
      " match ip-prefix LP-INCR-" + std::to_string(i) + "\n" +
      " apply local-pref " + std::to_string(120 + i % 50) + "\n";
  entry.intents.rclIntents = {"not prefix = " + entry.prefix + " => PRE = POST"};
  entry.intents.maxLinkUtilization = 5.0;  // Keeps the traffic phase in play.
  return entry;
}

}  // namespace

int main() {
  const bool incremental = flagValue("incr", "HOYAN_INCR", "on") != "off";
  const std::string jsonPath =
      flagValue("json-out", "HOYAN_INCR_JSON", "incr_batch.json");
  const size_t planCount =
      std::stoul(flagValue("plans", "HOYAN_INCR_PLANS", "50"));
  const std::string journalColdPath = benchFlag("journal-cold", "HOYAN_JOURNAL_COLD");
  const std::string journalWarmPath = benchFlag("journal-warm", "HOYAN_JOURNAL_WARM");

  WanSpec wan;
  wan.regions = 4;
  wan.coresPerRegion = 3;
  wan.bordersPerRegion = 2;
  wan.dcsPerRegion = 2;
  wan.ispsPerBorder = 2;
  wan.seed = 42;
  WorkloadSpec workload;
  workload.prefixesPerIsp = 96;
  workload.prefixesPerDc = 24;
  workload.attrGroupSize = 1;  // One EC per prefix: maximal propagation work.
  // v4-only on purpose: some generated vendors carry the §6.1(b) VSB where a
  // v4 prefix list matches every v6 route, so a v4 list edit legitimately
  // dirties the whole v6 space — correct, but it would defeat the scoped-
  // corpus premise this benchmark measures.
  workload.v6Share = 0.0;
  workload.ispPathsPerPrefix = 8;  // Competing announcements: more sim work
                                   // per best route (rib rows unchanged).
  workload.seed = 7;

  const GeneratedWan generated = generateWan(wan);
  const std::vector<InputRoute> inputs = generateInputRoutes(generated, workload);
  constexpr size_t kFlowCount = 200000;
  const std::vector<Flow> flows = generateFlows(generated, workload, kFlowCount);

  DistSimOptions simOptions;
  simOptions.workers = 4;
  simOptions.routeSubtasks = 96;   // Fine chunks keep a miss's re-run small.
  simOptions.trafficSubtasks = 64;

  // Per-instance telemetry so the cold and warm pipelines record into
  // separate journals — the pair is what `hoyan_inspect diff` consumes.
  const auto makeTelemetry = [](const std::string& journalPath) {
    if (journalPath.empty()) return std::unique_ptr<obs::Telemetry>();
    obs::TelemetryOptions options;
    options.journal = true;
    return std::make_unique<obs::Telemetry>(options);
  };
  const auto coldTelemetry = makeTelemetry(journalColdPath);
  const auto warmTelemetry = makeTelemetry(journalWarmPath);

  const auto makeHoyan = [&](bool withEngine, obs::Telemetry* telemetry) {
    auto hoyan = std::make_unique<Hoyan>(generated.topology, generated.configs);
    hoyan->setInputRoutes(inputs);
    hoyan->setInputFlows(flows);
    hoyan->setSimulationOptions(simOptions);
    if (telemetry) hoyan->setTelemetry(telemetry);
    if (withEngine) hoyan->enableIncremental();
    Stopwatch stopwatch;
    hoyan->preprocess();
    std::printf("preprocess (%s): %.3gs\n", withEngine ? "incremental" : "cold",
                stopwatch.seconds());
    return hoyan;
  };

  auto cold = makeHoyan(false, coldTelemetry.get());
  std::unique_ptr<Hoyan> warm;
  if (incremental) warm = makeHoyan(true, warmTelemetry.get());

  std::vector<CorpusEntry> corpus;
  for (size_t i = 0; i < planCount; ++i)
    corpus.push_back(makeEntry(i, wan, workload));

  struct PlanTiming {
    std::string name;
    double coldSeconds = 0;
    double warmSeconds = 0;
    double coldRoute = 0, coldTraffic = 0, coldVerify = 0;
    double warmRoute = 0, warmTraffic = 0, warmVerify = 0;
    size_t hits = 0;
    size_t subtasks = 0;
    bool satisfied = true;
  };
  std::vector<PlanTiming> timings;
  size_t totalHits = 0, totalSubtasks = 0, unsatisfied = 0;
  for (const CorpusEntry& entry : corpus) {
    PlanTiming timing;
    timing.name = entry.plan.name;
    {
      Stopwatch stopwatch;
      const ChangeVerificationResult result =
          cold->verifyChange(entry.plan, entry.intents);
      timing.coldSeconds = stopwatch.seconds();
      timing.coldRoute = result.routeSimSeconds;
      timing.coldTraffic = result.trafficSimSeconds;
      timing.coldVerify = result.verifySeconds;
      timing.satisfied = result.satisfied();
    }
    if (warm) {
      Stopwatch stopwatch;
      const ChangeVerificationResult result =
          warm->verifyChange(entry.plan, entry.intents);
      timing.warmSeconds = stopwatch.seconds();
      timing.warmRoute = result.routeSimSeconds;
      timing.warmTraffic = result.trafficSimSeconds;
      timing.warmVerify = result.verifySeconds;
      timing.satisfied = timing.satisfied && result.satisfied();
      timing.hits = result.routeSubtaskCacheHits + result.trafficSubtaskCacheHits;
      timing.subtasks = result.routeSubtaskCount + result.trafficSubtaskCount;
      totalHits += timing.hits;
      totalSubtasks += timing.subtasks;
      if (timings.empty())
        std::printf("first plan: %s | route hits %zu/%zu, traffic hits %zu/%zu\n",
                    result.impactSummary.c_str(), result.routeSubtaskCacheHits,
                    result.routeSubtaskCount, result.trafficSubtaskCacheHits,
                    result.trafficSubtaskCount);
    }
    if (!timing.satisfied) ++unsatisfied;
    timings.push_back(timing);
  }

  // Two speedup views per plan: the simulation phases (route + traffic — the
  // part the subtask cache accelerates) and end to end. Intent verification
  // builds the same global RIB warm and cold, so it is the end-to-end
  // number's Amdahl floor.
  std::vector<double> simSpeedups, e2eSpeedups;
  double coldTotal = 0, warmTotal = 0;
  for (const PlanTiming& timing : timings) {
    coldTotal += timing.coldSeconds;
    warmTotal += timing.warmSeconds;
    if (!warm) continue;
    const double coldSim = timing.coldRoute + timing.coldTraffic;
    const double warmSim = timing.warmRoute + timing.warmTraffic;
    if (warmSim > 0) simSpeedups.push_back(coldSim / warmSim);
    if (timing.warmSeconds > 0)
      e2eSpeedups.push_back(timing.coldSeconds / timing.warmSeconds);
  }
  std::sort(simSpeedups.begin(), simSpeedups.end());
  std::sort(e2eSpeedups.begin(), e2eSpeedups.end());
  const double medianSimSpeedup =
      simSpeedups.empty() ? 0 : simSpeedups[simSpeedups.size() / 2];
  const double medianE2eSpeedup =
      e2eSpeedups.empty() ? 0 : e2eSpeedups[e2eSpeedups.size() / 2];
  const double hitRate =
      totalSubtasks == 0 ? 0 : static_cast<double>(totalHits) / totalSubtasks;

  std::vector<std::vector<std::string>> rows = {
      {"plan", "cold (s)", "warm (s)", "sim speedup", "e2e speedup", "cache hits"}};
  for (size_t i = 0; i < timings.size(); i += std::max<size_t>(timings.size() / 10, 1))
    rows.push_back(
        {timings[i].name, fmt(timings[i].coldSeconds),
         warm ? fmt(timings[i].warmSeconds) : "-",
         warm && timings[i].warmRoute + timings[i].warmTraffic > 0
             ? fmt((timings[i].coldRoute + timings[i].coldTraffic) /
                   (timings[i].warmRoute + timings[i].warmTraffic))
             : "-",
         warm && timings[i].warmSeconds > 0
             ? fmt(timings[i].coldSeconds / timings[i].warmSeconds)
             : "-",
         warm ? std::to_string(timings[i].hits) + "/" +
                    std::to_string(timings[i].subtasks)
              : "-"});
  printTable("Incremental batch — sampled plans (of " +
                 std::to_string(timings.size()) + ")",
             rows);
  if (warm)
    printCdf("Warm-over-cold simulation speedup CDF", simSpeedups, "x");
  double coldRoute = 0, coldTraffic = 0, coldVerify = 0;
  double warmRoute = 0, warmTraffic = 0, warmVerify = 0;
  for (const PlanTiming& timing : timings) {
    coldRoute += timing.coldRoute;
    coldTraffic += timing.coldTraffic;
    coldVerify += timing.coldVerify;
    warmRoute += timing.warmRoute;
    warmTraffic += timing.warmTraffic;
    warmVerify += timing.warmVerify;
  }
  printTable("Phase totals across the corpus",
             {{"phase", "cold (s)", "warm (s)"},
              {"route sim", fmt(coldRoute), warm ? fmt(warmRoute) : "-"},
              {"traffic sim", fmt(coldTraffic), warm ? fmt(warmTraffic) : "-"},
              {"intent verify", fmt(coldVerify), warm ? fmt(warmVerify) : "-"},
              {"other (parse/model/merge)",
               fmt(coldTotal - coldRoute - coldTraffic - coldVerify),
               warm ? fmt(warmTotal - warmRoute - warmTraffic - warmVerify)
                    : "-"}});
  std::printf("\n%zu plans; cold total %.3gs", timings.size(), coldTotal);
  if (warm)
    std::printf(", warm total %.3gs, median sim speedup %.3gx, "
                "median e2e speedup %.3gx, "
                "subtask cache hit rate %.1f%% (%zu/%zu), "
                "intent verify %.3gs cold -> %.3gs warm",
                warmTotal, medianSimSpeedup, medianE2eSpeedup, hitRate * 100,
                totalHits, totalSubtasks, coldVerify, warmVerify);
  std::printf("; %zu unsatisfied (expect 0)\n", unsatisfied);

  BenchJson artifact("incr_batch");
  artifact.config("incremental", incremental ? "on" : "off");
  artifact.config("plans", static_cast<double>(timings.size()));
  artifact.config("workers", static_cast<double>(simOptions.workers));
  artifact.config("route_subtasks", static_cast<double>(simOptions.routeSubtasks));
  artifact.config("traffic_subtasks", static_cast<double>(simOptions.trafficSubtasks));
  artifact.config("flows", static_cast<double>(kFlowCount));
  artifact.metric("median_sim_speedup", medianSimSpeedup);
  artifact.metric("median_e2e_speedup", medianE2eSpeedup);
  artifact.metric("cache_hit_rate", hitRate);
  artifact.metric("cache_hits", static_cast<double>(totalHits));
  artifact.metric("cache_lookups", static_cast<double>(totalSubtasks));
  artifact.metric("unsatisfied", static_cast<double>(unsatisfied));
  // The cold route phase also lands in metrics so perf trajectories that only
  // read the metrics section (the policy-kernel work tracks it) see it.
  artifact.metric("cold_route_seconds", coldRoute);
  artifact.seconds("cold_total", coldTotal);
  artifact.seconds("warm_total", warmTotal);
  artifact.seconds("cold_route", coldRoute);
  artifact.seconds("warm_route", warmRoute);
  artifact.seconds("cold_traffic", coldTraffic);
  artifact.seconds("warm_traffic", warmTraffic);
  artifact.seconds("cold_verify", coldVerify);
  artifact.seconds("warm_verify", warmVerify);
  if (obs::writeFile(jsonPath, artifact.str()))
    std::printf("json -> %s\n", jsonPath.c_str());
  else
    std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());

  const auto writeJournal = [](const std::string& path, obs::Telemetry* telemetry) {
    if (path.empty() || !telemetry) return;
    if (obs::writeFile(path, telemetry->journal().toJsonl()))
      std::printf("journal -> %s\n", path.c_str());
    else
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
  };
  writeJournal(journalColdPath, coldTelemetry.get());
  writeJournal(journalWarmPath, warmTelemetry.get());

  if (unsatisfied > 0) return 1;
  if (incremental && hitRate < 0.7) {
    std::fprintf(stderr,
                 "FAIL: cache hit rate %.3f below the 0.7 floor — fingerprints "
                 "are churning or the impact analyzer over-dirties\n",
                 hitRate);
    return 1;
  }
  return 0;
}
