// Distributed k-failure sweep vs the serial oracle (§6.2 fault-tolerance
// checking): one reachability property checked under every failure set of at
// most k links, three ways — the serial `checkKFailures` reference (one deep
// copy + centralized simulation per scenario), a cold sweep (impact-pruned,
// deduped, fanned out over worker threads, verdict cache filling), and a warm
// sweep (every surviving job served from the cas/k verdict cache). All three
// must produce byte-identical results; the bench exits nonzero if they do
// not, making it a differential test as well as a perf probe.
//
// A fourth run states the same scope as an RCL intent and lets
// sweep::deriveHints compute the pruning hints from its guard, reporting the
// derived prune rate plus the copy-on-write worker-model accounting (peak
// materialized bytes vs the deep-copy footprint) against its own serial
// baseline.
//
// Flags (also readable from the environment, bench_util-style):
//   --json-out=<file>     BenchJson artifact (HOYAN_BENCH_JSON, default
//                         kfailure_sweep.json): scenarios/sec, prune rate,
//                         input routes per job, local routes installed,
//                         cache hit rate, speedups vs serial
//   --journal-out=<file>  RunJournal JSONL for the preprocess + sweep runs
//                         (HOYAN_JOURNAL_OUT, written by the bench_util
//                         observability hook's global context);
//                         `hoyan_inspect` reads it
//   --workers=<n>         sweep worker threads (default 6)
//   --k=<n>               failure-set size bound (default 2)
//   --serial=off          skip the serial oracle (quick mode: no speedup or
//                         identity numbers, cold vs warm only)
//   --serve=<port>        live status server (bench_util ObservabilityHook):
//                         watch the sweep's subtask progress in hoyan_top
//
// Exit code: nonzero on any verdict/counterexample divergence between the
// three runs, or when the warm sweep misses the verdict cache.
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "rcl/global_rib.h"
#include "rcl/parser.h"
#include "rcl/verify.h"

using namespace hoyan;
using namespace hoyan::bench;

namespace {

std::string flagValue(const std::string& name, const char* envVar,
                      const std::string& fallback) {
  const std::string value = benchFlag(name, envVar);
  return value.empty() ? fallback : value;
}

// Renders a KFailureResult for byte-level comparison: the scenario count plus
// every counterexample in commit order.
std::string renderResult(const KFailureResult& result) {
  std::string out = "checked=" + std::to_string(result.scenariosChecked);
  for (const FailureSet& failures : result.counterexamples)
    out += "\n" + failures.str();
  return out;
}

}  // namespace

int main() {
  const std::string jsonPath =
      flagValue("json-out", "HOYAN_BENCH_JSON", "kfailure_sweep.json");
  const size_t workers = std::stoul(flagValue("workers", "HOYAN_SWEEP_WORKERS", "6"));
  const int k = std::stoi(flagValue("k", "HOYAN_SWEEP_K", "2"));
  const bool runSerial = flagValue("serial", "HOYAN_SWEEP_SERIAL", "on") != "off";

  // Small on purpose: the serial oracle simulates every scenario from
  // scratch, and k=2 over the link set is quadratic. The sweep's relative
  // numbers (prune rate, hit rate, speedup) are what production-scale runs
  // inherit.
  WanSpec wan;
  wan.regions = 2;
  wan.coresPerRegion = 2;
  wan.bordersPerRegion = 2;
  wan.dcsPerRegion = 1;
  wan.ispsPerBorder = 2;
  wan.seed = 42;
  WorkloadSpec workload;
  workload.prefixesPerIsp = 24;
  workload.prefixesPerDc = 8;
  workload.v6Share = 0;
  workload.seed = 7;

  const GeneratedWan generated = generateWan(wan);
  const std::vector<InputRoute> inputs = generateInputRoutes(generated, workload);

  // No owned telemetry: Hoyan resolves the process global, which the
  // bench_util ObservabilityHook installs (and exports) when --journal-out /
  // --trace-out / --metrics-out / --serve is passed.
  Hoyan hoyan(generated.topology, generated.configs);
  hoyan.setInputRoutes(inputs);
  DistSimOptions simOptions;
  simOptions.workers = workers;
  hoyan.setSimulationOptions(simOptions);
  hoyan.enableIncremental();
  {
    Stopwatch stopwatch;
    hoyan.preprocess();
    std::printf("preprocess: %.3gs (%zu devices, %zu inputs)\n",
                stopwatch.seconds(), generated.topology.devices().size(),
                inputs.size());
  }

  // The property: ISP-0's first /24 stays data-plane reachable from the
  // first core router. Only routes for prefixes inside 100.0.0.0/16 can
  // carry the answer, so every other ISP's access link is inert — that
  // asymmetry is what the pruner exploits.
  const NameId source = generated.cores.front();
  const IpAddress dst = *IpAddress::parse("100.0.0.1");
  const NetworkProperty property = [&](const NetworkModel& degraded,
                                       const NetworkRibs& ribs) {
    return dataPlaneReachable(degraded, ribs, source, dst);
  };
  KFailureOptions failure;
  failure.k = k;
  failure.maxCounterexamples = 100000;  // Effectively uncapped: stable counts.
  sweep::SweepHints hints;
  hints.cacheId = "bench-reach-core0-100.0.0.1";
  hints.relevantPrefixes = {*Prefix::parse("100.0.0.0/16")};
  hints.relevantDevices = {source};

  double serialSeconds = 0;
  KFailureResult serial;
  if (runSerial) {
    Stopwatch stopwatch;
    serial = hoyan.checkFaultToleranceSerial(property, failure);
    serialSeconds = stopwatch.seconds();
    std::printf("serial: %zu scenarios, %zu counterexamples, %.3gs (%.3g scenarios/s)\n",
                serial.scenariosChecked, serial.counterexamples.size(),
                serialSeconds,
                serialSeconds > 0 ? serial.scenariosChecked / serialSeconds : 0.0);
  }

  Stopwatch coldWatch;
  const sweep::SweepResult cold = hoyan.sweepFaultTolerance(property, failure, hints);
  const double coldSeconds = coldWatch.seconds();
  Stopwatch warmWatch;
  const sweep::SweepResult warm = hoyan.sweepFaultTolerance(property, failure, hints);
  const double warmSeconds = warmWatch.seconds();

  const auto describe = [](const char* tag, const sweep::SweepResult& result,
                           double seconds) {
    std::printf("%s: %zu scenarios (%zu pruned, %zu deduped) -> %zu jobs of "
                "%zu inputs, %zu cache hits, %zu evaluated (%zu local routes "
                "installed, %zu SPF sources run), %zu counterexamples, %.3gs "
                "(%.3g scenarios/s)\n",
                tag, result.stats.enumerated, result.stats.pruned,
                result.stats.deduped, result.stats.scheduled,
                result.stats.jobInputs, result.stats.cacheHits, result.stats.evaluated,
                result.stats.localRoutesInstalled, result.stats.spfSources,
                result.result.counterexamples.size(), seconds,
                seconds > 0 ? result.stats.enumerated / seconds : 0.0);
  };
  describe("cold sweep", cold, coldSeconds);
  describe("warm sweep", warm, warmSeconds);

  // --- derived-hints mode ---------------------------------------------------
  // The same scope stated as an RCL intent; the pruning hints come from
  // sweep::deriveHints instead of the hand-written block above. The intent is
  // a different property (a global-RIB count, not dataPlaneReachable), so it
  // gets its own serial baseline for the identity check. ISP-0 injects
  // 100.0.0.0/24 and no export policy re-advertises it toward the other
  // ISPs, so their access links stay inert — the derived prune rate must be
  // nonzero for the same structural reason as the hand-written one.
  const std::string intentSpec = "prefix = 100.0.0.0/24 => POST |> count() >= 1";
  const sweep::DeriveResult derivedHints = hoyan.deriveSweepHints(intentSpec);
  std::printf("derived hints: %s (%zu prefixes, %zu devices)\n",
              derivedHints.scoped ? "scoped" : derivedHints.reason.c_str(),
              derivedHints.hints.relevantPrefixes.size(),
              derivedHints.hints.relevantDevices.size());

  KFailureResult derivedSerial;
  double derivedSerialSeconds = 0;
  if (runSerial) {
    const rcl::ParseOutcome outcome = rcl::parseIntent(intentSpec);
    const rcl::IntentPtr intent = outcome.intent;
    const NetworkProperty intentProperty = [intent](const NetworkModel&,
                                                    const NetworkRibs& ribs) {
      rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
      return rcl::checkIntent(*intent, rib, rib).satisfied;
    };
    Stopwatch stopwatch;
    derivedSerial = hoyan.checkFaultToleranceSerial(intentProperty, failure);
    derivedSerialSeconds = stopwatch.seconds();
  }

  Stopwatch derivedWatch;
  const sweep::SweepResult derived =
      hoyan.sweepIntentFaultTolerance(intentSpec, failure);
  const double derivedSeconds = derivedWatch.seconds();
  describe("derived sweep", derived, derivedSeconds);

  bool derivedIdentical = true;
  if (runSerial) {
    derivedIdentical = renderResult(derivedSerial) == renderResult(derived.result);
    if (!derivedIdentical)
      std::fprintf(stderr,
                   "FAIL: derived-hints sweep diverges from its serial oracle\n");
  }
  const double derivedPruneRate =
      derived.stats.enumerated == 0
          ? 0
          : static_cast<double>(derived.stats.pruned) / derived.stats.enumerated;
  // Copy-on-write accounting: the peak bytes any worker materialized on top
  // of the shared base model vs the deep-copy footprint a worker would have
  // carried before the overlay (ISSUE 9 gates a >= 50% reduction).
  const double workerModelReduction =
      derived.stats.workerModelDeepBytes == 0
          ? 0
          : 1.0 - static_cast<double>(derived.stats.workerModelPeakBytes) /
                      static_cast<double>(derived.stats.workerModelDeepBytes);
  std::printf("derived prune rate: %.3g | worker model: peak %zu B vs deep "
              "%zu B (%.1f%% reduction)\n",
              derivedPruneRate, derived.stats.workerModelPeakBytes,
              derived.stats.workerModelDeepBytes, workerModelReduction * 100);

  bool identical = renderResult(cold.result) == renderResult(warm.result);
  if (runSerial)
    identical = identical && renderResult(serial) == renderResult(cold.result);
  if (!identical)
    std::fprintf(stderr, "FAIL: sweep results diverge from the serial oracle\n");
  const size_t warmJobs = warm.stats.cacheHits + warm.stats.evaluated;
  const double warmHitRate =
      warmJobs == 0 ? 0 : static_cast<double>(warm.stats.cacheHits) / warmJobs;
  if (warmHitRate < 1.0)
    std::fprintf(stderr,
                 "FAIL: warm sweep re-evaluated %zu jobs — the verdict cache "
                 "is churning\n",
                 warm.stats.evaluated);

  const double pruneRate =
      cold.stats.enumerated == 0
          ? 0
          : static_cast<double>(cold.stats.pruned) / cold.stats.enumerated;
  const double dedupeRate =
      cold.stats.enumerated == 0
          ? 0
          : static_cast<double>(cold.stats.deduped) / cold.stats.enumerated;
  const double speedupCold =
      runSerial && coldSeconds > 0 ? serialSeconds / coldSeconds : 0;
  const double speedupWarm =
      runSerial && warmSeconds > 0 ? serialSeconds / warmSeconds : 0;
  if (runSerial)
    std::printf("speedup vs serial: %.3gx cold, %.3gx warm (workers=%zu)\n",
                speedupCold, speedupWarm, workers);

  BenchJson artifact("kfailure_sweep");
  artifact.config("workers", static_cast<double>(workers));
  artifact.config("k", static_cast<double>(k));
  artifact.config("serial", runSerial ? "on" : "off");
  artifact.config("devices", static_cast<double>(generated.topology.devices().size()));
  artifact.config("scenarios", static_cast<double>(cold.stats.enumerated));
  artifact.metric("prune_rate", pruneRate);
  artifact.metric("dedupe_rate", dedupeRate);
  artifact.metric("jobs_scheduled", static_cast<double>(cold.stats.scheduled));
  // Input routes each job simulates: the hints slice the inputs.
  artifact.metric("job_inputs", static_cast<double>(cold.stats.jobInputs));
  artifact.metric("derived_job_inputs", static_cast<double>(derived.stats.jobInputs));
  // Local routes installed over the jobs each cold sweep evaluated: the
  // hints slice them too.
  artifact.metric("local_routes_installed",
                  static_cast<double>(cold.stats.localRoutesInstalled));
  artifact.metric("derived_local_routes_installed",
                  static_cast<double>(derived.stats.localRoutesInstalled));
  // SPF sources those jobs ran: the work count incremental SPF would move.
  artifact.metric("spf_sources_run", static_cast<double>(cold.stats.spfSources));
  artifact.metric("derived_spf_sources_run",
                  static_cast<double>(derived.stats.spfSources));
  artifact.metric("warm_cache_hit_rate", warmHitRate);
  artifact.metric("counterexamples",
                  static_cast<double>(cold.result.counterexamples.size()));
  artifact.metric("results_identical", identical ? 1 : 0);
  artifact.metric("derived_prune_rate", derivedPruneRate);
  artifact.metric("derived_results_identical", derivedIdentical ? 1 : 0);
  artifact.metric("worker_model_peak_bytes",
                  static_cast<double>(derived.stats.workerModelPeakBytes));
  artifact.metric("worker_model_deep_bytes",
                  static_cast<double>(derived.stats.workerModelDeepBytes));
  artifact.metric("worker_model_reduction", workerModelReduction);
  artifact.metric("scenarios_per_second_cold",
                  coldSeconds > 0 ? cold.stats.enumerated / coldSeconds : 0);
  artifact.metric("scenarios_per_second_warm",
                  warmSeconds > 0 ? warm.stats.enumerated / warmSeconds : 0);
  if (runSerial) {
    artifact.metric("scenarios_per_second_serial",
                    serialSeconds > 0 ? serial.scenariosChecked / serialSeconds : 0);
    artifact.metric("speedup_cold", speedupCold);
    artifact.metric("speedup_warm", speedupWarm);
  }
  artifact.seconds("serial", serialSeconds);
  artifact.seconds("cold", coldSeconds);
  artifact.seconds("warm", warmSeconds);
  artifact.seconds("derived_serial", derivedSerialSeconds);
  artifact.seconds("derived", derivedSeconds);
  if (obs::writeFile(jsonPath, artifact.str()))
    std::printf("json -> %s\n", jsonPath.c_str());
  else
    std::fprintf(stderr, "failed to write %s\n", jsonPath.c_str());

  return identical && derivedIdentical && warmHitRate >= 1.0 ? 0 : 1;
}
