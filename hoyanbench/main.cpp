// hoyan_perfbench: the repository benchmark. One process runs one workload,
// closed loop with one client, and prints its metrics; see README.md for
// every metric's definition and the layer -> end-to-end mapping.
//
//   hoyan_perfbench --workload change-cold|change-warm|fault-sweep
//                   --seed N --seconds S --trace 0|1
//                   [--wan-seed N] [--workload-seed N] [--plan-seed N]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: an untraced and a traced instance process the
// same stream side by side, the traced one through the benchmark's own timed
// calls into each layer (traced_pipeline.h), and it prints the per-layer
// ledger. The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// The exit code is nonzero when any output check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "plan_stream.h"
#include "rcl/global_rib.h"
#include "rcl/parser.h"
#include "traced_pipeline.h"

using namespace hoyan;
using namespace hoyanbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMinSetups = 3;     // setup_s is the median of at least 3
constexpr size_t kMaxSetups = 250;   // preprocess() runs, repeated until 2 s
constexpr double kSetupBudgetSeconds = 2.0;  // were spent (small WANs).
constexpr size_t kRssSweeps = 3;     // peak_rss_mb is read after 3 sweeps.
constexpr size_t kDigestEvery = 10;  // change-warm: every 10th plan is
constexpr size_t kDigestSamples = 8; // re-verified cold, up to 8 plans.
constexpr size_t kOracleSweeps = 1;  // fault-sweep: serial oracle + warm re-run.
constexpr double kMiB = 1024.0 * 1024.0;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Seeds seeds;
};

Args parseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + arg);
    arg = arg.substr(2);
    if (const size_t eq = arg.find('='); eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      if (i + 1 >= argc) throw std::invalid_argument("--" + arg + " needs a value");
      flags[arg] = argv[++i];
    }
  }
  const auto take = [&](const std::string& name, const std::string& fallback) {
    const auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  Args args;
  args.workload = take("workload", "");
  args.seed = std::stoull(take("seed", "1"));
  args.seconds = std::stod(take("seconds", "10"));
  args.trace = take("trace", "0") != "0";
  // The three seeds default to fixed mixes of --seed.
  args.seeds.wan = std::stoull(take("wan-seed", std::to_string(args.seed)));
  args.seeds.workload =
      std::stoull(take("workload-seed", std::to_string(args.seed * 1000003 + 7)));
  args.seeds.plans =
      std::stoull(take("plan-seed", std::to_string(args.seed * 7919 + 1)));
  if (!flags.empty()) throw std::invalid_argument("unknown flag --" + flags.begin()->first);
  if (args.workload != "change-cold" && args.workload != "change-warm" &&
      args.workload != "fault-sweep")
    throw std::invalid_argument("--workload must be change-cold, change-warm or fault-sweep");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[obs::nearestRankIndex(p, values.size())];
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

// Metrics in print order, plus the run's operation accounting.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  size_t attempted = 0;
  size_t failed = 0;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back({name, value, unit});
    std::printf("%-36s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
                note.empty() ? "" : "  # ", note.c_str());
  }

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }

  void printJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    std::printf("}}\n");
  }
};

std::unique_ptr<Hoyan> makeHoyan(const Corpus& corpus, const DistSimOptions& options,
                                 bool engine) {
  auto hoyan = std::make_unique<Hoyan>(corpus.wan.topology, corpus.wan.configs);
  hoyan->setInputRoutes(corpus.inputs);
  hoyan->setInputFlows(corpus.flows);
  hoyan->setSimulationOptions(options);
  if (engine) hoyan->enableIncremental();
  return hoyan;
}

// Sets up fresh instances, timing each preprocess(), at least
// kMinSetups times and until kSetupBudgetSeconds were spent (at most
// kMaxSetups); returns the last instance and the median time.
std::unique_ptr<Hoyan> setUp(const Corpus& corpus, const DistSimOptions& options,
                             bool engine, double* medianSeconds, size_t* count) {
  std::unique_ptr<Hoyan> hoyan;
  std::vector<double> times;
  double spent = 0;
  while (times.size() < kMinSetups ||
         (spent < kSetupBudgetSeconds && times.size() < kMaxSetups)) {
    hoyan.reset();
    hoyan = makeHoyan(corpus, options, engine);
    const Clock::time_point start = Clock::now();
    hoyan->preprocess();
    times.push_back(secondsSince(start));
    spent += times.back();
  }
  *medianSeconds = percentile(times, 0.5);
  *count = times.size();
  return hoyan;
}

// The output checks every verified plan gets: no command errors, no load or
// path violations, one RCL outcome with the verdict the plan's kind expects.
std::string verdictProblem(const StreamPlan& plan, const std::vector<ParseError>& errors,
                           const std::vector<RclOutcome>& outcomes, size_t loadViolations) {
  if (!errors.empty()) return "command error: " + errors.front().str();
  if (loadViolations > 0) return "unexpected load violation";
  if (outcomes.size() != 1) return "expected one RCL outcome";
  if (outcomes.front().result.satisfied != plan.expectSatisfied)
    return std::string("verdict ") + (outcomes.front().result.satisfied ? "PASS" : "FAIL") +
           ", expected " + (plan.expectSatisfied ? "PASS" : "FAIL");
  return {};
}

// --- passes ------------------------------------------------------------------

// Every plan and every sweep is timed in kPasses passes: the first pass takes
// new work from the stream for its share of --seconds, and each later pass
// replays that work in the same order from the same starting state. A
// sample's latency is the fastest of its passes. The passes of one sample lie
// a whole pass apart, so a burst of load from elsewhere on a shared host
// seldom slows all of them, and the tail percentiles read the program rather
// than the host.
constexpr size_t kPasses = 2;

// Whether the first pass should take one more block of work, given the time
// spent so far and what the last block took: blocks continue while they end
// nearer the pass's share of `seconds` than they would without it.
bool passWantsMore(double elapsed, double lastBlock, double seconds) {
  return elapsed + lastBlock / 2 < seconds / static_cast<double>(kPasses);
}

constexpr double kNotTimed = std::numeric_limits<double>::infinity();

// --- change workloads, untraced --------------------------------------------

// The change workloads run in sessions: a fresh instance is preprocessed (the
// daily set-up; on change-warm it seeds the engine's cache) and then verifies
// the next kSessionPlans plans of the stream. The warm cache grows with every
// broad plan and later plans slow down as it does, so sessions keep the
// measured mix the same however many plans a run fits in. A replayed session
// starts from the same fresh instance, so each plan meets the same cache.
constexpr size_t kSessionPlans = 30;  // Whole blocks of plan kinds and borders.
constexpr size_t kMinSessions = 3;

void runChange(const Args& args, bool warm, Report& report) {
  const Corpus corpus = makeChangeCorpus(args.seeds);
  const DistSimOptions options = simOptions();
  struct Sample {
    StreamPlan plan;
    PlanDigest digest;
  };
  std::vector<Sample> samples;
  std::vector<StreamPlan> plans;  // Session s holds plans [s*30, s*30+30).
  std::vector<double> setups, latencies;  // latencies: per plan, fastest pass.
  double rssMb = 0;
  std::unique_ptr<Hoyan> hoyan;
  const auto runSession = [&](size_t session, size_t pass) {
    hoyan.reset();
    hoyan = makeHoyan(corpus, options, warm);
    const Clock::time_point setupStart = Clock::now();
    hoyan->preprocess();
    setups.push_back(secondsSince(setupStart));
    for (size_t index = session * kSessionPlans; index < (session + 1) * kSessionPlans;
         ++index) {
      const StreamPlan& plan = plans[index];
      ++report.attempted;
      const Clock::time_point start = Clock::now();
      ChangeVerificationResult result;
      try {
        result = hoyan->verifyChange(plan.plan, plan.intents);
      } catch (const std::exception& error) {
        report.fail(plan.plan.name + " threw: " + error.what());
        continue;
      }
      latencies[index] = std::min(latencies[index], secondsSince(start));
      const std::string problem =
          verdictProblem(plan, result.commandErrors, result.rclOutcomes,
                         result.loadViolations.size() + result.pathViolations.size());
      if (!problem.empty()) report.fail(plan.plan.name + ": " + problem);
      if (warm && pass == 0 && problem.empty() && index % kDigestEvery == 0 &&
          samples.size() < kDigestSamples)
        samples.push_back({plan, digestResult(result)});
    }
    if (pass == 0 && session == 0) rssMb = peakRssMb();
  };

  PlanStream stream(corpus, args.seeds.plans);
  const Clock::time_point loopStart = Clock::now();
  size_t sessions = 0;
  double sessionSeconds = 0;
  while (sessions < kMinSessions ||
         passWantsMore(secondsSince(loopStart), sessionSeconds, args.seconds)) {
    for (size_t i = 0; i < kSessionPlans; ++i) plans.push_back(stream.next());
    latencies.resize(plans.size(), kNotTimed);
    const Clock::time_point start = Clock::now();
    runSession(sessions++, 0);
    sessionSeconds = secondsSince(start);
  }
  for (size_t pass = 1; pass < kPasses; ++pass)
    for (size_t session = 0; session < sessions; ++session) runSession(session, pass);

  // change-warm: a cold recomputation of sampled plans must match exactly.
  if (warm) {
    hoyan.reset();
    const auto cold = makeHoyan(corpus, options, false);
    cold->preprocess();
    for (const Sample& sample : samples) {
      const PlanDigest expected =
          digestResult(cold->verifyChange(sample.plan.plan, sample.plan.intents));
      if (!(expected == sample.digest))
        report.fail(sample.plan.plan.name + ": warm result digest differs from cold");
    }
    std::printf("# digest check: %zu sampled plans re-verified cold\n", samples.size());
  }

  double total = 0;
  for (const double latency : latencies) total += latency;
  const double p90 = percentile(latencies, 0.9);
  size_t beyond = 0, broadBeyond = 0, broad = 0;
  for (size_t i = 0; i < latencies.size(); ++i) {
    broad += plans[i].kind == PlanKind::kBroad;
    if (latencies[i] > p90) {
      ++beyond;
      broadBeyond += plans[i].kind == PlanKind::kBroad;
    }
  }
  const std::string n =
      std::to_string(latencies.size()) + " plans, fastest of " + std::to_string(kPasses);
  report.add("setup_s", percentile(setups, 0.5), "s",
             "median of " + std::to_string(setups.size()) + " sessions' preprocess()");
  report.add("verify_p50_s", percentile(latencies, 0.5), "s", "n=" + n);
  report.add("verify_p90_s", p90, "s",
             "n=" + n + "; " + std::to_string(beyond) + " beyond, " +
                 std::to_string(broadBeyond) + " of them broad (" +
                 std::to_string(broad) + " broad in all)");
  report.add("throughput_per_s", ratio(static_cast<double>(latencies.size()), total), "1/s",
             n + " over " + std::to_string(total) + " s of verify time");
  report.add("peak_rss_mb", rssMb, "MiB",
             "ru_maxrss after the first session (setup and " +
                 std::to_string(kSessionPlans) + " plans)");
}

// --- fault sweep, untraced -------------------------------------------------

KFailureOptions sweepOptions() {
  KFailureOptions failure;
  failure.k = 2;
  failure.maxCounterexamples = 100000;  // Uncapped: stable counts.
  return failure;
}

std::string renderSweep(const KFailureResult& result) {
  std::string out = "checked=" + std::to_string(result.scenariosChecked);
  for (const FailureSet& failures : result.counterexamples) {
    out += '\n';
    out += failures.str();
  }
  return out;
}

// The intent as the serial oracle's property: the audit-task reading on each
// degraded network, exactly as sweepIntentFaultTolerance states it.
NetworkProperty intentProperty(const std::string& spec) {
  const rcl::IntentPtr intent = rcl::parseIntent(spec).intent;
  return [intent](const NetworkModel&, const NetworkRibs& ribs) {
    rcl::GlobalRib rib = rcl::GlobalRib::fromNetworkRibs(ribs);
    return rcl::checkIntent(*intent, rib, rib).satisfied;
  };
}

void runSweep(const Args& args, Report& report) {
  const Corpus corpus = makeSweepCorpus(args.seeds);
  const DistSimOptions options = simOptions();
  double setupSeconds = 0;
  size_t setups = 0;
  std::unique_ptr<Hoyan> hoyan = setUp(corpus, options, true, &setupSeconds, &setups);
  const KFailureOptions failure = sweepOptions();

  struct Sample {
    std::string spec;
    std::string rendered;
  };
  std::vector<Sample> samples;
  std::vector<std::string> specs;
  std::vector<double> latencies;  // Per sweep, fastest pass.
  size_t scenarios = 0;
  double rssMb = 0;
  const auto runOne = [&](size_t index, size_t pass) {
    const std::string& spec = specs[index];
    ++report.attempted;
    // A fresh engine per sweep has an empty cas/k cache, so every sweep is
    // cold even when the stream repeats an intent or a pass replays it.
    hoyan->enableIncremental();
    const Clock::time_point start = Clock::now();
    sweep::SweepResult result;
    try {
      result = hoyan->sweepIntentFaultTolerance(spec, failure);
    } catch (const std::exception& error) {
      report.fail(spec + " threw: " + error.what());
      return;
    }
    latencies[index] = std::min(latencies[index], secondsSince(start));
    if (pass > 0) return;
    scenarios += result.stats.enumerated;
    if (index + 1 == kRssSweeps) rssMb = peakRssMb();
    if (samples.size() < kOracleSweeps) {
      // A warm re-run, while this sweep's verdicts are still cached, must be
      // served by cas/k entirely.
      samples.push_back({spec, renderSweep(result.result)});
      const sweep::SweepResult again = hoyan->sweepIntentFaultTolerance(spec, failure);
      if (renderSweep(again.result) != samples.back().rendered)
        report.fail(spec + ": warm re-run diverges");
      if (again.stats.evaluated != 0)
        report.fail(spec + ": warm re-run evaluated " + std::to_string(again.stats.evaluated) +
                    " jobs");
    }
  };

  IntentStream intents(corpus, args.seeds.plans);
  const Clock::time_point loopStart = Clock::now();
  // Whole rounds only: a round sweeps one intent per ISP peer.
  const size_t round = corpus.wan.externals.size();
  double roundSeconds = 0;
  while (specs.size() < kRssSweeps ||
         passWantsMore(secondsSince(loopStart), roundSeconds, args.seconds)) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < round; ++i) {
      specs.push_back(intents.next());
      latencies.push_back(kNotTimed);
      runOne(specs.size() - 1, 0);
    }
    roundSeconds = secondsSince(start);
  }
  for (size_t pass = 1; pass < kPasses; ++pass)
    for (size_t index = 0; index < specs.size(); ++index) runOne(index, pass);

  for (const Sample& sample : samples) {
    const std::string serial =
        renderSweep(hoyan->checkFaultToleranceSerial(intentProperty(sample.spec), failure));
    if (serial != sample.rendered) report.fail(sample.spec + ": sweep diverges from serial");
  }
  std::printf("# oracle check: %zu sweeps vs checkFaultToleranceSerial and a warm re-run\n",
              samples.size());

  double total = 0;
  for (const double latency : latencies) total += latency;
  const std::string n =
      std::to_string(latencies.size()) + " sweeps, fastest of " + std::to_string(kPasses);
  report.add("setup_s", setupSeconds, "s",
             "median of " + std::to_string(setups) + " preprocess() runs");
  const double p90 = percentile(latencies, 0.9);
  const auto beyond = std::count_if(latencies.begin(), latencies.end(),
                                    [&](double latency) { return latency > p90; });
  report.add("verify_p50_s", percentile(latencies, 0.5), "s", "n=" + n);
  report.add("verify_p90_s", p90, "s", "n=" + n + "; " + std::to_string(beyond) + " beyond");
  report.add("throughput_per_s", ratio(static_cast<double>(scenarios), total), "1/s",
             std::to_string(scenarios) + " scenarios over " + std::to_string(total) +
                 " s of sweep time");
  report.add("peak_rss_mb", rssMb, "MiB",
             "ru_maxrss after setup and " + std::to_string(kRssSweeps) + " sweeps");
}

// --- the traced run ---------------------------------------------------------

// Per-layer sums over the traced operations; `emit` turns them into the
// per-layer metrics (zeros for layers the workload does not reach).
struct Ledger {
  size_t plans = 0;
  size_t workers = 1;
  double untracedSeconds = 0;  // The untraced instance's operations.
  double tracedSeconds = 0;    // The traced instance's operations.
  StepTimes steps;             // Sums.
  bool incremental = false;
  size_t allDirty = 0;
  size_t rowsReused = 0, rowsRendered = 0, ribRows = 0;
  double cacheMb = 0, storeMb = 0;
  PhaseLedger route, traffic;  // Sums (max: sum of per-plan maxima).
  size_t freshRoute = 0, freshTraffic = 0;
  RouteSimStats routeStats;      // Sums over fresh route phases.
  TrafficSimStats trafficStats;  // Sums over fresh traffic phases.
  double loadRibsSeconds = 0;
  size_t ribFilesLoaded = 0, storeBytesRead = 0;
  // fault-sweep
  size_t sweeps = 0;
  double deriveSeconds = 0, sweepSeconds = 0;
  sweep::SweepStats sweepStats;  // Sums.

  static void addPhase(PhaseLedger& sum, const PhaseLedger& phase) {
    sum.seconds += phase.seconds;
    sum.splitSeconds += phase.splitSeconds;
    sum.mergeSeconds += phase.mergeSeconds;
    sum.execSeconds += phase.execSeconds;
    sum.subtasks += phase.subtasks;
    sum.cacheHits += phase.cacheHits;
    sum.subtasksRun += phase.subtasksRun;
    sum.busySeconds += phase.busySeconds;
    sum.maxSubtaskSeconds += phase.maxSubtaskSeconds;
    sum.retries += phase.retries;
  }

  void add(const TracedPlan& plan) {
    ++plans;
    tracedSeconds += plan.wallSeconds;
    const StepTimes& s = plan.steps;
    steps = {steps.modelBuild + s.modelBuild, steps.beginRun + s.beginRun,
             steps.route + s.route, steps.forwardingIndex + s.forwardingIndex,
             steps.traffic + s.traffic, steps.globalRib + s.globalRib,
             steps.rclCheck + s.rclCheck, steps.loadCheck + s.loadCheck,
             steps.endRun + s.endRun, steps.teardown + s.teardown};
    incremental = plan.incremental;
    allDirty += plan.allDirty;
    rowsReused += plan.rowsReused;
    rowsRendered += plan.rowsRendered;
    ribRows += plan.ribRows;
    addPhase(route, plan.route);
    addPhase(traffic, plan.traffic);
    if (plan.route.freshStats) {
      ++freshRoute;
      routeStats.ecSeconds += plan.routeStats.ecSeconds;
      routeStats.propagateSeconds += plan.routeStats.propagateSeconds;
      routeStats.materializeSeconds += plan.routeStats.materializeSeconds;
      routeStats.messagesProcessed += plan.routeStats.messagesProcessed;
      routeStats.rounds += plan.routeStats.rounds;
      routeStats.installedRoutes += plan.routeStats.installedRoutes;
      routeStats.policy.add(plan.routeStats.policy);
    }
    if (plan.traffic.freshStats && plan.traffic.subtasks > 0) {
      ++freshTraffic;
      trafficStats.ecSeconds += plan.trafficStats.ecSeconds;
      trafficStats.forwardSeconds += plan.trafficStats.forwardSeconds;
      trafficStats.simulatedFlows += plan.trafficStats.simulatedFlows;
    }
    loadRibsSeconds += plan.loadRibsSeconds;
    ribFilesLoaded += plan.ribFilesLoaded;
    storeBytesRead += plan.storeBytesRead;
  }

  void emit(Report& report) const {
    const auto per = [](double sum, size_t n) { return ratio(sum, static_cast<double>(n)); };
    const auto idle = [&](const PhaseLedger& phase) {
      return phase.execSeconds > 0
                 ? 1.0 - phase.busySeconds / (static_cast<double>(workers) * phase.execSeconds)
                 : 0.0;
    };
    report.add("config.model_build_s", per(steps.modelBuild, plans), "s");
    report.add("incr.begin_run_s", per(steps.beginRun, plans), "s");
    report.add("incr.all_dirty_share", per(static_cast<double>(allDirty), plans), "ratio");
    report.add("incr.route_hit_rate",
               ratio(static_cast<double>(route.cacheHits), static_cast<double>(route.subtasks)),
               "ratio");
    report.add("incr.traffic_hit_rate",
               ratio(static_cast<double>(traffic.cacheHits),
                     static_cast<double>(traffic.subtasks)),
               "ratio");
    report.add("incr.global_rib_s", incremental ? per(steps.globalRib, plans) : 0.0, "s");
    report.add("incr.rows_reused_share",
               ratio(static_cast<double>(rowsReused),
                     static_cast<double>(rowsReused + rowsRendered)),
               "ratio");
    report.add("incr.end_run_s", per(steps.endRun, plans), "s");
    report.add("incr.cache_mb", cacheMb, "MiB");
    report.add("incr.store_mb", storeMb, "MiB");
    report.add("dist.route_s", per(route.seconds, plans), "s");
    report.add("dist.route.split_s", per(route.splitSeconds, plans), "s");
    report.add("dist.route.merge_s", per(route.mergeSeconds, plans), "s");
    report.add("dist.route.subtasks_run", per(static_cast<double>(route.subtasksRun), plans),
               "count");
    report.add("dist.route.busy_s", per(route.busySeconds, plans), "s");
    report.add("dist.route.max_subtask_s", per(route.maxSubtaskSeconds, plans), "s");
    report.add("dist.route.idle_share", idle(route), "ratio");
    report.add("dist.route.retries", static_cast<double>(route.retries), "count");
    report.add("dist.forwarding_index_s", per(steps.forwardingIndex, plans), "s");
    report.add("dist.traffic_s", per(traffic.seconds, plans), "s");
    report.add("dist.traffic.split_s", per(traffic.splitSeconds, plans), "s");
    report.add("dist.traffic.subtasks_run",
               per(static_cast<double>(traffic.subtasksRun), plans), "count");
    report.add("dist.traffic.busy_s", per(traffic.busySeconds, plans), "s");
    report.add("dist.traffic.idle_share", idle(traffic), "ratio");
    report.add("dist.traffic.load_ribs_s", per(loadRibsSeconds, plans), "s");
    report.add("dist.traffic.rib_files_per_subtask",
               per(static_cast<double>(ribFilesLoaded), traffic.subtasksRun), "count");
    report.add("dist.traffic.store_mb_read",
               per(static_cast<double>(storeBytesRead) / kMiB, plans), "MiB");
    report.add("sim.route.fresh_share", per(static_cast<double>(freshRoute), plans), "ratio");
    report.add("sim.route.ec_s", per(routeStats.ecSeconds, freshRoute), "s");
    report.add("sim.route.propagate_s", per(routeStats.propagateSeconds, freshRoute), "s");
    report.add("sim.route.materialize_s", per(routeStats.materializeSeconds, freshRoute), "s");
    report.add("sim.route.messages",
               per(static_cast<double>(routeStats.messagesProcessed), freshRoute), "count");
    report.add("sim.route.rounds", per(static_cast<double>(routeStats.rounds), freshRoute),
               "count");
    report.add("sim.route.installed_routes",
               per(static_cast<double>(routeStats.installedRoutes), freshRoute), "count");
    report.add("sim.traffic.fresh_share", per(static_cast<double>(freshTraffic), plans),
               "ratio");
    report.add("sim.traffic.ec_s", per(trafficStats.ecSeconds, freshTraffic), "s");
    report.add("sim.traffic.forward_s", per(trafficStats.forwardSeconds, freshTraffic), "s");
    report.add("sim.traffic.flows_simulated",
               per(static_cast<double>(trafficStats.simulatedFlows), freshTraffic), "count");
    const PolicyKernelStats& policy = routeStats.policy;
    report.add("proto.policy.memo_lookups",
               per(static_cast<double>(policy.memoHits + policy.memoMisses), freshRoute),
               "count");
    report.add("proto.policy.memo_hit_rate", policy.memoHitRate(), "ratio");
    report.add("proto.policy.regex_hit_rate", policy.regexCacheHitRate(), "ratio");
    report.add("rcl.global_rib_s", incremental ? 0.0 : per(steps.globalRib, plans), "s");
    report.add("rcl.rows", per(static_cast<double>(ribRows), plans), "count");
    report.add("rcl.check_s", per(steps.rclCheck, plans), "s");
    report.add("verify.link_loads_s", per(steps.loadCheck, plans), "s");
    report.add("core.teardown_s", per(steps.teardown, plans), "s");
    const sweep::SweepStats& sw = sweepStats;
    const double enumerated = static_cast<double>(sw.enumerated);
    report.add("sweep.derive_hints_s", per(deriveSeconds, sweeps), "s");
    report.add("sweep.prune_share", ratio(static_cast<double>(sw.pruned), enumerated), "ratio");
    report.add("sweep.dedupe_share", ratio(static_cast<double>(sw.deduped), enumerated),
               "ratio");
    report.add("sweep.jobs_evaluated", per(static_cast<double>(sw.evaluated), sweeps), "count");
    report.add("sweep.jobs_per_s", ratio(static_cast<double>(sw.evaluated), sweepSeconds),
               "1/s");
    report.add("sweep.retries", static_cast<double>(sw.retries), "count");
    report.add("topo.worker_model_peak_kb",
               per(static_cast<double>(sw.workerModelPeakBytes) / 1024.0, sweeps), "KiB");
    report.add("topo.worker_model_reduction",
               sw.workerModelDeepBytes == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(sw.workerModelPeakBytes) /
                               static_cast<double>(sw.workerModelDeepBytes),
               "ratio");
    report.add("obs.trace_overhead_share",
               ratio(tracedSeconds - untracedSeconds, untracedSeconds), "ratio",
               std::to_string(plans + sweeps) + " traced operations");
  }
};

void runChangeTraced(const Args& args, bool warm, Report& report) {
  const Corpus corpus = makeChangeCorpus(args.seeds);
  const DistSimOptions options = simOptions();
  Ledger ledger;
  ledger.workers = options.workers;
  std::unique_ptr<Hoyan> untraced, traced;
  size_t sessions = 0;
  PlanStream stream(corpus, args.seeds.plans);
  const Clock::time_point loopStart = Clock::now();
  // Sessions as in runChange, each with a fresh untraced and traced instance.
  while (secondsSince(loopStart) < args.seconds || sessions == 0) {
    ++sessions;
    untraced.reset();
    traced.reset();
    untraced = makeHoyan(corpus, options, warm);
    untraced->preprocess();
    traced = makeHoyan(corpus, options, warm);
    traced->preprocess();
    for (size_t i = 0; i < kSessionPlans; ++i) {
      const StreamPlan plan = stream.next();
      ++report.attempted;
      try {
        // Alternating which instance goes first cancels the order's effect
        // on obs.trace_overhead_share.
        const bool tracedFirst = report.attempted % 2 == 0;
        TracedPlan tracedPlan;
        if (tracedFirst) tracedPlan = runTracedPlan(*traced, options, plan.plan, plan.intents);
        const Clock::time_point start = Clock::now();
        const ChangeVerificationResult reference =
            untraced->verifyChange(plan.plan, plan.intents);
        ledger.untracedSeconds += secondsSince(start);
        if (!tracedFirst) tracedPlan = runTracedPlan(*traced, options, plan.plan, plan.intents);
        ledger.add(tracedPlan);
        const std::string problem =
            verdictProblem(plan, tracedPlan.commandErrors, tracedPlan.rclOutcomes,
                           tracedPlan.loadViolations.size());
        if (!problem.empty())
          report.fail(plan.plan.name + ": " + problem);
        else if (!tracedPlan.route.succeeded || !tracedPlan.traffic.succeeded)
          report.fail(plan.plan.name + ": failed subtasks");
        else if (!(tracedPlan.digest == digestResult(reference)))
          report.fail(plan.plan.name + ": traced digest differs from verifyChange");
      } catch (const std::exception& error) {
        report.fail(plan.plan.name + " threw: " + error.what());
      }
    }
    if (incr::IncrementalEngine* engine = traced->incremental()) {
      // Engine footprint at the end of a session, averaged over sessions.
      ledger.cacheMb += static_cast<double>(engine->cache().totalBytes()) / kMiB;
      ledger.storeMb += static_cast<double>(engine->store().liveBytes()) / kMiB;
    }
  }
  ledger.cacheMb /= static_cast<double>(sessions);
  ledger.storeMb /= static_cast<double>(sessions);
  ledger.emit(report);
}

void runSweepTraced(const Args& args, Report& report) {
  const Corpus corpus = makeSweepCorpus(args.seeds);
  const DistSimOptions options = simOptions();
  const auto untraced = makeHoyan(corpus, options, true);
  untraced->preprocess();
  // The traced instance records the sweep's own spans; the engine is
  // enabled after the bundle so it reports into it too.
  const auto traced = makeHoyan(corpus, options, false);
  obs::TelemetryOptions telemetry;
  telemetry.tracing = true;
  traced->configureTelemetry(telemetry);
  traced->enableIncremental();
  traced->preprocess();
  const KFailureOptions failure = sweepOptions();

  Ledger ledger;
  IntentStream intents(corpus, args.seeds.plans);
  const Clock::time_point loopStart = Clock::now();
  const size_t round = corpus.wan.externals.size();  // Whole rounds, as in runSweep.
  while (secondsSince(loopStart) < args.seconds || report.attempted % round != 0) {
    const std::string spec = intents.next();
    ++report.attempted;
    untraced->enableIncremental();  // Cold sweeps, as in runSweep.
    traced->enableIncremental();
    try {
      const auto runUntraced = [&] {
        const Clock::time_point start = Clock::now();
        sweep::SweepResult reference = untraced->sweepIntentFaultTolerance(spec, failure);
        ledger.untracedSeconds += secondsSince(start);
        return reference;
      };
      // Alternating which instance goes first, as in runChangeTraced.
      const bool tracedFirst = report.attempted % 2 == 0;
      sweep::SweepResult reference;
      if (!tracedFirst) reference = runUntraced();
      const Clock::time_point start = Clock::now();
      traced->deriveSweepHints(spec);
      const double derive = secondsSince(start);
      const Clock::time_point sweepStart = Clock::now();
      const sweep::SweepResult result = traced->sweepIntentFaultTolerance(spec, failure);
      const double sweepSeconds = secondsSince(sweepStart);
      const double wall = secondsSince(start);
      if (tracedFirst) reference = runUntraced();
      ++ledger.sweeps;
      ledger.deriveSeconds += derive;
      ledger.sweepSeconds += sweepSeconds;
      ledger.tracedSeconds += wall;
      sweep::SweepStats& sum = ledger.sweepStats;
      sum.enumerated += result.stats.enumerated;
      sum.pruned += result.stats.pruned;
      sum.deduped += result.stats.deduped;
      sum.evaluated += result.stats.evaluated;
      sum.retries += result.stats.retries;
      sum.workerModelPeakBytes += result.stats.workerModelPeakBytes;
      sum.workerModelDeepBytes += result.stats.workerModelDeepBytes;
      if (renderSweep(result.result) != renderSweep(reference.result))
        report.fail(spec + ": traced sweep differs from the untraced one");
    } catch (const std::exception& error) {
      report.fail(spec + " threw: " + error.what());
    }
  }
  ledger.emit(report);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hoyan_perfbench: %s\n", error.what());
    return 2;
  }
  std::printf("# workload %s, seeds wan=%llu workload=%llu plans=%llu, %gs, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seeds.wan),
              static_cast<unsigned long long>(args.seeds.workload),
              static_cast<unsigned long long>(args.seeds.plans), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  try {
    const bool sweep = args.workload == "fault-sweep";
    const bool warm = args.workload == "change-warm";
    if (sweep)
      args.trace ? runSweepTraced(args, report) : runSweep(args, report);
    else
      args.trace ? runChangeTraced(args, warm, report) : runChange(args, warm, report);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hoyan_perfbench: %s\n", error.what());
    return 1;
  }
  std::printf("# %zu attempted, %zu failed\n", report.attempted, report.failed);
  report.printJson();
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
