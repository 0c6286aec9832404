// Checks of the benchmark's own assumptions, on a small WAN (a few seconds):
//
//  1. Warm-path stats replay. A cache-served subtask adds the RouteSimStats /
//     TrafficSimStats its original execution stored, so a fully cached run
//     reports simulation work it never did. The ledger therefore reports
//     sim.* and proto.* only for phases with no cached simulating subtask
//     (PhaseLedger::freshStats).
//  2. Traced-run equivalence. runTracedPlan gives the same result digest as
//     Hoyan::verifyChange for every plan kind, engine on and off.
//  3. The plan kinds get the verdicts and impact their construction expects.
//
// Prints one line per check and exits nonzero when any failed.
#include <cstdio>
#include <memory>
#include <string>

#include "plan_stream.h"
#include "traced_pipeline.h"

using namespace hoyan;
using namespace hoyanbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Corpus smallCorpus() {
  WanSpec wan;
  wan.regions = 2;
  wan.coresPerRegion = 2;
  wan.bordersPerRegion = 2;
  wan.dcsPerRegion = 1;
  wan.ispsPerBorder = 2;
  WorkloadSpec workload;
  workload.prefixesPerIsp = 16;
  workload.prefixesPerDc = 8;
  workload.attrGroupSize = 1;
  workload.v6Share = 0.0;
  workload.ispPathsPerPrefix = 4;
  Corpus corpus;
  corpus.wan = generateWan(wan);
  graftAsPathFilters(corpus.wan);
  corpus.workload = workload;
  corpus.inputs = generateInputRoutes(corpus.wan, workload);
  corpus.flows = generateFlows(corpus.wan, workload, 5000);
  return corpus;
}

DistSimOptions smallOptions() {
  DistSimOptions options = simOptions();
  options.routeSubtasks = 8;
  options.trafficSubtasks = 8;
  return options;
}

std::unique_ptr<Hoyan> preprocessed(const Corpus& corpus, bool engine) {
  auto hoyan = std::make_unique<Hoyan>(corpus.wan.topology, corpus.wan.configs);
  hoyan->setInputRoutes(corpus.inputs);
  hoyan->setInputFlows(corpus.flows);
  hoyan->setSimulationOptions(smallOptions());
  if (engine) hoyan->enableIncremental();
  hoyan->preprocess();
  return hoyan;
}

void checkStatsReplay(const Corpus& corpus) {
  // An empty plan re-simulates the base network: every subtask is a hit.
  ChangePlan noop;
  noop.name = "noop";
  IntentSet intents;
  intents.maxLinkUtilization = 5.0;
  const auto cold = preprocessed(corpus, false);
  const auto warm = preprocessed(corpus, true);
  const ChangeVerificationResult coldResult = cold->verifyChange(noop, intents);
  const ChangeVerificationResult warmResult = warm->verifyChange(noop, intents);
  expect(warmResult.routeSubtaskCacheHits == warmResult.routeSubtaskCount &&
             warmResult.trafficSubtaskCacheHits == warmResult.trafficSubtaskCount,
         "replay: an unchanged network is served from cache entirely");
  expect(warmResult.routeStats.messagesProcessed > 0 &&
             warmResult.routeStats.messagesProcessed ==
                 coldResult.routeStats.messagesProcessed,
         "replay: a fully cached route phase reports the stored message count");
  expect(warmResult.routeStats.propagateSeconds > 0 &&
             warmResult.trafficStats.forwardSeconds > 0,
         "replay: a fully cached run reports stored propagate/forward seconds");
  const TracedPlan traced = runTracedPlan(*warm, smallOptions(), noop, intents);
  expect(!traced.route.freshStats && !traced.traffic.freshStats &&
             traced.route.subtasksRun == 0 && traced.traffic.subtasksRun == 0,
         "replay: the ledger marks cached phases' stats as not fresh");
  const TracedPlan tracedCold = runTracedPlan(*cold, smallOptions(), noop, intents);
  expect(tracedCold.route.freshStats && tracedCold.traffic.freshStats,
         "replay: engine-off phases' stats are fresh");
}

void checkTracedEquivalence(const Corpus& corpus, bool engine) {
  const std::string mode = engine ? "engine on" : "engine off";
  const auto reference = preprocessed(corpus, engine);
  const auto traced = preprocessed(corpus, engine);
  PlanStream stream(corpus, 3);
  bool seen[3] = {false, false, false};
  for (int i = 0; i < 10; ++i) {
    const StreamPlan plan = stream.next();
    const ChangeVerificationResult expected =
        reference->verifyChange(plan.plan, plan.intents);
    const TracedPlan got = runTracedPlan(*traced, smallOptions(), plan.plan, plan.intents);
    const auto kind = static_cast<int>(plan.kind);
    if (seen[kind]) continue;
    seen[kind] = true;
    const std::string name = std::string(planKindName(plan.kind)) + " plan, " + mode;
    expect(got.digest == digestResult(expected), "traced digest = verifyChange: " + name);
    expect(expected.commandErrors.empty() && expected.rclOutcomes.size() == 1 &&
               expected.rclOutcomes[0].result.satisfied == plan.expectSatisfied &&
               expected.loadViolations.empty(),
           "expected verdict: " + name);
    if (engine)
      expect(got.allDirty == (plan.kind == PlanKind::kBroad),
             "all-dirty exactly on broad plans: " + name);
  }
}

}  // namespace

int main() {
  const Corpus corpus = smallCorpus();
  checkStatsReplay(corpus);
  checkTracedEquivalence(corpus, false);
  checkTracedEquivalence(corpus, true);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
