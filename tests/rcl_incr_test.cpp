// Differential suite for the warm-run intent-verification fast path: the
// fragment-assembled global RIB must be byte-identical, row for row, to the
// table GlobalRib::fromNetworkRibs renders from scratch — across worker
// counts, across change plans (prefix-scoped and all-dirty), and under every
// leg of the invalidation matrix (dirty subtasks, evicted fragments, evicted
// result blobs, provenance-recording runs). RCL verdicts computed against the
// assembled table must match the from-scratch ones exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "incr/engine.h"
#include "obs/provenance.h"
#include "rcl/global_rib.h"
#include "rcl/verify.h"

namespace hoyan {
namespace {

// Intents spanning the evaluator's shapes: prefilterable guards (device =,
// prefix =), a non-prunable negated guard, a forall, and a rib comparison.
const char* const kIntents[] = {
    "device = BR-0-0 => PRE = POST",
    "prefix = 100.0.8.0/24 => PRE |> count() >= 0",
    "not prefix = 100.0.8.0/24 => PRE = POST",
    // Range guards take the full-scan path (lexicographic over renders).
    "prefix >= 100.0.8.0/24 and prefix <= 100.0.9.0/24 => PRE |> count() >= 0",
    "prefix < 100.0.8.0/24 => PRE = POST",
    "prefix > 99.0.0.0/8 => PRE |> count() >= 0",
    "forall device: PRE |> count() >= 0",
    "PRE |> distCnt(device) = POST |> distCnt(device)",
};

class RclIncrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 2;
    wan_ = generateWan(spec);
    WorkloadSpec workload;
    workload.prefixesPerIsp = 12;
    workload.prefixesPerDc = 6;
    workload.v6Share = 0;
    inputs_ = generateInputRoutes(wan_, workload);
    baseModel_ = std::make_unique<NetworkModel>(wan_.buildModel());
  }

  NetworkModel changedModel(const std::string& commands) const {
    Topology topology = wan_.topology;
    NetworkConfig configs = wan_.configs;
    const auto errors = applyChangeCommands(topology, configs, commands);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0].str());
    return NetworkModel::build(std::move(topology), std::move(configs));
  }

  static std::string scopedCommands() {
    return "device BR-0-0\n"
           "ip-prefix LP-FRAG index 10 permit 100.0.8.0/24\n"
           "route-policy ISP-IN-0 node 800 permit\n"
           " match ip-prefix LP-FRAG\n"
           " apply local-pref 150\n";
  }

  static std::string allDirtyCommands() {
    return "device CORE-0-0\nstatic-route 77.0.0.0/8 discard\n";
  }

  // One cache-aware run: simulate, assemble the global RIB through the
  // engine, and check it row-for-row against a from-scratch render of the
  // same merged RIBs. Returns the from-scratch table for verdict checks.
  rcl::GlobalRib runAndCompare(incr::IncrementalEngine& engine,
                               const NetworkModel& model, size_t workers,
                               const char* tag,
                               obs::ProvenanceRecorder* provenance = nullptr) {
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 10;
    options.routeOptions.provenance = provenance;
    engine.beginRun(model, options);
    DistributedSimulator sim(model, options);
    DistRouteResult routes = sim.runRouteSimulation(inputs_);
    EXPECT_TRUE(routes.succeeded) << tag;
    lastAssembled_ = engine.buildGlobalRib(routes.ribs, sim.routeResultKeys());
    rcl::GlobalRib scratch = rcl::GlobalRib::fromNetworkRibs(routes.ribs);
    EXPECT_EQ(lastAssembled_->size(), scratch.size()) << tag;
    const size_t n = std::min(lastAssembled_->size(), scratch.size());
    for (size_t i = 0; i < n; ++i) {
      const std::string assembledRow = lastAssembled_->rows()[i].str();
      const std::string scratchRow = scratch.rows()[i].str();
      if (assembledRow != scratchRow) {
        ADD_FAILURE() << tag << " row " << i << " differs:\n  assembled: "
                      << assembledRow << "\n  scratch:   " << scratchRow;
        break;
      }
    }
    engine.endRun();
    return scratch;
  }

  GeneratedWan wan_;
  std::vector<InputRoute> inputs_;
  std::unique_ptr<NetworkModel> baseModel_;
  std::shared_ptr<const rcl::GlobalRib> lastAssembled_;
};

TEST_F(RclIncrTest, AssemblyMatchesScratchAcrossWorkerCountsAndPlans) {
  const NetworkModel scoped = changedModel(scopedCommands());
  const NetworkModel allDirty = changedModel(allDirtyCommands());
  for (const size_t workers : {2u, 5u}) {
    incr::IncrementalEngine engine;
    engine.setBaseModel(*baseModel_);

    const rcl::GlobalRib baseScratch =
        runAndCompare(engine, *baseModel_, workers, "base");
    EXPECT_TRUE(engine.lastRibAssembly().used);
    EXPECT_FALSE(engine.lastRibAssembly().bypassed);
    const auto baseAssembled = lastAssembled_;

    // Prefix-scoped plan: clean subtasks keep their result keys, so their
    // fragments are served from the base run's cache.
    const rcl::GlobalRib scopedScratch =
        runAndCompare(engine, scoped, workers, "scoped");
    EXPECT_GT(engine.lastRibAssembly().fragmentHits, 0u) << "w" << workers;
    EXPECT_GT(engine.lastRibAssembly().fragmentMisses, 0u) << "w" << workers;
    EXPECT_GT(engine.lastRibAssembly().rowsReused, 0u) << "w" << workers;

    // Every intent verdict (and its counterexample rendering) must be
    // byte-identical whether PRE/POST bind the assembled or scratch table.
    for (const char* intent : kIntents) {
      const rcl::CheckResult viaAssembled =
          rcl::checkIntentText(intent, *baseAssembled, *lastAssembled_);
      const rcl::CheckResult viaScratch =
          rcl::checkIntentText(intent, baseScratch, scopedScratch);
      EXPECT_EQ(viaAssembled.satisfied, viaScratch.satisfied) << intent;
      EXPECT_EQ(viaAssembled.summary(), viaScratch.summary()) << intent;
    }

    // All-dirty plan: every subtask re-runs; assembly must still be exact.
    runAndCompare(engine, allDirty, workers, "all-dirty");
    EXPECT_FALSE(engine.lastRibAssembly().bypassed);
  }
}

TEST_F(RclIncrTest, RepeatedPlanHitsEveryFragment) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  runAndCompare(engine, *baseModel_, 4, "first");
  const incr::RibAssemblyStats first = engine.lastRibAssembly();
  EXPECT_EQ(first.fragmentHits, 0u);
  EXPECT_GT(first.fragmentMisses, 0u);
  const auto firstTable = lastAssembled_;

  // Same result keys: every fragment is served from the cache, and only the
  // groups shared across fragments are rendered again. runAndCompare has
  // already matched the table against fromNetworkRibs row for row.
  runAndCompare(engine, *baseModel_, 4, "second");
  const incr::RibAssemblyStats& second = engine.lastRibAssembly();
  EXPECT_FALSE(second.bypassed);
  EXPECT_EQ(second.fragmentMisses, 0u);
  EXPECT_EQ(second.fragmentHits, first.fragmentMisses);
  EXPECT_EQ(second.rowsReused, first.rowsReused);
  EXPECT_EQ(second.rowsRendered, first.rowsRendered);
  EXPECT_EQ(second.rowsReused + second.rowsRendered, lastAssembled_->size());
  // The caller owns each table: a repeated plan gets a table of its own.
  EXPECT_NE(firstTable.get(), lastAssembled_.get());
}

// --- invalidation matrix ----------------------------------------------------

TEST_F(RclIncrTest, DirtySubtasksRebuildTheirFragments) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  runAndCompare(engine, *baseModel_, 4, "base");
  const NetworkModel scoped = changedModel(scopedCommands());
  runAndCompare(engine, scoped, 4, "scoped");
  const incr::RibAssemblyStats& stats = engine.lastRibAssembly();
  // Dirty subtasks produce new result keys, which miss the fragment cache
  // and are rebuilt from their (fresh) result blobs.
  EXPECT_GT(stats.fragmentMisses, 0u);
  EXPECT_FALSE(stats.bypassed);
}

TEST_F(RclIncrTest, EvictedFragmentsAreRebuiltFromResultBlobs) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  runAndCompare(engine, *baseModel_, 4, "warmup");

  // Drop every cached fragment; result blobs survive.
  engine.store().erasePrefix("cas/g/");
  runAndCompare(engine, *baseModel_, 4, "after-eviction");
  const incr::RibAssemblyStats& stats = engine.lastRibAssembly();
  EXPECT_FALSE(stats.bypassed);
  EXPECT_EQ(stats.fragmentHits, 0u);
  EXPECT_GT(stats.fragmentMisses, 0u);
}

TEST_F(RclIncrTest, EvictedResultBlobFallsBackToFullRender) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  runAndCompare(engine, *baseModel_, 4, "warmup");

  // Second run over the same model: the route phase is served from the
  // cache, so its result keys point at blobs from the first run. Evicting a
  // result blob *and* its fragment leaves nothing sound to assemble from.
  DistSimOptions options;
  options.workers = 4;
  options.routeSubtasks = 10;
  engine.beginRun(*baseModel_, options);
  DistributedSimulator sim(*baseModel_, options);
  DistRouteResult routes = sim.runRouteSimulation(inputs_);
  ASSERT_TRUE(routes.succeeded);
  ASSERT_FALSE(sim.routeResultKeys().empty());
  engine.store().erasePrefix("cas/g/");
  engine.store().erase(sim.routeResultKeys().front());

  const auto assembled = engine.buildGlobalRib(routes.ribs, sim.routeResultKeys());
  EXPECT_TRUE(engine.lastRibAssembly().bypassed);
  const rcl::GlobalRib scratch = rcl::GlobalRib::fromNetworkRibs(routes.ribs);
  ASSERT_EQ(assembled->size(), scratch.size());
  for (size_t i = 0; i < scratch.size(); ++i)
    ASSERT_EQ(assembled->rows()[i].str(), scratch.rows()[i].str()) << i;
  engine.endRun();
}

TEST_F(RclIncrTest, ProvenanceRecordingRunStillAssemblesFragments) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  runAndCompare(engine, *baseModel_, 4, "warmup");

  // Provenance runs store results under the same content-addressed keys as
  // plain runs (events ride in `#prov` side blobs), so the fragment path
  // serves them like any other run instead of refusing and re-rendering.
  // Same model as the warmup: every fragment is already cached.
  obs::ProvenanceOptions provOptions;
  provOptions.enabled = true;
  obs::ProvenanceRecorder recorder(provOptions);
  runAndCompare(engine, *baseModel_, 4, "provenance", &recorder);
  EXPECT_FALSE(engine.lastRibAssembly().bypassed);
  EXPECT_GT(engine.lastRibAssembly().fragmentHits, 0u);
  EXPECT_EQ(engine.lastRibAssembly().fragmentMisses, 0u);
  // The recorder still saw the run: the warmup's cached results carried no
  // event blobs, so the route subtasks re-executed and recorded live.
  EXPECT_GT(recorder.eventCount(), 0u);
}

// --- RCL prefilter index ----------------------------------------------------

// The finalized table's device/prefix buckets seed guarded-intent views; a
// table built row-by-row (never finalized) takes the full-scan path. Both
// must agree on every verdict and counterexample.
TEST_F(RclIncrTest, PrefilteredEvaluationMatchesFullScan) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  const rcl::GlobalRib base = runAndCompare(engine, *baseModel_, 4, "base");
  const NetworkModel scoped = changedModel(scopedCommands());
  const rcl::GlobalRib updated = runAndCompare(engine, scoped, 4, "scoped");
  ASSERT_TRUE(base.finalized());
  ASSERT_TRUE(updated.finalized());

  const auto unindexed = [](const rcl::GlobalRib& rib) {
    rcl::GlobalRib copy;
    for (const rcl::RibRow& row : rib.rows()) copy.add(row);
    return copy;
  };
  const rcl::GlobalRib basePlain = unindexed(base);
  const rcl::GlobalRib updatedPlain = unindexed(updated);
  ASSERT_FALSE(basePlain.finalized());
  for (const char* intent : kIntents) {
    const rcl::CheckResult indexed = rcl::checkIntentText(intent, base, updated);
    const rcl::CheckResult scanned =
        rcl::checkIntentText(intent, basePlain, updatedPlain);
    EXPECT_EQ(indexed.satisfied, scanned.satisfied) << intent;
    EXPECT_EQ(indexed.summary(), scanned.summary()) << intent;
  }
  // A guard naming a device absent from the table must prune to empty and
  // still agree with the full scan.
  const char* absent = "device = NO-SUCH-DEVICE => PRE |> count() = 0";
  EXPECT_EQ(rcl::checkIntentText(absent, base, updated).satisfied,
            rcl::checkIntentText(absent, basePlain, updatedPlain).satisfied);
}

}  // namespace
}  // namespace hoyan
