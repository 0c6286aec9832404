// Determinism: the whole pipeline must produce byte-identical results across
// runs and worker counts — the distributed master merges subtask results in
// a fixed order and every engine stage orders its work deterministically.
// (The paper's post-change validation use case (§6.2) treats Hoyan's output
// as ground truth; nondeterminism would poison it.)
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/hoyan.h"
#include "dist/dist_sim.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "obs/provenance.h"
#include "rcl/global_rib.h"

namespace hoyan {
namespace {

std::vector<std::string> rowTexts(const NetworkRibs& ribs) {
  const rcl::GlobalRib global = rcl::GlobalRib::fromNetworkRibs(ribs);
  std::vector<std::string> out;
  out.reserve(global.size());
  for (const rcl::RibRow& row : global.rows()) out.push_back(row.str());
  return out;
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 3;
    wan_ = generateWan(spec);
    WorkloadSpec workload;
    workload.prefixesPerIsp = 24;
    workload.prefixesPerDc = 8;
    workload.v6Share = 0.25;
    inputs_ = generateInputRoutes(wan_, workload);
    flows_ = generateFlows(wan_, workload, 800);
  }

  NetworkRibs runDistributed(size_t workers, size_t subtasks,
                             obs::ProvenanceRecorder* provenance = nullptr) {
    const NetworkModel model = wan_.buildModel();
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = subtasks;
    options.routeOptions.provenance = provenance;
    DistributedSimulator simulator(model, options);
    DistRouteResult result = simulator.runRouteSimulation(inputs_);
    EXPECT_TRUE(result.succeeded);
    return std::move(result.ribs);
  }

  GeneratedWan wan_;
  std::vector<InputRoute> inputs_;
  std::vector<Flow> flows_;
};

TEST_F(DeterminismTest, RepeatedRunsProduceIdenticalGlobalRibs) {
  const auto first = rowTexts(runDistributed(4, 16));
  const auto second = rowTexts(runDistributed(4, 16));
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]) << i;
}

TEST_F(DeterminismTest, WorkerCountDoesNotChangeResults) {
  const auto two = rowTexts(runDistributed(2, 16));
  const auto eight = rowTexts(runDistributed(8, 16));
  ASSERT_EQ(two.size(), eight.size());
  for (size_t i = 0; i < two.size(); ++i) EXPECT_EQ(two[i], eight[i]) << i;
}

TEST_F(DeterminismTest, SubtaskCountDoesNotChangeResults) {
  const auto few = rowTexts(runDistributed(4, 4));
  const auto many = rowTexts(runDistributed(4, 64));
  ASSERT_EQ(few.size(), many.size());
  for (size_t i = 0; i < few.size(); ++i) EXPECT_EQ(few[i], many[i]) << i;
}

TEST_F(DeterminismTest, ProvenanceLogIsIdenticalAcrossWorkerCounts) {
  // The master merges per-subtask provenance in subtask order and emits
  // selection events from the final merged RIBs, so with a fixed subtask
  // count the rendered log must be byte-identical for any worker count.
  obs::ProvenanceOptions provOptions;
  provOptions.enabled = true;
  provOptions.totalEventCap = 1u << 20;
  provOptions.perDeviceEventCap = 1u << 16;
  const auto rendered = [&](size_t workers) {
    obs::ProvenanceRecorder recorder(provOptions);
    runDistributed(workers, 16, &recorder);
    std::string out;
    for (const obs::RouteEvent& event : recorder.snapshot())
      out += event.str() + "\n";
    EXPECT_EQ(recorder.droppedEvents(), 0u) << "caps too small for the fixture";
    return out;
  };
  const std::string two = rendered(2);
  const std::string eight = rendered(8);
  EXPECT_GT(two.size(), 0u);
  EXPECT_EQ(two, eight);
}

TEST_F(DeterminismTest, IncrementalWarmRunsAreByteIdenticalToColdRuns) {
  // The incremental engine's cache must be invisible in the results: for a
  // corpus with a prefix-scoped change (partial cache reuse), an all-dirty
  // change (full re-run) and a change of the input set, a cache-enabled Hoyan
  // must produce byte-identical RIB rows, matching link loads, and identical
  // RCL verdicts to a cache-less one, at more than one worker count.
  ChangePlan scoped;
  scoped.name = "scoped";
  scoped.commands =
      "device BR-0-0\n"
      "ip-prefix LP-DET index 10 permit 100.0.8.0/24\n"
      "route-policy ISP-IN-0 node 800 permit\n"
      " match ip-prefix LP-DET\n"
      " apply local-pref 150\n";
  ChangePlan allDirty;
  allDirty.name = "all-dirty";
  allDirty.commands = "device CORE-0-0\nstatic-route 77.0.0.0/8 discard\n";
  // Withdraws one announced v4 prefix and announces a new one. Registration
  // keeps the inputs in split order, v6 last, so the appended v4 route leaves
  // them unsorted: this is the plan whose split sorts a copy.
  const auto firstV4 = std::find_if(inputs_.begin(), inputs_.end(), [](const InputRoute& input) {
    return input.route.prefix.family() == IpFamily::kV4;
  });
  ASSERT_NE(firstV4, inputs_.end());
  ASSERT_TRUE(std::any_of(inputs_.begin(), inputs_.end(), [](const InputRoute& input) {
    return input.route.prefix.family() == IpFamily::kV6;
  }));
  ChangePlan reinput;
  reinput.name = "re-input";
  reinput.withdrawnPrefixes = {firstV4->route.prefix};
  InputRoute announced = *firstV4;
  announced.route.prefix = *Prefix::parse("100.0.250.0/24");
  reinput.newInputRoutes = {announced};
  // The input set the plan leaves, registered as is on a reference Hoyan.
  std::vector<InputRoute> reinputSet = inputs_;
  std::erase_if(reinputSet, [&](const InputRoute& input) {
    return input.route.prefix == reinput.withdrawnPrefixes.front();
  });
  for (const InputRoute& input : reinputSet)
    ASSERT_FALSE(input.route.prefix == announced.route.prefix);
  reinputSet.push_back(announced);
  IntentSet intents;
  intents.rclIntents = {"not prefix = 100.0.8.0/24 => PRE = POST"};
  intents.maxLinkUtilization = 5.0;  // Forces the traffic phase.

  for (const size_t workers : {2u, 7u}) {
    const auto makeHoyan = [&](bool incremental, const std::vector<InputRoute>& inputs) {
      auto hoyan = std::make_unique<Hoyan>(wan_.topology, wan_.configs);
      hoyan->setInputRoutes(inputs);
      hoyan->setInputFlows(flows_);
      DistSimOptions options;
      options.workers = workers;
      options.routeSubtasks = 16;
      options.trafficSubtasks = 8;
      hoyan->setSimulationOptions(options);
      if (incremental) hoyan->enableIncremental();
      hoyan->preprocess();
      return hoyan;
    };
    auto cold = makeHoyan(false, inputs_);
    auto warm = makeHoyan(true, inputs_);
    // Repeat the scoped plan so the warm run also exercises full-hit replay.
    for (const ChangePlan* plan : {&scoped, &allDirty, &reinput, &scoped}) {
      const ChangeVerificationResult coldResult = cold->verifyChange(*plan, intents);
      const ChangeVerificationResult warmResult = warm->verifyChange(*plan, intents);
      const auto coldRows = rowTexts(coldResult.updatedRibs);
      const auto warmRows = rowTexts(warmResult.updatedRibs);
      ASSERT_EQ(coldRows.size(), warmRows.size()) << plan->name << " w" << workers;
      for (size_t i = 0; i < coldRows.size(); ++i)
        ASSERT_EQ(coldRows[i], warmRows[i]) << plan->name << " w" << workers;
      ASSERT_EQ(coldResult.updatedLinkLoads.size(), warmResult.updatedLinkLoads.size());
      for (const auto& entry : coldResult.updatedLinkLoads.entries())
        EXPECT_NEAR(warmResult.updatedLinkLoads.get(entry.from, entry.to), entry.bps,
                    1e-9)
            << plan->name << " w" << workers;
      ASSERT_EQ(coldResult.rclOutcomes.size(), warmResult.rclOutcomes.size());
      for (size_t i = 0; i < coldResult.rclOutcomes.size(); ++i)
        EXPECT_EQ(coldResult.rclOutcomes[i].result.satisfied,
                  warmResult.rclOutcomes[i].result.satisfied)
            << plan->name << " w" << workers;
      if (plan != &reinput) continue;
      // The same post-change state as an empty plan on the resulting inputs.
      const ChangeVerificationResult expected =
          makeHoyan(false, reinputSet)->verifyChange(ChangePlan{}, intents);
      EXPECT_EQ(rowTexts(expected.updatedRibs), coldRows) << "w" << workers;
      ASSERT_EQ(expected.updatedLinkLoads.size(), coldResult.updatedLinkLoads.size());
      for (const auto& entry : expected.updatedLinkLoads.entries())
        EXPECT_EQ(coldResult.updatedLinkLoads.get(entry.from, entry.to), entry.bps)
            << "w" << workers;
    }
    // The scoped plan's final repetition must actually have reused results.
    const ChangeVerificationResult warmAgain = warm->verifyChange(scoped, intents);
    EXPECT_GT(warmAgain.routeSubtaskCacheHits, 0u) << "w" << workers;
  }
}

TEST_F(DeterminismTest, RandomizedChangePlansMatchWarmVsCold) {
  // Randomized differential: a seeded stream of change plans — prefix-scoped
  // policy edits on random border routers interleaved with all-dirty static
  // routes on random cores — verified by a cache-enabled and a cache-less
  // pipeline. Every observable (RIB rows, RCL counterexample text, loads)
  // must be byte-identical; plans repeat so the warm side also replays
  // whole-table and full-hit paths.
  std::mt19937 rng(20250806);
  std::vector<ChangePlan> plans;
  for (int i = 0; i < 6; ++i) {
    ChangePlan plan;
    const unsigned region = rng() % 3;
    if (rng() % 10 < 7) {
      const unsigned octet = rng() % 24;
      plan.name = "rand-scoped-" + std::to_string(i);
      plan.commands = "device BR-" + std::to_string(region) +
                      "-0\n"
                      "ip-prefix LP-RAND-" +
                      std::to_string(i) + " index 10 permit 100." +
                      std::to_string(region) + "." + std::to_string(octet) +
                      ".0/24\n"
                      "route-policy ISP-IN-" +
                      std::to_string(region) + " node " +
                      std::to_string(800 + i) +
                      " permit\n"
                      " match ip-prefix LP-RAND-" +
                      std::to_string(i) +
                      "\n"
                      " apply local-pref " +
                      std::to_string(110 + 10 * (rng() % 9)) + "\n";
    } else {
      plan.name = "rand-all-dirty-" + std::to_string(i);
      plan.commands = "device CORE-" + std::to_string(region) +
                      "-0\nstatic-route 7" + std::to_string(i) +
                      ".0.0.0/8 discard\n";
    }
    plans.push_back(plan);
  }
  // Repeat one scoped plan verbatim: full cache replay on the warm side.
  plans.push_back(plans[0]);

  IntentSet intents;
  intents.rclIntents = {"not prefix = 100.0.8.0/24 => PRE = POST",
                        "device = BR-0-0 => PRE |> distCnt(prefix) >= 0",
                        "forall device: POST |> count() >= 0"};
  intents.maxLinkUtilization = 5.0;
  const auto makeHoyan = [&](bool incremental) {
    auto hoyan = std::make_unique<Hoyan>(wan_.topology, wan_.configs);
    hoyan->setInputRoutes(inputs_);
    hoyan->setInputFlows(flows_);
    DistSimOptions options;
    options.workers = 3;
    options.routeSubtasks = 16;
    options.trafficSubtasks = 8;
    hoyan->setSimulationOptions(options);
    if (incremental) hoyan->enableIncremental();
    hoyan->preprocess();
    return hoyan;
  };
  auto cold = makeHoyan(false);
  auto warm = makeHoyan(true);
  for (const ChangePlan& plan : plans) {
    const ChangeVerificationResult coldResult = cold->verifyChange(plan, intents);
    const ChangeVerificationResult warmResult = warm->verifyChange(plan, intents);
    const auto coldRows = rowTexts(coldResult.updatedRibs);
    const auto warmRows = rowTexts(warmResult.updatedRibs);
    ASSERT_EQ(coldRows.size(), warmRows.size()) << plan.name;
    for (size_t i = 0; i < coldRows.size(); ++i)
      ASSERT_EQ(coldRows[i], warmRows[i]) << plan.name << " row " << i;
    ASSERT_EQ(coldResult.rclOutcomes.size(), warmResult.rclOutcomes.size());
    for (size_t i = 0; i < coldResult.rclOutcomes.size(); ++i) {
      EXPECT_EQ(coldResult.rclOutcomes[i].result.satisfied,
                warmResult.rclOutcomes[i].result.satisfied)
          << plan.name << " " << coldResult.rclOutcomes[i].specification;
      EXPECT_EQ(coldResult.rclOutcomes[i].result.summary(),
                warmResult.rclOutcomes[i].result.summary())
          << plan.name;
    }
    ASSERT_EQ(coldResult.updatedLinkLoads.size(), warmResult.updatedLinkLoads.size());
    for (const auto& entry : coldResult.updatedLinkLoads.entries())
      EXPECT_NEAR(warmResult.updatedLinkLoads.get(entry.from, entry.to), entry.bps,
                  1e-9)
          << plan.name;
  }
}

TEST_F(DeterminismTest, PolicyMemoIsInvisibleUnderRandomizedPolicies) {
  // Randomized differential for the policy-eval kernel (proto/
  // policy_kernel.h): fuzz the border import policies with random as-path
  // regex lists (one deliberately invalid), community and prefix matches,
  // and local-pref / prepend / nexthop / MED rewrites, then require the
  // memo-enabled pipeline to be byte-identical to the memo-disabled oracle
  // at 1, 3, and 6 workers. A stale or mis-keyed memo entry shows up as a
  // diverging RIB row here.
  std::mt19937 rng(20260808);
  for (size_t i = 0; i < wan_.borders.size(); ++i) {
    DeviceConfig& config = wan_.configs.device(wan_.borders[i]);  // CoW detach.
    const std::string tag = std::to_string(i);
    const NameId asList = Names::id("FUZZ-AS-" + tag);
    AsPathList pathList;
    pathList.name = asList;
    switch (rng() % 4) {
      case 0:
        pathList.entries.push_back({true, "_6500[0-9]_"});
        break;
      case 1:
        pathList.entries.push_back({true, "^" + std::to_string(65001 + rng() % 8)});
        break;
      case 2:
        // Invalid pattern first: must match nothing (counted, not fatal) and
        // fall through to the catch-all — identically with and without memo.
        pathList.entries.push_back({true, "(unclosed"});
        pathList.entries.push_back({true, ".*"});
        break;
      default:
        pathList.entries.push_back({true, std::to_string(65001 + rng() % 8) + "$"});
        break;
    }
    config.asPathLists[asList] = pathList;
    const NameId cList = Names::id("FUZZ-COMM-" + tag);
    CommunityList commList;
    commList.name = cList;
    commList.entries.push_back(
        {true, Community(64512, static_cast<uint16_t>(rng() % 4))});
    config.communityLists[cList] = commList;
    const NameId pList = Names::id("FUZZ-PFX-" + tag);
    PrefixList prefixList;
    prefixList.name = pList;
    prefixList.family = IpFamily::kV4;
    prefixList.entries.push_back(
        {true, *Prefix::parse("100.0.0.0/8"), 8, static_cast<uint8_t>(16 + rng() % 9)});
    config.prefixLists[pList] = prefixList;

    for (auto& [policyName, policy] : config.routePolicies) {
      PolicyNode node;
      node.sequence = 500 + static_cast<uint32_t>(rng() % 100);
      node.action = rng() % 8 == 0 ? PolicyAction::kDeny : PolicyAction::kPermit;
      switch (rng() % 3) {
        case 0: node.match.asPathList = asList; break;
        case 1: node.match.communityList = cList; break;
        default: node.match.prefixList = pList; break;
      }
      switch (rng() % 4) {
        case 0: node.sets.localPref = 100 + 10 * (rng() % 10); break;
        case 1: node.sets.prepend = {{64512, 1 + rng() % 3}}; break;
        case 2:
          node.sets.nexthop = *IpAddress::parse("9.9.9." + std::to_string(rng() % 8));
          break;
        default: node.sets.med = rng() % 50; break;
      }
      policy.upsertNode(node);
    }
  }

  const auto run = [&](size_t workers, bool memo) {
    const NetworkModel model = wan_.buildModel();
    DistSimOptions options;
    options.workers = workers;
    options.routeSubtasks = 16;
    options.routeOptions.policyMemo = memo;
    DistributedSimulator simulator(model, options);
    DistRouteResult result = simulator.runRouteSimulation(inputs_);
    EXPECT_TRUE(result.succeeded);
    return rowTexts(result.ribs);
  };
  const auto oracle = run(3, false);
  ASSERT_GT(oracle.size(), 0u);
  for (const size_t workers : {1u, 3u, 6u}) {
    const auto rows = run(workers, true);
    ASSERT_EQ(rows.size(), oracle.size()) << "workers=" << workers;
    for (size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(rows[i], oracle[i]) << "workers=" << workers << " row " << i;
  }
}

TEST_F(DeterminismTest, TrafficLoadsAreDeterministicAcrossWorkers) {
  const NetworkModel model = wan_.buildModel();
  LinkLoadMap first, second;
  for (LinkLoadMap* loads : {&first, &second}) {
    DistSimOptions options;
    options.workers = loads == &first ? 2 : 7;
    options.routeSubtasks = 16;
    options.trafficSubtasks = 12;
    DistributedSimulator simulator(model, options);
    ASSERT_TRUE(simulator.runRouteSimulation(inputs_).succeeded);
    DistTrafficResult result = simulator.runTrafficSimulation(flows_);
    ASSERT_TRUE(result.succeeded);
    *loads = std::move(result.linkLoads);
  }
  ASSERT_EQ(first.size(), second.size());
  for (const auto& entry : first.entries())
    EXPECT_NEAR(second.get(entry.from, entry.to), entry.bps, 1e-9) << Names::str(entry.from);
}

}  // namespace
}  // namespace hoyan
