// Tests for monitoring emulation, accuracy validation, root-cause analysis,
// and the Table-4 issue-injection experiments.
#include <gtest/gtest.h>

#include "diag/injection.h"
#include "diag/root_cause.h"
#include "diag/validation.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "monitor/monitoring.h"
#include "sim/route_sim.h"

namespace hoyan {
namespace {

class DiagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WanSpec spec;
    spec.regions = 2;
    wan_ = generateWan(spec);
    model_ = std::make_unique<NetworkModel>(wan_.buildModel());
    WorkloadSpec workload;
    workload.prefixesPerIsp = 8;
    workload.prefixesPerDc = 4;
    workload.v6Share = 0;
    inputs_ = generateInputRoutes(wan_, workload);
    ribs_ = simulateCentralized(*model_, inputs_).ribs;
  }

  GeneratedWan wan_;
  std::unique_ptr<NetworkModel> model_;
  std::vector<InputRoute> inputs_;
  NetworkRibs ribs_;
};

TEST_F(DiagTest, MonitorSeesOnlyBestBgpRoutes) {
  const NetworkRibs monitored = collectMonitoredRoutes(*model_, ribs_);
  for (const auto& [deviceId, deviceRib] : monitored.devices()) {
    for (const auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      for (const auto& [prefix, routes] : vrfRib.routes()) {
        for (const Route& route : routes) {
          EXPECT_EQ(route.type, RouteType::kBest);
          EXPECT_EQ(route.attrs.weight, 0u);   // Not BGP-propagated.
          EXPECT_EQ(route.igpCost, 0u);
          EXPECT_TRUE(route.protocol == Protocol::kBgp ||
                      route.protocol == Protocol::kAggregate);
        }
      }
    }
  }
}

TEST_F(DiagTest, BmpDevicesKeepFullRib) {
  RouteMonitorOptions options;
  options.bmpDevices.insert(wan_.cores[0]);
  const NetworkRibs monitored = collectMonitoredRoutes(*model_, ribs_, options);
  // BMP preserves attributes the BGP-agent path loses: the core's iBGP
  // routes keep their non-zero IGP cost toward the border nexthops.
  size_t withIgpCost = 0;
  const DeviceRib* bmpRib = monitored.findDevice(wan_.cores[0]);
  ASSERT_NE(bmpRib, nullptr);
  for (const auto& [vrfId, vrfRib] : bmpRib->vrfs())
    for (const auto& [prefix, routes] : vrfRib.routes())
      for (const Route& route : routes)
        if (route.igpCost > 0) ++withIgpCost;
  EXPECT_GT(withIgpCost, 0u);
  // A non-BMP device has every igpCost zeroed.
  const DeviceRib* agentRib = monitored.findDevice(wan_.cores[1]);
  ASSERT_NE(agentRib, nullptr);
  for (const auto& [vrfId, vrfRib] : agentRib->vrfs())
    for (const auto& [prefix, routes] : vrfRib.routes())
      for (const Route& route : routes) EXPECT_EQ(route.igpCost, 0u);
}

TEST_F(DiagTest, CleanNetworkValidatesAccurately) {
  const NetworkRibs monitored = collectMonitoredRoutes(*model_, ribs_);
  const RouteAccuracyReport report = compareRoutes(ribs_, monitored);
  for (const RouteDiscrepancy& d : report.discrepancies) ADD_FAILURE() << d.str();
  EXPECT_TRUE(report.accurate());
  EXPECT_EQ(report.devicesMissingEntirely, 0u);
  EXPECT_GT(report.routesCompared, 100u);
}

TEST_F(DiagTest, FailedAgentIsReportedAsMissingDevice) {
  RouteMonitorOptions options;
  options.failedAgents.insert(wan_.borders[0]);
  const NetworkRibs monitored = collectMonitoredRoutes(*model_, ribs_, options);
  const RouteAccuracyReport report = compareRoutes(ribs_, monitored, options);
  EXPECT_EQ(report.devicesMissingEntirely, 1u);
  ASSERT_EQ(report.missingDevices.size(), 1u);
  EXPECT_EQ(report.missingDevices[0], wan_.borders[0]);
}

TEST_F(DiagTest, CrossValidationSeesEcmpAndHiddenAttributes) {
  // Remove an ECMP route from a doctored "simulated" RIB; the BGP-agent
  // monitor can't tell, but live `show` cross-validation can.
  NetworkRibs doctored = ribs_;
  size_t removed = 0;
  std::vector<Prefix> affected;
  for (auto& [deviceId, deviceRib] : doctored.devices()) {
    for (auto& [vrfId, vrfRib] : deviceRib.vrfs()) {
      for (auto& [prefix, routes] : vrfRib.routes()) {
        if (removed >= 3) break;
        const size_t before = routes.size();
        std::erase_if(routes, [](const Route& r) { return r.type == RouteType::kEcmp; });
        if (routes.size() != before) {
          ++removed;
          affected.push_back(prefix);
        }
      }
    }
  }
  ASSERT_GT(removed, 0u);
  const auto findings = crossValidateWithLive(doctored, ribs_, affected);
  EXPECT_FALSE(findings.empty());
}

TEST_F(DiagTest, SnmpNoiseStaysWithinBound) {
  LinkLoadMap loads;
  loads.add(wan_.cores[0], wan_.cores[1], 1e9);
  TrafficMonitorOptions options;
  options.snmpNoise = 0.02;
  const auto samples = collectMonitoredLinkLoads(loads, options);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NEAR(samples[0].bps, 1e9, 0.02 * 1e9 + 1);
}

TEST_F(DiagTest, NetflowBugScalesVolumes) {
  std::vector<Flow> flows(1);
  flows[0].ingressDevice = wan_.dcGateways[0];
  flows[0].volumeBps = 100;
  TrafficMonitorOptions options;
  options.netflowVolumeScale[wan_.dcGateways[0]] = 0.5;
  const auto records = collectNetflowRecords(flows, options);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].flow.volumeBps, 50);
  options.failedExporters.insert(wan_.dcGateways[0]);
  EXPECT_TRUE(collectNetflowRecords(flows, options).empty());
}

TEST_F(DiagTest, LoadComparisonFlagsOnlyAboveThreshold) {
  LinkLoadMap sim;
  sim.add(wan_.cores[0], wan_.cores[1], 50e9);   // 50% of 100G.
  sim.add(wan_.cores[1], wan_.cores[0], 1e9);
  std::vector<MonitoredLinkLoad> monitored = {
      {wan_.cores[0], wan_.cores[1], 30e9},  // Delta 20% -> flagged.
      {wan_.cores[1], wan_.cores[0], 1.5e9}, // Delta 0.5% -> fine.
  };
  const LoadAccuracyReport report =
      compareLinkLoads(model_->topology, sim, monitored, 0.10);
  ASSERT_EQ(report.inaccurateLinks.size(), 1u);
  EXPECT_EQ(report.inaccurateLinks[0].from, wan_.cores[0]);
}

// --- Table 4 injection experiments: one test per category --------------------

class InjectionTest : public ::testing::TestWithParam<IssueCategory> {};

TEST_P(InjectionTest, InjectedIssueIsDetectedAndClassified) {
  const InjectionOutcome outcome = runInjectionExperiment(GetParam(), 0);
  EXPECT_TRUE(outcome.detected) << outcome.detail;
  EXPECT_TRUE(outcome.classifiedCorrectly)
      << "injected " << issueCategoryName(outcome.injected) << " classified as "
      << issueCategoryName(outcome.classifiedAs) << " (" << outcome.detail << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllCategories, InjectionTest,
    ::testing::Values(IssueCategory::kRouteMonitoringData,
                      IssueCategory::kTrafficMonitoringData,
                      IssueCategory::kTopologyData, IssueCategory::kConfigParsingFlaw,
                      IssueCategory::kInputRouteBuildingFlaw,
                      IssueCategory::kSimImplementationBug,
                      IssueCategory::kVendorSpecificBehavior,
                      IssueCategory::kUnmodeledFeature,
                      IssueCategory::kBgpNondeterminism, IssueCategory::kOther),
    [](const ::testing::TestParamInfo<IssueCategory>& info) {
      std::string name = issueCategoryName(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Table4CampaignTest, MixMatchesPaperAndAllDetected) {
  const auto mix = table4Mix();
  int total = 0;
  for (const auto& [category, count] : mix) total += count;
  EXPECT_EQ(total, 52);  // The paper's 6-month issue count.
}

}  // namespace
}  // namespace hoyan
