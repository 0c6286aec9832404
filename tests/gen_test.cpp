// Generator invariants: address uniqueness, session symmetry, deterministic
// workloads, DCN scoping, and corpus/state sanity across spec sizes.
#include <gtest/gtest.h>

#include <set>

#include "gen/rcl_corpus.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "sim/route_sim.h"

namespace hoyan {
namespace {

class GenTest : public ::testing::TestWithParam<size_t> {
 protected:
  WanSpec spec() const {
    WanSpec s;
    s.regions = GetParam();
    return s;
  }
};

TEST_P(GenTest, LoopbacksAndInterfaceAddressesAreUnique) {
  const GeneratedWan wan = generateWan(spec());
  std::set<uint32_t> addresses;
  for (const auto& [name, device] : wan.topology.devices()) {
    EXPECT_TRUE(addresses.insert(device.loopback.v4Value()).second)
        << Names::str(name) << " loopback collides";
    for (const Interface& itf : device.interfaces)
      EXPECT_TRUE(addresses.insert(itf.address.v4Value()).second)
          << Names::str(name) << " interface address collides";
  }
}

TEST_P(GenTest, EverySessionIsSymmetricAndEstablishes) {
  const GeneratedWan wan = generateWan(spec());
  const NetworkModel model = wan.buildModel();
  EXPECT_TRUE(model.sessionProblems.empty())
      << (model.sessionProblems.empty() ? "" : model.sessionProblems.front());
  // Directed sessions come in pairs.
  EXPECT_EQ(model.sessions.size() % 2, 0u);
  size_t reversed = 0;
  for (const BgpSession& session : model.sessions)
    for (const BgpSession& other : model.sessions)
      if (other.local == session.peer && other.peer == session.local) {
        ++reversed;
        break;
      }
  EXPECT_EQ(reversed, model.sessions.size());
}

TEST_P(GenTest, DeviceCountMatchesSpecFormula) {
  const WanSpec s = spec();
  const GeneratedWan wan = generateWan(s);
  EXPECT_EQ(wan.topology.deviceCount(), s.deviceCount());
  EXPECT_EQ(wan.routeReflectors.size(), s.regions);
  EXPECT_EQ(wan.cores.size(), s.regions * s.coresPerRegion);
  EXPECT_EQ(wan.borders.size(), s.regions * s.bordersPerRegion);
  EXPECT_EQ(wan.externals.size(),
            s.regions * s.bordersPerRegion * s.ispsPerBorder);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GenTest, ::testing::Values(1, 2, 4, 6));

TEST(GenWorkloadTest, InputsAreDeterministic) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 8;
  const auto a = generateInputRoutes(wan, workload);
  const auto b = generateInputRoutes(wan, workload);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(a[i] == b[i]) << i;
  const auto flowsA = generateFlows(wan, workload, 500);
  const auto flowsB = generateFlows(wan, workload, 500);
  ASSERT_EQ(flowsA.size(), flowsB.size());
  for (size_t i = 0; i < flowsA.size(); ++i) EXPECT_TRUE(flowsA[i] == flowsB[i]) << i;
}

TEST(GenWorkloadTest, AttrGroupsBoundEcCount) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  const NetworkModel model = wan.buildModel();
  WorkloadSpec workload;
  workload.prefixesPerIsp = 32;
  workload.prefixesPerDc = 16;
  workload.attrGroupSize = 8;
  workload.v6Share = 0;
  const auto inputs = generateInputRoutes(wan, workload);
  EcStats stats;
  buildRouteEcs(model, inputs, &stats);
  // Reduction at least half the group size (policy signatures may split
  // groups whose prefixes match filters differently).
  EXPECT_GT(stats.reductionFactor(), 4.0);
}

TEST(GenWorkloadTest, FlowDestinationsAreAnnouncedPrefixes) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 8;
  workload.prefixesPerDc = 4;
  workload.v6Share = 0.5;  // Half the ISP slots are v6.
  const auto inputs = generateInputRoutes(wan, workload);
  PrefixTrie<char> announced;
  for (const InputRoute& input : inputs)
    if (input.route.prefix.family() == IpFamily::kV4)
      announced.insert(input.route.prefix, 1);
  for (const Flow& flow : generateFlows(wan, workload, 300))
    EXPECT_TRUE(announced.longestMatch(flow.dst).has_value()) << flow.str();
}

TEST(GenWorkloadTest, DcnCoresGetScopedTables) {
  WanSpec spec;
  spec.regions = 2;
  spec.dcnCoresPerDc = 2;
  const GeneratedWan wan = generateWan(spec);
  ASSERT_EQ(wan.dcnCores.size(), 8u);  // 2 regions x 2 DCs x 2 cores.
  const NetworkModel model = wan.buildModel();
  WorkloadSpec workload;
  workload.prefixesPerIsp = 8;
  workload.prefixesPerDc = 4;
  workload.prefixesPerDcnCore = 2;
  workload.v6Share = 0;
  const auto inputs = generateInputRoutes(wan, workload);
  const RouteSimResult result = simulateCentralized(model, inputs);
  // The DCN core sees DC-space routes but not the full ISP table (the DCGW's
  // DCN-OUT export policy scopes it).
  const DeviceRib* dcnRib = result.ribs.findDevice(wan.dcnCores[0]);
  ASSERT_NE(dcnRib, nullptr);
  const VrfRib* vrf = dcnRib->findVrf(kInvalidName);
  ASSERT_NE(vrf, nullptr);
  size_t ispRoutes = 0, dcRoutes = 0;
  for (const auto& [prefix, routes] : vrf->routes()) {
    if (Prefix::parse("100.0.0.0/8")->contains(prefix)) ++ispRoutes;
    if (Prefix::parse("20.0.0.0/8")->contains(prefix)) ++dcRoutes;
  }
  EXPECT_EQ(ispRoutes, 0u);
  EXPECT_GT(dcRoutes, 0u);
  // And DCN prefixes propagate up into the WAN.
  const DeviceRib* coreRib = result.ribs.findDevice(wan.cores[0]);
  const auto* dcnPrefix =
      coreRib->findVrf(kInvalidName)->find(*Prefix::parse("30.0.0.0/24"));
  ASSERT_NE(dcnPrefix, nullptr);
}

TEST(GenCorpusTest, CorpusIsDeterministicAndScoped) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  const auto a = generateRclCorpus(wan, 30);
  const auto b = generateRclCorpus(wan, 30);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 30u);
}

}  // namespace
}  // namespace hoyan
