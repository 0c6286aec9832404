// Pinned global-RIB and counterexample text.
//
// RCL rows hold route values and render their text only on demand
// (RibRow::str, CheckResult::summary). This test pins that text for a fixed
// generated WAN: FNV-1a digests over every row of the base and post-change
// global RIBs, and over the summaries of a violated `PRE = POST` and a
// violated `forall device:` intent, must equal hex constants, with the
// incremental engine off and on.
//
// BGP ties break on interned device ids, so the RIBs are process-stable, not
// universal: this test runs as its own binary with exactly one TEST (a second
// TEST interning names earlier would change the tables). Re-pin by running
// the binary and copying the printed values.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "rcl/global_rib.h"

namespace hoyan {
namespace {

std::string fnvHex(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : text) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(h));
  return buffer;
}

std::string renderedTable(const rcl::GlobalRib& rib) {
  std::string out;
  for (const rcl::RibRow& row : rib.rows()) out += row.str() + "\n";
  return out;
}

TEST(RclRenderPinTest, RowsAndCounterexamplesRenderAsPinned) {
  WanSpec spec;
  spec.regions = 2;
  spec.seed = 5;
  const GeneratedWan wan = generateWan(spec);
  WorkloadSpec workload;
  workload.seed = 9;
  workload.prefixesPerIsp = 12;
  workload.prefixesPerDc = 4;
  workload.ispPathsPerPrefix = 2;
  const std::vector<InputRoute> inputs = generateInputRoutes(wan, workload);

  ChangePlan plan;
  plan.name = "pin";
  plan.commands =
      "device BR-0-0\n"
      "ip-prefix LP-PIN index 10 permit 100.0.0.0/16 ge 24 le 24\n"
      "route-policy ISP-IN-0 node 7 permit\n"
      " match ip-prefix LP-PIN\n"
      " apply local-pref 150\n";
  IntentSet intents;
  intents.rclIntents = {"PRE = POST", "forall device: PRE = POST"};

  struct Digests {
    std::string base, updated, ribEqual, forallDevice;
    size_t rows = 0;
  };
  const auto run = [&](bool incremental) {
    Hoyan hoyan(wan.topology, wan.configs);
    hoyan.setInputRoutes(inputs);
    DistSimOptions options;
    options.workers = 3;
    options.routeSubtasks = 8;
    hoyan.setSimulationOptions(options);
    if (incremental) hoyan.enableIncremental();
    hoyan.preprocess();
    const ChangeVerificationResult result = hoyan.verifyChange(plan, intents);
    EXPECT_EQ(result.rclOutcomes.size(), 2u);
    Digests digests;
    digests.rows = hoyan.baseGlobalRib().size();
    digests.base = fnvHex(renderedTable(hoyan.baseGlobalRib()));
    digests.updated =
        fnvHex(renderedTable(rcl::GlobalRib::fromNetworkRibs(result.updatedRibs)));
    for (const RclOutcome& outcome : result.rclOutcomes)
      EXPECT_FALSE(outcome.result.satisfied) << outcome.specification;
    if (result.rclOutcomes.size() == 2) {
      digests.ribEqual = fnvHex(result.rclOutcomes[0].result.summary());
      digests.forallDevice = fnvHex(result.rclOutcomes[1].result.summary());
    }
    return digests;
  };

  for (const bool incremental : {false, true}) {
    const Digests digests = run(incremental);
    EXPECT_EQ(digests.rows, 674u) << "engine " << incremental;
    EXPECT_EQ(digests.base, "02ee0273a6b7c1a3") << "engine " << incremental;
    EXPECT_EQ(digests.updated, "99fdd581cff4c02b") << "engine " << incremental;
    EXPECT_EQ(digests.ribEqual, "c78cd79e9eb89c17") << "engine " << incremental;
    EXPECT_EQ(digests.forallDevice, "e89019f638c11a02") << "engine " << incremental;
    if (::testing::Test::HasFailure())
      std::printf("actual pins (engine %s): rows %zu base %s updated %s "
                  "PRE=POST %s forall-device %s\n",
                  incremental ? "on" : "off", digests.rows, digests.base.c_str(),
                  digests.updated.c_str(), digests.ribEqual.c_str(),
                  digests.forallDevice.c_str());
  }
}

}  // namespace
}  // namespace hoyan
