// Tests for the Hoyan facade: config-text construction, change-plan command
// application, preprocessing, verification plumbing, audits, RCL corpus.
#include <gtest/gtest.h>

#include "config/printer.h"
#include "core/hoyan.h"
#include "gen/rcl_corpus.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "obs/run_registry.h"
#include "rcl/parser.h"
#include "test_fixtures.h"

namespace hoyan {
namespace {

using testing::buildSmallWan;
using testing::ispRoute;
using testing::SmallWan;

TEST(ChangeCommandsTest, SectionsRouteToTargetDevices) {
  SmallWan net = buildSmallWan();
  const auto errors = applyChangeCommands(net.topology, net.configs,
                                          "device t-C1\n"
                                          "static-route 60.0.0.0/8 discard\n"
                                          "device t-C2\n"
                                          "static-route 61.0.0.0/8 discard\n");
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(net.configs.device(net.c1).staticRoutes.size(), 1u);
  EXPECT_EQ(net.configs.device(net.c2).staticRoutes.size(), 1u);
  EXPECT_EQ(net.configs.device(net.c1).staticRoutes[0].prefix.str(), "60.0.0.0/8");
}

TEST(ChangeCommandsTest, UnknownDeviceAndStraySectionsError) {
  SmallWan net = buildSmallWan();
  const auto errors = applyChangeCommands(net.topology, net.configs,
                                          "static-route 60.0.0.0/8 discard\n"
                                          "device t-NOPE\n"
                                          "static-route 61.0.0.0/8 discard\n");
  EXPECT_EQ(errors.size(), 2u);  // Command outside a section + unknown device.
}

TEST(ChangeCommandsTest, ErrorsCarrySectionLineNumbers) {
  SmallWan net = buildSmallWan();
  const auto errors = applyChangeCommands(net.topology, net.configs,
                                          "device t-C1\n"
                                          "static-route 60.0.0.0/8 discard\n"
                                          "not-a-command\n");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].line, 3);
}

class HoyanFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = buildSmallWan();
    hoyan_ = std::make_unique<Hoyan>(net_.topology, net_.configs);
    hoyan_->setInputRoutes({ispRoute(net_, "100.1.0.0/16"),
                            ispRoute(net_, "100.2.0.0/16")});
    Flow flow;
    flow.ingressDevice = net_.c2;
    flow.src = *IpAddress::parse("20.0.0.1");
    flow.dst = *IpAddress::parse("100.1.2.3");
    flow.dstPort = 80;
    flow.volumeBps = 1000;
    hoyan_->setInputFlows({flow});
    hoyan_->preprocess();
  }

  SmallWan net_;
  std::unique_ptr<Hoyan> hoyan_;
};

TEST_F(HoyanFacadeTest, PreprocessBuildsBaseState) {
  EXPECT_GT(hoyan_->baseRibs().routeCount(), 0u);
  EXPECT_GT(hoyan_->baseGlobalRib().size(), 0u);
  EXPECT_GT(hoyan_->baseLinkLoads().size(), 0u);
}

// Registration keeps the inputs in split order (sortForSplit): routes by the
// last address of their prefix, then by prefix; flows by destination. Ties
// (same prefix, same destination) keep their registration order.
TEST_F(HoyanFacadeTest, InputsAreKeptInSplitOrderWithTiesInRegistrationOrder) {
  Hoyan hoyan(net_.topology, net_.configs);
  hoyan.setInputRoutes({ispRoute(net_, "100.2.0.0/16"), ispRoute(net_, "100.1.0.0/16", 7),
                        ispRoute(net_, "100.1.128.0/17"), ispRoute(net_, "100.1.0.0/24"),
                        ispRoute(net_, "100.1.0.0/16", 9)});
  std::vector<std::string> routes;
  for (const InputRoute& input : hoyan.inputRoutes())
    routes.push_back(input.route.prefix.str() + " med " + std::to_string(input.route.attrs.med));
  EXPECT_EQ(routes, (std::vector<std::string>{"100.1.0.0/24 med 0", "100.1.0.0/16 med 7",
                                               "100.1.0.0/16 med 9", "100.1.128.0/17 med 0",
                                               "100.2.0.0/16 med 0"}));

  std::vector<Flow> flows;
  uint16_t port = 0;
  for (const char* dst : {"100.2.0.1", "100.1.2.3", "100.0.0.1", "100.1.2.3"}) {
    Flow flow;
    flow.ingressDevice = net_.c2;
    flow.dst = *IpAddress::parse(dst);
    flow.dstPort = ++port;  // Registration order.
    flows.push_back(flow);
  }
  hoyan.setInputFlows(flows);
  std::vector<uint16_t> ports;
  for (const Flow& flow : hoyan.inputFlows()) ports.push_back(flow.dstPort);
  EXPECT_EQ(ports, (std::vector<uint16_t>{3, 2, 4, 1}));
}

TEST_F(HoyanFacadeTest, VerifyRequiresPreprocess) {
  Hoyan fresh(net_.topology, net_.configs);
  EXPECT_THROW(fresh.verifyChange({}, {}), std::logic_error);
}

TEST_F(HoyanFacadeTest, NoOpChangeSatisfiesUnchangedIntent) {
  ChangePlan plan;
  IntentSet intents;
  intents.rclIntents = {"PRE = POST"};
  const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
  EXPECT_TRUE(result.satisfied()) << result.report();
}

TEST_F(HoyanFacadeTest, CommandErrorFailsVerification) {
  ChangePlan plan;
  plan.commands = "device t-BR1\nbroken-command\n";
  IntentSet intents;
  const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
  EXPECT_FALSE(result.satisfied());
  ASSERT_EQ(result.commandErrors.size(), 1u);
}

TEST_F(HoyanFacadeTest, ViolationProducesCounterexampleRoutes) {
  ChangePlan plan;
  plan.commands = "device t-BR1\n"
                  "route-policy ISP-BLOCK node 10 deny\n"
                  "router bgp 64512\n"
                  " neighbor " + net_.ispLinkAddr.str() + " import-policy ISP-BLOCK\n";
  IntentSet intents;
  intents.rclIntents = {"PRE = POST"};
  const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
  EXPECT_FALSE(result.satisfied());
  ASSERT_FALSE(result.rclOutcomes.empty());
  const auto& violations = result.rclOutcomes[0].result.violations;
  ASSERT_FALSE(violations.empty());
  EXPECT_FALSE(violations[0].exampleRows.empty());
}

// Subtasks that run out of retries leave RIBs with holes; a verdict computed
// from them is meaningless. verifyChange and preprocess throw instead, naming
// the subtasks, and close their journal run first so the live registry
// settles the run as failed.
TEST_F(HoyanFacadeTest, ExhaustedSubtasksThrowInsteadOfReturningAVerdict) {
  ChangePlan plan;
  plan.name = "static-under-crashes";
  plan.commands = "device t-C1\nstatic-route 10.9.0.0/24 nexthop 9.0.0.1\n";
  IntentSet intents;
  intents.rclIntents = {"prefix = 100.1.0.0/16 => POST |> count() <= 0"};
  // Healthy workers install the ISP route, so the intent fails.
  EXPECT_FALSE(hoyan_->verifyChange(plan, intents).satisfied());

  obs::Telemetry context;
  obs::RunRegistry registry;
  context.attach(&registry);
  hoyan_->setTelemetry(&context);
  DistSimOptions crashing;
  crashing.workerFailureProbability = 1.0;
  crashing.maxAttempts = 2;
  crashing.routeSubtasks = 4;
  hoyan_->setSimulationOptions(crashing);
  const auto expectFailedRun = [&](const std::string& name) {
    const auto run = registry.snapshot(registry.currentRunId());
    ASSERT_TRUE(run.has_value());
    EXPECT_EQ(run->name, name);
    EXPECT_EQ(run->state, "failed");
    EXPECT_EQ(run->running, 0u);
    EXPECT_GT(run->exhausted, 0u);
  };
  try {
    const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
    ADD_FAILURE() << "verdict from crashed subtasks: " << result.report();
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("route-"), std::string::npos)
        << error.what();
  }
  expectFailedRun(plan.name);

  EXPECT_THROW(hoyan_->preprocess(), std::runtime_error);
  expectFailedRun("preprocess");
  hoyan_->setTelemetry(nullptr);
}

TEST_F(HoyanFacadeTest, AuditTasksRunOnBaseRibs) {
  const auto outcomes = hoyan_->runAuditTasks({
      "POST |> count() >= 1",                       // Holds.
      "POST || prefix = 100.1.0.0/16 |> distCnt(device) >= 4",  // Holds.
      "POST || prefix = 55.0.0.0/8 |> count() >= 1",            // Violated.
  });
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].result.satisfied);
  EXPECT_TRUE(outcomes[1].result.satisfied);
  EXPECT_FALSE(outcomes[2].result.satisfied);
}

TEST_F(HoyanFacadeTest, FaultToleranceFacade) {
  const KFailureResult result = hoyan_->checkFaultTolerance(
      [&](const NetworkModel& model, const NetworkRibs& ribs) {
        return dataPlaneReachable(model, ribs, net_.c2,
                                  *IpAddress::parse("100.1.2.3"));
      },
      KFailureOptions{.k = 1, .maxCounterexamples = 3});
  EXPECT_FALSE(result.holds());  // The single-homed ISP link is a SPOF.
}

TEST(HoyanFromTextTest, BuildsFromRenderedConfigs) {
  WanSpec spec;
  spec.regions = 2;
  const GeneratedWan wan = generateWan(spec);
  std::vector<std::string> texts;
  for (const auto& [name, config] : wan.configs.devices())
    texts.push_back(printDeviceConfig(config, wan.topology.findDevice(name)));
  // Strip configs: keep only topology skeleton (devices/links); interfaces
  // come back from the parsed text.
  Topology bare = wan.topology;
  Hoyan hoyan = Hoyan::fromConfigTexts(std::move(bare), texts);
  WorkloadSpec workload;
  workload.prefixesPerIsp = 4;
  workload.prefixesPerDc = 2;
  workload.v6Share = 0;
  hoyan.setInputRoutes(generateInputRoutes(wan, workload));
  hoyan.preprocess();
  EXPECT_GT(hoyan.baseRibs().routeCount(), 0u);
  // The text-built model derives the same session count as the direct model.
  EXPECT_EQ(hoyan.baseModel().sessions.size(), wan.buildModel().sessions.size());
}

TEST(RclCorpusTest, FiftySpecsParseWithPaperSizeProfile) {
  WanSpec spec;
  spec.regions = 3;
  const GeneratedWan wan = generateWan(spec);
  const auto corpus = generateRclCorpus(wan, 50);
  ASSERT_EQ(corpus.size(), 50u);
  size_t below15 = 0;
  for (const std::string& specText : corpus) {
    const rcl::ParseOutcome outcome = rcl::parseIntent(specText);
    ASSERT_TRUE(outcome.ok()) << specText << ": " << outcome.error;
    if (outcome.intent->internalNodes() < 15) ++below15;
  }
  // Fig. 8 (left): > 90% of specifications are smaller than 15.
  EXPECT_GE(below15 * 100, 90 * corpus.size());
}

}  // namespace
}  // namespace hoyan
