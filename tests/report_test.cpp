// Tests for the audit catalogue (§6.2) and the JSON report rendering (the
// REST-API integration surface).
#include <gtest/gtest.h>

#include "core/report_json.h"
#include "json_testing.h"
#include "obs/json.h"
#include "scenario/audit_catalog.h"
#include "scenario/scenarios.h"

namespace hoyan {
namespace {

using testing::member;
using testing::parseJsonOrFail;

TEST(JsonEscapeTest, EscapesControlAndQuoteCharacters) {
  using obs::jsonEscape;
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(jsonEscape(std::string("x\0y", 3)), "x\\u0000y");
  EXPECT_EQ(jsonEscape("\x1f"), "\\u001f");
}

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    environment_ = new ScenarioEnvironment(makeStandardEnvironment());
    hoyan_ = new Hoyan(makeHoyan(*environment_));
  }
  static void TearDownTestSuite() {
    delete hoyan_;
    delete environment_;
  }
  static ScenarioEnvironment* environment_;
  static Hoyan* hoyan_;
};
ScenarioEnvironment* ReportTest::environment_ = nullptr;
Hoyan* ReportTest::hoyan_ = nullptr;

TEST_F(ReportTest, AuditCatalogIsCleanOnHealthyNetwork) {
  const auto catalog = buildAuditCatalog(environment_->wan);
  EXPECT_GE(catalog.size(), 24u);  // "dozens of auditing tasks".
  const AuditReport report = runAuditCatalog(*hoyan_, catalog);
  EXPECT_EQ(report.tasksRun, catalog.size());
  EXPECT_TRUE(report.clean()) << report.str();
}

TEST_F(ReportTest, AuditCatalogCatchesInjectedInconsistency) {
  // Re-preprocess with a doctored config: BR-1-0 stops tagging its region
  // community (an inconsistent route policy across the group, §6.2's
  // example finding).
  ScenarioEnvironment doctored = *environment_;
  DeviceConfig& border = doctored.wan.configs.device(Names::id("BR-1-0"));
  RoutePolicy& policy = border.routePolicy(Names::id("ISP-IN-1"));
  for (PolicyNode& node : policy.nodes) node.sets.addCommunities.clear();
  Hoyan hoyan = makeHoyan(doctored);
  const AuditReport report = runAuditCatalog(hoyan, buildAuditCatalog(doctored.wan));
  EXPECT_FALSE(report.clean());
  bool tagged = false;
  for (const auto& [task, result] : report.findings)
    if (task.name == "border-1-tags-region-community") tagged = true;
  EXPECT_TRUE(tagged) << report.str();
}

TEST_F(ReportTest, JsonReportRoundTripsKeyFields) {
  ChangePlan plan;
  plan.name = "json-check";
  plan.commands = "device BR-0-0\nbroken-command\n";
  IntentSet intents;
  intents.rclIntents = {"PRE = POST"};
  const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
  const obs::JsonValue root = parseJsonOrFail(toJson(plan.name, result));
  ASSERT_EQ(root.kind, obs::JsonValue::Kind::kObject);
  EXPECT_EQ(member(root, "plan").text, "json-check");
  EXPECT_EQ(member(root, "satisfied").kind, obs::JsonValue::Kind::kBool);
  EXPECT_FALSE(member(root, "satisfied").boolean);
  const std::vector<obs::JsonValue>& errors = member(root, "commandErrors").items;
  ASSERT_EQ(errors.size(), result.commandErrors.size());
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].text, result.commandErrors[0].str());
  EXPECT_NE(errors[0].text.find("broken-command"), std::string::npos);
  const obs::JsonValue& routeSim = member(root, "routeSim");
  EXPECT_EQ(member(routeSim, "installedRoutes").number,
            static_cast<double>(result.routeStats.installedRoutes));
  EXPECT_EQ(member(routeSim, "converged").boolean, result.routeStats.converged);
  EXPECT_EQ(member(member(root, "trafficSim"), "inputFlows").number,
            static_cast<double>(result.trafficStats.inputFlows));
  const std::vector<obs::JsonValue>& rcl = member(root, "rcl").items;
  ASSERT_EQ(rcl.size(), result.rclOutcomes.size());
  for (size_t i = 0; i < rcl.size(); ++i) {
    EXPECT_EQ(member(rcl[i], "spec").text, result.rclOutcomes[i].specification);
    EXPECT_EQ(member(rcl[i], "satisfied").boolean, result.rclOutcomes[i].result.satisfied);
  }
  EXPECT_EQ(member(root, "pathViolations").kind, obs::JsonValue::Kind::kArray);
  EXPECT_EQ(member(root, "loadViolations").kind, obs::JsonValue::Kind::kArray);
}

TEST_F(ReportTest, JsonForSatisfiedChangeIsCompact) {
  ChangePlan plan;
  IntentSet intents;
  intents.rclIntents = {"PRE = POST"};
  const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
  const std::string json = toJson("noop", result);
  EXPECT_NE(json.find("\"satisfied\":true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos);
  const obs::JsonValue root = parseJsonOrFail(json);
  EXPECT_TRUE(member(root, "satisfied").boolean);
  EXPECT_TRUE(member(root, "commandErrors").items.empty());
  const std::vector<obs::JsonValue>& rcl = member(root, "rcl").items;
  ASSERT_EQ(rcl.size(), 1u);
  EXPECT_EQ(member(rcl[0], "spec").text, "PRE = POST");
  EXPECT_TRUE(member(rcl[0], "satisfied").boolean);
  EXPECT_EQ(member(rcl[0], "violations").kind, obs::JsonValue::Kind::kArray);
  EXPECT_TRUE(member(rcl[0], "violations").items.empty());
}

}  // namespace
}  // namespace hoyan
