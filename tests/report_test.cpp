// Tests for the audit catalogue (§6.2) and the JSON report rendering (the
// REST-API integration surface).
#include <gtest/gtest.h>

#include "core/report_json.h"
#include "obs/json.h"
#include "scenario/audit_catalog.h"
#include "scenario/scenarios.h"

namespace hoyan {
namespace {

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
  const std::string json = toJson(plan.name, result);
  EXPECT_NE(json.find("\"plan\":\"json-check\""), std::string::npos);
  EXPECT_NE(json.find("\"satisfied\":false"), std::string::npos);
  EXPECT_NE(json.find("commandErrors"), std::string::npos);
  EXPECT_NE(json.find("broken-command"), std::string::npos);
  // Balanced braces/brackets (cheap structural sanity).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(ReportTest, JsonForSatisfiedChangeIsCompact) {
  ChangePlan plan;
  IntentSet intents;
  intents.rclIntents = {"PRE = POST"};
  const ChangeVerificationResult result = hoyan_->verifyChange(plan, intents);
  const std::string json = toJson("noop", result);
  EXPECT_NE(json.find("\"satisfied\":true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos);
}

}  // namespace
}  // namespace hoyan
