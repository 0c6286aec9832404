// RCL language tests: the Fig. 6 running example, every §4.3 use case, the
// full construct matrix, parser errors, counter-examples, and a semantics
// property test against a brute-force oracle.
#include <gtest/gtest.h>

#include <random>
#include <regex>

#include "rcl/parser.h"
#include "rcl/verify.h"

namespace hoyan::rcl {
namespace {

// Builds the Fig. 6 example global RIBs.
RibRow row(const std::string& device, const std::string& vrf, const std::string& prefix,
           const std::vector<std::string>& communities, uint32_t localPref,
           const std::string& nexthop) {
  RibRow r;
  r.device = device;
  r.vrf = vrf;
  r.prefix = *Prefix::parse(prefix);
  for (const std::string& community : communities)
    r.communities.insert(*Community::parse(community));
  r.localPref = localPref;
  r.nexthop = *IpAddress::parse(nexthop);
  r.routeType = RouteType::kBest;
  return r;
}

class Fig6Test : public ::testing::Test {
 protected:
  void SetUp() override {
    base_.add(row("A", "global", "10.0.0.0/24", {"100:1"}, 100, "2.0.0.1"));
    base_.add(row("A", "vrf1", "20.0.0.0/24", {"100:1", "200:1"}, 10, "3.0.0.1"));
    base_.add(row("B", "global", "10.0.0.0/24", {"100:1"}, 200, "4.0.0.1"));
    updated_.add(row("A", "global", "10.0.0.0/24", {"100:1"}, 300, "2.0.0.1"));
    updated_.add(row("A", "vrf1", "20.0.0.0/24", {"100:1", "200:1"}, 10, "3.0.0.1"));
    updated_.add(row("B", "global", "10.0.0.0/24", {"100:1"}, 300, "4.0.0.1"));
  }

  CheckResult check(const std::string& spec) {
    return checkIntentText(spec, base_, updated_);
  }

  GlobalRib base_;
  GlobalRib updated_;
};

TEST_F(Fig6Test, Section41IntentA) {
  // Routes with prefix 10.0.0.0/24 have local preference 300 after the change.
  const CheckResult result =
      check("prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, Section41IntentB) {
  // Routes with other prefixes remain unchanged.
  const CheckResult result = check("prefix != 10.0.0.0/24 => PRE = POST");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, IntentAViolatedWhenValueWrong) {
  const CheckResult result =
      check("prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {400}");
  EXPECT_FALSE(result.satisfied);
  ASSERT_FALSE(result.violations.empty());
  // The counter-example carries the actual distinct values.
  EXPECT_NE(result.violations[0].message.find("{300}"), std::string::npos)
      << result.violations[0].message;
  EXPECT_FALSE(result.violations[0].exampleRows.empty());
}

TEST_F(Fig6Test, UnchangedIntentViolatedWhenRibsDiffer) {
  // The full RIBs differ (localPref changed on 10.0.0.0/24).
  const CheckResult result = check("PRE = POST");
  EXPECT_FALSE(result.satisfied);
}

TEST_F(Fig6Test, UseCaseValidatingUnchangedRoutes) {
  const CheckResult result = check(
      "forall device in {A, B}: forall prefix in {10.0.0.0/24, 20.0.0.0/24}: "
      "routeType = BEST => "
      "PRE |> distVals(nexthop) = POST |> distVals(nexthop)");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, UseCaseValidatingRouteChangeSuccess) {
  // No route containing community 100:1 on device B: violated (B has one).
  const CheckResult violated =
      check("forall device in {B}: POST || (communities contains 100:1) |> count() = 0");
  EXPECT_FALSE(violated.satisfied);
  // Community 999:9 is absent: satisfied.
  const CheckResult satisfied =
      check("forall device in {A, B}: POST || (communities contains 999:9) |> count() = 0");
  EXPECT_TRUE(satisfied.satisfied) << satisfied.summary();
}

TEST_F(Fig6Test, UseCaseConditionalChange) {
  const CheckResult result = check(
      "forall device in {A, B}: forall prefix: "
      "(PRE |> distVals(nexthop) = {2.0.0.1}) imply "
      "(POST |> distVals(nexthop) = {2.0.0.1})");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, ForallGroupsByFieldValues) {
  // Each (device, prefix) group has exactly one distinct nexthop.
  const CheckResult result =
      check("forall device: forall prefix: POST |> distCnt(nexthop) = 1");
  EXPECT_TRUE(result.satisfied) << result.summary();
}

TEST_F(Fig6Test, CountAndArithmetic) {
  EXPECT_TRUE(check("POST |> count() = 3").satisfied);
  EXPECT_TRUE(check("POST |> count() = PRE |> count()").satisfied);
  EXPECT_TRUE(check("POST |> count() + 1 = 4").satisfied);
  EXPECT_TRUE(check("POST |> count() * 2 = 6").satisfied);
  EXPECT_TRUE(check("POST |> count() - 1 = 2").satisfied);
  EXPECT_TRUE(check("POST |> count() / 3 = 1").satisfied);
  EXPECT_TRUE(check("POST |> count() >= 3").satisfied);
  EXPECT_FALSE(check("POST |> count() < 3").satisfied);
}

TEST_F(Fig6Test, FilterTransformChains) {
  EXPECT_TRUE(check("POST || device = A |> count() = 2").satisfied);
  EXPECT_TRUE(check("POST || device = A || vrf = vrf1 |> count() = 1").satisfied);
  EXPECT_TRUE(check("POST || (device = A and vrf = global) |> count() = 1").satisfied);
}

TEST_F(Fig6Test, PredicateOperators) {
  EXPECT_TRUE(check("vrf = vrf1 => POST |> distVals(localPref) = {10}").satisfied);
  EXPECT_TRUE(check("localPref >= 300 => POST |> distCnt(device) = 2").satisfied);
  EXPECT_TRUE(
      check("communities contains 200:1 => POST |> distVals(prefix) = {20.0.0.0/24}")
          .satisfied);
  EXPECT_TRUE(check("device in {A} and vrf in {vrf1} => POST |> count() = 1").satisfied);
  EXPECT_TRUE(check("prefix matches \"^20\" => POST |> count() = 1").satisfied);
  EXPECT_TRUE(check("not device = A => POST |> count() = 1").satisfied);
}

TEST_F(Fig6Test, BooleanIntentComposition) {
  EXPECT_TRUE(check("POST |> count() = 3 and PRE |> count() = 3").satisfied);
  EXPECT_TRUE(check("POST |> count() = 99 or PRE |> count() = 3").satisfied);
  EXPECT_FALSE(check("not PRE |> count() = 3").satisfied);
  EXPECT_TRUE(check("POST |> count() = 99 imply PRE |> count() = 55").satisfied);
}

TEST_F(Fig6Test, RibInequality) {
  EXPECT_TRUE(check("PRE != POST").satisfied);
  EXPECT_FALSE(check("PRE != PRE").satisfied);
  EXPECT_TRUE(check("PRE || vrf = vrf1 = POST || vrf = vrf1").satisfied);
}

TEST(RclParserTest, ReportsErrors) {
  EXPECT_FALSE(parseIntent("").ok());
  EXPECT_FALSE(parseIntent("prefix = ").ok());
  EXPECT_FALSE(parseIntent("bogusfield = 3 => PRE = POST").ok());
  EXPECT_FALSE(parseIntent("PRE > POST").ok());  // RIBs compare only =/!=.
  EXPECT_FALSE(parseIntent("POST |> bogusFunc() = 1").ok());
  EXPECT_FALSE(parseIntent("forall prefix POST |> count() = 1").ok());  // Missing ':'.
  EXPECT_FALSE(parseIntent("PRE = POST trailing").ok());
}

// `matches` compiles its regex when the parser builds the predicate: an
// invalid one is a located parse error, not a guard that silently matches no
// row (which made the intent below vacuously satisfied).
TEST(RclParserTest, InvalidMatchesRegexIsALocatedParseError) {
  const ParseOutcome bad =
      parseIntent("aspath matches \"(unclosed\" => PRE |> count() = POST |> count()");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("column 16: bad regex \"(unclosed\""), std::string::npos)
      << bad.error;
  const ParseOutcome filtered = parseIntent("POST || (prefix matches \"[\") |> count() = 0");
  ASSERT_FALSE(filtered.ok());
  EXPECT_NE(filtered.error.find("column 25: bad regex"), std::string::npos)
      << filtered.error;

  const ParseOutcome good = parseIntent("prefix matches \"^20\" => POST |> count() = 1");
  ASSERT_TRUE(good.ok()) << good.error;
  EXPECT_TRUE(good.intent->guard->compiledRegex);
}

// A pattern std::regex accepts but the matching automaton does not model is
// the same located parse error as one std::regex rejects.
TEST(RclParserTest, UnsupportedMatchesRegexIsALocatedParseError) {
  const ParseOutcome lookahead =
      parseIntent("aspath matches \"1(?=2)\" => PRE |> count() = POST |> count()");
  ASSERT_FALSE(lookahead.ok());
  EXPECT_NE(lookahead.error.find("column 16: bad regex \"1(?=2)\""), std::string::npos)
      << lookahead.error;
  EXPECT_NE(lookahead.error.find("unsupported"), std::string::npos) << lookahead.error;
}

// `matches` runs on the as-path automaton: it searches the row's own text
// for device, vrf and aspath and the rendered value of every other field.
// Each field of three varied rows, under patterns aimed at every field's
// text, must give std::regex_search's verdict on that field's render.
TEST(RclMatchesTest, AutomatonAgreesWithStdRegexOnEveryField) {
  std::vector<RibRow> rows;
  {
    RibRow r = row("t-C1", "global", "100.1.0.0/16", {"100:1", "65000:20"}, 200, "9.0.0.4");
    r.med = 5;
    r.igpCost = 20;
    r.asPath = AsPath({65000, 100});
    r.origin = BgpOrigin::kIgp;
    rows.push_back(r);
  }
  {
    RibRow r = row("BR-2", "mgmt", "2001:db8::/32", {}, 100, "2001:db8::1");
    r.weight = 32768;
    r.asPath = AsPath({64512});
    r.asPath.appendSet({65001, 65002});
    r.routeType = RouteType::kEcmp;
    r.protocol = Protocol::kIsis;
    r.origin = BgpOrigin::kEgp;
    rows.push_back(r);
  }
  {
    RibRow r = row("dc1", "global", "9.0.0.3/32", {}, 100, "0.0.0.0");
    r.routeType = RouteType::kAlternate;
    r.protocol = Protocol::kDirect;
    rows.push_back(r);
  }
  const std::vector<std::string> patterns = {
      "^65000", "100$", "^$", ".*", "t-", "^BR-[0-9]", "glob|mgmt", "^100\\.1\\.",
      ":", "::", "^2001", "^9\\.0\\.0\\.[0-9]+$", "^20$", "^[0-9]{3}$", "5",
      "65000:20", "\\{", "\\d+ \\d+", "BEST|ECMP", "^(isis|bgp)$", "incomplete",
      "^igp$", "[[:alpha:]]+", "\\s", "a*", "(0|1)+$", "/32$", "^[^0-9]"};
  const std::vector<Field> fields = {
      Field::kDevice,   Field::kVrf,     Field::kPrefix,      Field::kNexthop,
      Field::kLocalPref, Field::kMed,    Field::kWeight,      Field::kIgpCost,
      Field::kCommunities, Field::kAsPath, Field::kRouteType, Field::kProtocol,
      Field::kOrigin};
  size_t verdicts = 0;
  size_t matched = 0;
  for (const std::string& pattern : patterns) {
    const std::regex oracle(pattern);
    for (const Field field : fields) {
      const PredicatePtr predicate = Predicate::matches(field, pattern);
      for (const RibRow& r : rows) {
        const std::string text = r.fieldValue(field).render();
        const bool expected = std::regex_search(text, oracle);
        EXPECT_EQ(predicate->eval(r), expected)
            << fieldName(field) << " matches \"" << pattern << "\" on \"" << text << "\"";
        ++verdicts;
        matched += expected;
      }
    }
  }
  EXPECT_EQ(verdicts, patterns.size() * fields.size() * rows.size());
  EXPECT_GT(matched, verdicts / 10);
  EXPECT_LT(matched, verdicts * 4 / 5);
}

TEST(RclParserTest, SizeMetricCountsInternalNodes) {
  // A guarded intent: guard (1 internal: the comparison) + guard node +
  // compare node + aggregate node...
  const ParseOutcome simple = parseIntent("PRE = POST");
  ASSERT_TRUE(simple.ok());
  EXPECT_EQ(simple.intent->internalNodes(), 1u);
  const ParseOutcome guarded =
      parseIntent("prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}");
  ASSERT_TRUE(guarded.ok());
  // guard(=>)=1 + predicate(=)=1 + evalCompare(=)=1 + aggregate(|>)=1 -> 4.
  EXPECT_EQ(guarded.intent->internalNodes(), 4u);
  // >90% of production specs are below 15 — a representative nested spec
  // stays compact.
  const ParseOutcome nested = parseIntent(
      "forall device in {R1, R2}: forall prefix: "
      "(PRE |> distVals(nexthop) = {1.2.3.4}) imply "
      "(POST |> distVals(nexthop) = {10.2.3.4})");
  ASSERT_TRUE(nested.ok());
  EXPECT_LT(nested.intent->internalNodes(), 15u);
}

TEST(RclParserTest, RoundTripThroughStr) {
  const char* specs[] = {
      "prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}",
      "forall device: forall prefix: POST |> distCnt(nexthop) = 1",
      "POST || (communities contains 100:1) |> count() = 0",
      "PRE != POST",
  };
  for (const char* spec : specs) {
    const ParseOutcome first = parseIntent(spec);
    ASSERT_TRUE(first.ok()) << spec << ": " << first.error;
    const ParseOutcome second = parseIntent(first.intent->str());
    ASSERT_TRUE(second.ok()) << first.intent->str() << ": " << second.error;
    EXPECT_EQ(first.intent->str(), second.intent->str());
    EXPECT_EQ(first.intent->internalNodes(), second.intent->internalNodes());
  }
}

TEST(RclParserTest, ParseFailureSurfacesAsViolation) {
  GlobalRib empty;
  const CheckResult result = checkIntentText("((", empty, empty);
  EXPECT_FALSE(result.satisfied);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_NE(result.violations[0].message.find("parse error"), std::string::npos);
}

TEST(RclSemanticsTest, ForallBindingAppearsInCounterexampleContext) {
  GlobalRib base, updated;
  base.add(row("R1", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  base.add(row("R2", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  updated.add(row("R1", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  updated.add(row("R2", "global", "10.0.0.0/24", {}, 100, "9.9.9.9"));
  const CheckResult result = checkIntentText(
      "forall device: PRE |> distVals(nexthop) = POST |> distVals(nexthop)", base,
      updated);
  EXPECT_FALSE(result.satisfied);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_EQ(result.violations[0].context, "device=R2");
}

TEST(RclSemanticsTest, EmptyGroupsAreCheckedAgainstAggregates) {
  // forall over explicit values includes values with no matching rows: the
  // sub-intent then sees empty RIBs (count 0).
  GlobalRib base, updated;
  updated.add(row("R1", "global", "10.0.0.0/24", {}, 100, "1.1.1.1"));
  const CheckResult zero = checkIntentText(
      "forall device in {R-ABSENT}: POST |> count() = 0", base, updated);
  EXPECT_TRUE(zero.satisfied) << zero.summary();
  const CheckResult nonzero = checkIntentText(
      "forall device in {R-ABSENT}: POST |> count() >= 1", base, updated);
  EXPECT_FALSE(nonzero.satisfied);
}

// Property test: distCnt == |distVals| and count >= distCnt, on random RIBs.
TEST(RclSemanticsTest, AggregateConsistencyProperty) {
  std::mt19937 rng(7);
  GlobalRib base, updated;
  const char* devices[] = {"R1", "R2", "R3"};
  for (int i = 0; i < 60; ++i) {
    RibRow r = row(devices[rng() % 3], "global",
                   "10." + std::to_string(rng() % 4) + ".0.0/16", {},
                   100 * (rng() % 3 + 1), "1.1.1." + std::to_string(rng() % 5));
    (rng() % 2 ? base : updated).add(r);
  }
  for (const char* field : {"device", "prefix", "nexthop", "localPref"}) {
    for (const char* side : {"PRE", "POST"}) {
      const std::string spec = std::string(side) + " |> distCnt(" + field + ") = " +
                               std::string(side) + " |> distCnt(" + field + ")";
      EXPECT_TRUE(checkIntentText(spec, base, updated).satisfied);
    }
  }
  // count >= distCnt(nexthop) on both sides.
  EXPECT_TRUE(checkIntentText("PRE |> count() >= PRE |> distCnt(nexthop)", base, updated)
                  .satisfied);
  EXPECT_TRUE(
      checkIntentText("POST |> count() >= POST |> distCnt(nexthop)", base, updated)
          .satisfied);
}

}  // namespace
}  // namespace hoyan::rcl
