// RCL semantic property tests: evaluator identities checked against direct
// semantics on randomized global RIBs, parameterized field-accessor sweeps,
// grammar corner cases, value rows against their renders, and prefiltered
// against full-scan evaluation on simulated RIBs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "core/hoyan.h"
#include "gen/wan_gen.h"
#include "gen/workload_gen.h"
#include "incr/engine.h"
#include "rcl/parser.h"
#include "rcl/verify.h"

namespace hoyan::rcl {
namespace {

GlobalRib randomRib(unsigned seed, size_t rows) {
  std::mt19937 rng(seed);
  GlobalRib rib;
  const char* devices[] = {"R1", "R2", "R3", "R4"};
  const char* vrfs[] = {"global", "vrf1"};
  for (size_t i = 0; i < rows; ++i) {
    RibRow row;
    row.device = devices[rng() % 4];
    row.vrf = vrfs[rng() % 2];
    row.prefix = Prefix(IpAddress::v4((10u << 24) | ((rng() % 8) << 16)), 16);
    row.nexthop = *IpAddress::parse("1.1.1." + std::to_string(rng() % 4));
    row.localPref = 100 * (rng() % 3 + 1);
    row.med = rng() % 4 * 5;
    row.weight = rng() % 2 * 100;
    row.igpCost = rng() % 50;
    if (rng() % 2) row.communities.insert(Community(100, rng() % 3));
    row.asPath = AsPath({65000 + static_cast<Asn>(rng() % 3)});
    row.routeType = rng() % 3 == 0 ? RouteType::kEcmp : RouteType::kBest;
    row.protocol = rng() % 4 == 0 ? Protocol::kStatic : Protocol::kBgp;
    rib.add(std::move(row));
  }
  return rib;
}

// Property: a guarded intent equals evaluating the body on pre-filtered RIBs.
TEST(RclPropertyTest, GuardEqualsManualFilter) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const GlobalRib base = randomRib(seed, 40);
    const GlobalRib updated = randomRib(seed + 100, 40);
    const auto filterByDevice = [](const GlobalRib& rib, const std::string& device) {
      GlobalRib out;
      for (const RibRow& row : rib.rows())
        if (row.device == device) out.add(row);
      return out;
    };
    const std::string body = "PRE |> count() = POST |> count()";
    const CheckResult guarded =
        checkIntentText("device = R1 => " + body, base, updated);
    const CheckResult manual = checkIntentText(body, filterByDevice(base, "R1"),
                                               filterByDevice(updated, "R1"));
    EXPECT_EQ(guarded.satisfied, manual.satisfied) << "seed " << seed;
  }
}

// Property: forall over a field equals the conjunction over its value set.
TEST(RclPropertyTest, ForallEqualsConjunction) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const GlobalRib base = randomRib(seed, 40);
    const GlobalRib updated = randomRib(seed + 100, 40);
    const std::string body = "PRE |> distCnt(nexthop) >= POST |> distCnt(nexthop)";
    const CheckResult whole = checkIntentText("forall device: " + body, base, updated);
    bool conjunction = true;
    for (const char* device : {"R1", "R2", "R3", "R4"}) {
      const CheckResult part = checkIntentText(
          std::string("device = ") + device + " => " + body, base, updated);
      conjunction = conjunction && part.satisfied;
    }
    EXPECT_EQ(whole.satisfied, conjunction) << "seed " << seed;
  }
}

// Property: De Morgan over intents — not (a and b) == (not a) or (not b).
TEST(RclPropertyTest, DeMorganOverIntents) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const GlobalRib base = randomRib(seed, 30);
    const GlobalRib updated = randomRib(seed + 100, 30);
    const std::string a = "PRE |> count() >= 15";
    const std::string b = "POST |> distCnt(device) >= 3";
    const CheckResult lhs =
        checkIntentText("not (" + a + " and " + b + ")", base, updated);
    const CheckResult rhs =
        checkIntentText("not (" + a + ") or not (" + b + ")", base, updated);
    EXPECT_EQ(lhs.satisfied, rhs.satisfied) << "seed " << seed;
  }
}

// Property: PRE = POST iff both directions of containment-ish counting hold
// on identical RIBs; identical inputs always satisfy equality.
TEST(RclPropertyTest, RibEqualityReflexive) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const GlobalRib rib = randomRib(seed, 25);
    EXPECT_TRUE(checkIntentText("PRE = POST", rib, rib).satisfied);
    EXPECT_FALSE(checkIntentText("PRE != POST", rib, rib).satisfied);
  }
}

// Property: filtering never increases count; chained filters compose.
TEST(RclPropertyTest, FilterMonotonicity) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const GlobalRib base = randomRib(seed, 40);
    EXPECT_TRUE(checkIntentText("PRE |> count() >= PRE || device = R1 |> count()",
                                base, base)
                    .satisfied);
    EXPECT_TRUE(checkIntentText(
                    "PRE || device = R1 |> count() >= "
                    "PRE || device = R1 || vrf = vrf1 |> count()",
                    base, base)
                    .satisfied);
    // Filter order commutes.
    EXPECT_TRUE(checkIntentText(
                    "PRE || device = R1 || vrf = vrf1 |> count() = "
                    "PRE || vrf = vrf1 || device = R1 |> count()",
                    base, base)
                    .satisfied);
  }
}

// Parameterized sweep: every field is accessible in predicates and
// aggregates, and distVals/distCnt agree.
class FieldSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FieldSweepTest, DistCntMatchesDistValsCardinality) {
  const GlobalRib base = randomRib(3, 50);
  const std::string field = GetParam();
  // |distVals(f)| == distCnt(f): evaluate via a comparison that must hold.
  const CheckResult result = checkIntentText(
      "PRE |> distCnt(" + field + ") >= 1 and PRE |> distCnt(" + field + ") <= 50",
      base, base);
  EXPECT_TRUE(result.satisfied) << field;
  // The field also works as a forall grouping and a predicate.
  EXPECT_TRUE(checkIntentText("forall " + field + ": PRE |> count() >= 1", base, base)
                  .satisfied)
      << field;
}

INSTANTIATE_TEST_SUITE_P(AllFields, FieldSweepTest,
                         ::testing::Values("device", "vrf", "prefix", "nexthop",
                                           "localPref", "med", "weight", "igpCost",
                                           "aspath", "routeType", "protocol",
                                           "origin"));

// Grammar corners.
TEST(RclGrammarTest, CornerCases) {
  // Empty set literal.
  EXPECT_TRUE(parseIntent("POST |> distVals(nexthop) = {}").ok());
  // Nested parentheses.
  EXPECT_TRUE(parseIntent("((PRE |> count() = 0))").ok());
  // Community values in sets.
  EXPECT_TRUE(parseIntent("POST || communities contains 100:1 |> count() = 0").ok());
  // IPv6 values.
  EXPECT_TRUE(parseIntent("prefix = 2400:db8::/32 => PRE = POST").ok());
  // Chained arithmetic.
  EXPECT_TRUE(parseIntent("PRE |> count() + 1 - 1 * 2 / 2 >= 0").ok());
  // Deeply nested boolean structure.
  EXPECT_TRUE(parseIntent("not (PRE = POST or (POST |> count() = 0 and "
                          "PRE |> count() = 0))")
                  .ok());
}

TEST(RclGrammarTest, EmptySetSemantics) {
  GlobalRib empty;
  GlobalRib one = randomRib(1, 1);
  EXPECT_TRUE(checkIntentText("PRE |> distVals(nexthop) = {}", empty, one).satisfied);
  EXPECT_FALSE(checkIntentText("POST |> distVals(nexthop) = {}", empty, one).satisfied);
}

TEST(RclGrammarTest, SetsCompareOnlyWithEquality) {
  const GlobalRib rib = randomRib(2, 10);
  // Ordered comparison of sets evaluates to false rather than crashing.
  const CheckResult result =
      checkIntentText("PRE |> distVals(nexthop) >= {1.1.1.1}", rib, rib);
  EXPECT_FALSE(result.satisfied);
}

// --- printer/parser round trip ----------------------------------------------

// Generates random grammar-shaped ASTs whose printed form must reparse to an
// equivalent AST. Scalars stick to forms that re-lex canonically: integers
// (non-integer doubles render as "1.500000", which is not a numeric token),
// identifier-safe names, and canonical prefixes/addresses/communities.
class AstGen {
 public:
  explicit AstGen(unsigned seed) : rng_(seed) {}

  IntentPtr intent(int depth) {
    auto node = std::make_shared<Intent>();
    switch (pick(depth > 0 ? 8 : 2)) {
      case 0:
        node->kind = Intent::Kind::kRibCompare;
        node->transformLeft = transform(depth);
        node->transformRight = transform(depth);
        node->ribEqual = pick(2) == 0;
        break;
      case 1:
        node->kind = Intent::Kind::kEvalCompare;
        node->evalLeft = evaluation(depth);
        node->evalRight = evaluation(depth);
        node->op = compareOp();
        break;
      case 2:
        node->kind = Intent::Kind::kGuarded;
        node->guard = predicate(depth - 1);
        node->left = intent(depth - 1);
        break;
      case 3: {
        node->kind = Intent::Kind::kForall;
        node->forallField = field();
        if (pick(2) == 0) {
          ScalarSet values;
          values.insert(Scalar::str("R1"));
          values.insert(Scalar::str("R2"));
          node->forallValues = values;
        }
        node->left = intent(depth - 1);
        break;
      }
      case 4:
      case 5:
      case 6:
        node->kind = pick(3) == 0   ? Intent::Kind::kAnd
                     : pick(2) == 0 ? Intent::Kind::kOr
                                    : Intent::Kind::kImply;
        node->left = intent(depth - 1);
        node->right = intent(depth - 1);
        break;
      default:
        node->kind = Intent::Kind::kNot;
        node->left = intent(depth - 1);
        break;
    }
    return node;
  }

 private:
  size_t pick(size_t n) { return rng_() % n; }

  Field field() {
    static const Field kFields[] = {Field::kDevice,    Field::kVrf,
                                    Field::kPrefix,    Field::kNexthop,
                                    Field::kLocalPref, Field::kMed,
                                    Field::kAsPath,    Field::kProtocol};
    return kFields[pick(std::size(kFields))];
  }

  CompareOp compareOp() {
    static const CompareOp kOps[] = {CompareOp::kGt, CompareOp::kGe, CompareOp::kEq,
                                     CompareOp::kNe, CompareOp::kLt, CompareOp::kLe};
    return kOps[pick(std::size(kOps))];
  }

  Scalar scalar() {
    switch (pick(4)) {
      case 0: return Scalar::num(static_cast<double>(pick(1000)));
      case 1: return Scalar::str("R" + std::to_string(pick(9)));
      case 2:
        return Scalar::str("10." + std::to_string(pick(200)) + ".0.0/16");
      default:
        return Scalar::str(std::to_string(100 + pick(100)) + ":" +
                           std::to_string(pick(10)));
    }
  }

  PredicatePtr predicate(int depth) {
    auto node = std::make_shared<Predicate>();
    switch (pick(depth > 0 ? 7 : 4)) {
      case 0:
        node->kind = Predicate::Kind::kFieldCompare;
        node->field = field();
        node->op = compareOp();
        node->value = scalar();
        break;
      case 1:
        node->kind = Predicate::Kind::kContains;
        node->field = Field::kCommunities;
        node->value = Scalar::str("100:" + std::to_string(pick(5)));
        break;
      case 2:
        node->kind = Predicate::Kind::kInSet;
        node->field = field();
        for (size_t i = 0, n = pick(3) + 1; i < n; ++i)
          node->valueSet.insert(scalar());
        break;
      case 3:
        node->kind = Predicate::Kind::kMatches;
        node->field = field();
        node->regex = "R[0-9]+";
        break;
      case 4:
      case 5:
        node->kind = pick(3) == 0   ? Predicate::Kind::kAnd
                     : pick(2) == 0 ? Predicate::Kind::kOr
                                    : Predicate::Kind::kImply;
        node->left = predicate(depth - 1);
        node->right = predicate(depth - 1);
        break;
      default:
        node->kind = Predicate::Kind::kNot;
        node->left = predicate(depth - 1);
        break;
    }
    return node;
  }

  TransformPtr transform(int depth) {
    auto node = std::make_shared<Transform>();
    switch (pick(depth > 0 ? 4 : 2)) {
      case 0: node->kind = Transform::Kind::kPre; break;
      case 1: node->kind = Transform::Kind::kPost; break;
      case 2:
        node->kind = Transform::Kind::kFilter;
        node->inner = transform(depth - 1);
        node->predicate = predicate(depth - 1);
        break;
      default:
        node->kind = Transform::Kind::kConcat;
        node->inner = transform(depth - 1);
        node->right = transform(depth - 1);
        break;
    }
    return node;
  }

  EvaluationPtr evaluation(int depth) {
    auto node = std::make_shared<Evaluation>();
    switch (pick(depth > 0 ? 4 : 3)) {
      case 0:
        node->kind = Evaluation::Kind::kLiteral;
        node->literal = Value::fromScalar(Scalar::num(static_cast<double>(pick(100))));
        break;
      case 1: {
        node->kind = Evaluation::Kind::kLiteral;
        ScalarSet set;
        for (size_t i = 0, n = pick(3); i < n; ++i) set.insert(scalar());
        node->literal = Value::fromSet(std::move(set));
        break;
      }
      case 2:
        node->kind = Evaluation::Kind::kAggregate;
        node->transform = transform(depth - 1);
        node->func = static_cast<AggFunc>(pick(3));
        node->field = field();
        break;
      default:
        node->kind = Evaluation::Kind::kArithmetic;
        node->arithOp = "+-*/"[pick(4)];
        node->left = evaluation(depth - 1);
        node->right = evaluation(depth - 1);
        break;
    }
    return node;
  }

  std::mt19937 rng_;
};

// Property: print -> parse -> print is the identity, and the reparsed AST has
// the same internal-node count (the Fig. 8 size metric).
TEST(RclRoundTripTest, PrintedIntentsReparseToEquivalentAsts) {
  for (unsigned seed = 1; seed <= 200; ++seed) {
    AstGen gen(seed);
    const IntentPtr original = gen.intent(4);
    const std::string text = original->str();
    const ParseOutcome outcome = parseIntent(text);
    ASSERT_TRUE(outcome.ok()) << "seed " << seed << ": " << text << "\n  error: "
                              << outcome.error;
    EXPECT_EQ(outcome.intent->str(), text) << "seed " << seed;
    EXPECT_EQ(outcome.intent->internalNodes(), original->internalNodes())
        << "seed " << seed << ": " << text;
  }
}

// Malformed-input corpus: deterministic mutations of valid specifications
// (truncations, deletions, substitutions, insertions) must either parse or
// report a ParseError through the outcome — never crash or throw past
// parseIntent.
TEST(RclFuzzTest, MutatedSpecificationsNeverCrashTheParser) {
  std::vector<std::string> corpus = {
      "device = R1 => PRE = POST",
      "forall device in {R1, R2}: PRE |> count() = POST |> count()",
      "not (PRE || (prefix = 10.0.0.0/16) |> distCnt(nexthop) >= 2)",
      "(PRE ++ POST) || (communities contains 100:1) |> count() = 0",
      "POST |> distVals(nexthop) = {1.1.1.1, 2.2.2.2}",
      "aspath matches \"R[0-9]+\" => (PRE |> count() + 1) * 2 >= 0",
  };
  for (unsigned seed = 1; seed <= 20; ++seed)
    corpus.push_back(AstGen(seed).intent(3)->str());

  const std::string alphabet = "()|>=!<{}:,.\"* +-/R10 \t";
  size_t parsed = 0, rejected = 0;
  for (const std::string& base : corpus) {
    for (size_t i = 0; i < base.size(); i += 1 + i / 8) {
      std::vector<std::string> mutants;
      mutants.push_back(base.substr(0, i));                      // truncate
      mutants.push_back(base.substr(0, i) + base.substr(i + 1)); // delete
      std::string sub = base;
      sub[i] = alphabet[i % alphabet.size()];                    // substitute
      mutants.push_back(sub);
      std::string ins = base;
      ins.insert(i, 1, alphabet[(i * 7) % alphabet.size()]);     // insert
      mutants.push_back(ins);
      for (const std::string& mutant : mutants) {
        try {
          const ParseOutcome outcome = parseIntent(mutant);
          if (outcome.ok()) {
            ++parsed;
            EXPECT_FALSE(outcome.intent->str().empty());
          } else {
            ++rejected;
            EXPECT_FALSE(outcome.error.empty()) << mutant;
          }
        } catch (...) {
          FAIL() << "parser threw on: " << mutant;
        }
      }
    }
  }
  // The corpus must exercise both accepting and rejecting paths.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- value rows against their renders ---------------------------------------

// AS paths a row can carry: plain sequences, AS_SET segments after them, a
// set-only path, and a prepend onto it.
std::vector<AsPath> samplePaths() {
  AsPath withSet({65001});
  withSet.appendSet({64512, 64513});
  AsPath onlySet;
  onlySet.appendSet({64513});
  AsPath prependedSet = onlySet;
  prependedSet.prepend(65001);
  AsPath twoSets = withSet;
  twoSets.appendSet({64514});
  return {AsPath(), AsPath({65001}), AsPath({65001, 64513}), withSet,
          onlySet,  prependedSet,    twoSets};
}

// Redraws field `field` (0-12) of `row` from a two- or few-valued domain, so
// a redraw often lands on the value the row already had. Field 12 is
// `origin`, which str() does not print.
void redrawField(RibRow& row, unsigned field, std::mt19937& rng,
                 const std::vector<AsPath>& paths) {
  switch (field) {
    case 0: row.device = rng() % 2 ? "R1" : "R2"; break;
    case 1: row.vrf = rng() % 2 ? "global" : "vrf1"; break;
    case 2: row.prefix = Prefix(IpAddress::v4(10u << 24 | (rng() % 2) << 16), 16); break;
    case 3:
      row.nexthop = rng() % 3 ? IpAddress::v4(0x01010101 + rng() % 2)
                              : IpAddress::v6(0x20010db8ULL << 32, rng() % 2);
      break;
    case 4: row.localPref = rng() % 2 ? 100 : 150; break;
    case 5: row.med = rng() % 2; break;
    case 6: row.weight = rng() % 2; break;
    case 7: row.igpCost = rng() % 2; break;
    case 8:
      row.communities.clear();
      // 100:10 prints before 100:2 but sorts after it numerically.
      for (const Community community : {Community(100, 2), Community(100, 10),
                                        Community(200, 1)})
        if (rng() % 2) row.communities.insert(community);
      break;
    case 9: row.asPath = paths[rng() % paths.size()]; break;
    case 10: row.routeType = rng() % 2 ? RouteType::kBest : RouteType::kEcmp; break;
    case 11: row.protocol = rng() % 2 ? Protocol::kBgp : Protocol::kStatic; break;
    default: row.origin = static_cast<BgpOrigin>(rng() % 3); break;
  }
}

RibRow randomValueRow(std::mt19937& rng, const std::vector<AsPath>& paths) {
  RibRow row;
  for (unsigned field = 0; field <= 12; ++field) redrawField(row, field, rng, paths);
  return row;
}

std::vector<std::string> sortedRenders(const RibView& view) {
  std::vector<std::string> renders;
  for (size_t i = 0; i < view.size(); ++i) renders.push_back(view.row(i).str());
  std::sort(renders.begin(), renders.end());
  return renders;
}

TEST(RibRowTest, RendersValuesInTheirTextForm) {
  RibRow row;
  row.device = "R1";
  row.vrf = "global";
  row.prefix = *Prefix::parse("10.0.0.0/24");
  row.nexthop = *IpAddress::parse("1.1.1.1");
  row.communities = {Community(100, 2), Community(100, 10)};
  row.asPath = AsPath({65001});
  row.asPath.appendSet({64512, 64513});
  EXPECT_EQ(row.str(),
            "R1/global 10.0.0.0/24 nh=1.1.1.1 lp=100 med=0 w=0 igp=0 type=BEST "
            "proto=bgp comm=[100:10 100:2] path=[65001 {64512,64513}]");
  EXPECT_EQ(row.fieldValue(Field::kCommunities).text, "100:10 100:2");
  EXPECT_EQ(row.fieldValue(Field::kAsPath).text, "65001 {64512,64513}");
  EXPECT_TRUE(row.setFieldContains(Field::kCommunities, Scalar::str("100:2")));
  EXPECT_TRUE(row.setFieldContains(Field::kCommunities, Scalar::str("100:10")));
  EXPECT_FALSE(row.setFieldContains(Field::kCommunities, Scalar::str("100:02")));
  EXPECT_FALSE(row.setFieldContains(Field::kCommunities, Scalar::str("100")));
  EXPECT_TRUE(row.setFieldContains(Field::kAsPath, Scalar::str("{64512")));

  // `origin` is not printed, so rows that differ only there are one row.
  RibRow other = row;
  other.origin = BgpOrigin::kIgp;
  EXPECT_EQ(row.str(), other.str());
  EXPECT_TRUE(row == other);
  EXPECT_EQ(row.hash(), other.hash());
  GlobalRib pre, post;
  pre.add(row);
  post.add(other);
  EXPECT_TRUE(checkIntentText("PRE = POST", pre, post).satisfied);
  EXPECT_TRUE(checkIntentText("POST || communities contains 100:10 |> count() = 1", pre,
                              post)
                  .satisfied);
}

TEST(RibRowTest, VrfNamedGlobalRendersAsTheDefaultVrf) {
  Route route;
  route.prefix = *Prefix::parse("10.0.0.0/24");
  route.protocol = Protocol::kStatic;
  route.nexthop = *IpAddress::parse("1.1.1.1");
  NetworkRibs ribs;
  DeviceRib& device = ribs.device(Names::id("R-VRF-GLOBAL"));
  device.vrf(kInvalidName).routesFor(route.prefix).push_back(route);
  device.vrf(Names::id("global")).routesFor(route.prefix).push_back(route);
  const GlobalRib rib = GlobalRib::fromNetworkRibs(ribs);
  ASSERT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib.rows()[0].str(), rib.rows()[1].str());
  EXPECT_TRUE(rib.rows()[0] == rib.rows()[1]);
  EXPECT_TRUE(ribViewsEqual(RibView{&rib, {0}}, RibView{&rib, {1}}));
  EXPECT_TRUE(checkIntentText("PRE || vrf = global |> count() = 2", rib, rib).satisfied);
}

// Seeded differential: row equality and hashing against str(), and
// ribViewsEqual against comparing sorted str() lists, over views with
// duplicate rows, views across two tables and concatenations of both.
TEST(RibRowTest, EqualityMatchesRenderEqualityOnRandomRowsAndViews) {
  const std::vector<AsPath> paths = samplePaths();
  for (unsigned seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    for (int i = 0; i < 300; ++i) {
      const RibRow a = randomValueRow(rng, paths);
      RibRow b = a;
      for (unsigned redraws = rng() % 3; redraws > 0; --redraws)
        redrawField(b, rng() % 13, rng, paths);
      const bool equal = a == b;
      ASSERT_EQ(equal, a.str() == b.str()) << a.str() << "\n" << b.str();
      if (equal) {
        ASSERT_EQ(a.hash(), b.hash()) << a.str();
      }
    }

    // PRE holds random rows (a few of them duplicated); POST is a shuffled
    // copy with every origin redrawn and a few rows redrawn in one field.
    GlobalRib pre, post;
    std::vector<RibRow> rows;
    for (int i = 0; i < 40; ++i) rows.push_back(randomValueRow(rng, paths));
    for (int i = 0; i < 5; ++i) {
      RibRow duplicate = rows[rng() % rows.size()];
      rows.push_back(std::move(duplicate));
    }
    std::vector<uint32_t> order(rows.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<uint32_t> postIndexOf(rows.size());
    for (uint32_t i = 0; i < order.size(); ++i) {
      RibRow row = rows[order[i]];
      redrawField(row, 12, rng, paths);
      if (rng() % 8 == 0) redrawField(row, rng() % 12, rng, paths);
      post.add(std::move(row));
      postIndexOf[order[i]] = i;
    }
    for (RibRow& row : rows) pre.add(std::move(row));

    for (int trial = 0; trial < 200; ++trial) {
      RibView viewA{&pre, {}}, viewB{&post, {}};
      for (size_t n = rng() % 12; n > 0; --n) {
        const uint32_t index = rng() % pre.size();
        viewA.rows.push_back(index);
        viewB.rows.push_back(postIndexOf[index]);
      }
      // Unshuffled views keep equal rows at equal positions.
      if (rng() % 2) std::shuffle(viewB.rows.begin(), viewB.rows.end(), rng);
      if (!viewB.rows.empty() && rng() % 4 == 0)
        viewB.rows[rng() % viewB.rows.size()] = rng() % post.size();
      const bool expected = sortedRenders(viewA) == sortedRenders(viewB);
      ASSERT_EQ(ribViewsEqual(viewA, viewB), expected) << "seed " << seed;
      // The same rows of one table, in another order and with duplicates.
      RibView sameTable{&pre, viewA.rows};
      if (rng() % 2) std::shuffle(sameTable.rows.begin(), sameTable.rows.end(), rng);
      if (!sameTable.rows.empty() && rng() % 4 == 0)
        sameTable.rows[rng() % sameTable.rows.size()] = rng() % pre.size();
      ASSERT_EQ(ribViewsEqual(viewA, sameTable),
                sortedRenders(viewA) == sortedRenders(sameTable))
          << "seed " << seed;
    }

    const bool tablesEqual =
        sortedRenders(RibView::all(pre)) == sortedRenders(RibView::all(post));
    EXPECT_EQ(checkIntentText("PRE = POST", pre, post).satisfied, tablesEqual);
    EXPECT_EQ(checkIntentText("PRE ++ PRE = PRE ++ POST", pre, post).satisfied,
              tablesEqual);
    EXPECT_TRUE(checkIntentText("PRE ++ POST = POST ++ PRE", pre, post).satisfied);
  }
}

}  // namespace
}  // namespace hoyan::rcl

// --- RCL prefilter index ------------------------------------------------------

namespace hoyan {
namespace {

// Intents spanning the evaluator's shapes: prefilterable guards (device =,
// prefix =), a non-prunable negated guard, range guards (full scan), a
// forall, and a rib comparison.
const char* const kIntents[] = {
    "device = BR-0-0 => PRE = POST",
    "prefix = 100.0.8.0/24 => PRE |> count() >= 0",
    "not prefix = 100.0.8.0/24 => PRE = POST",
    "prefix >= 100.0.8.0/24 and prefix <= 100.0.9.0/24 => PRE |> count() >= 0",
    "prefix < 100.0.8.0/24 => PRE = POST",
    "prefix > 99.0.0.0/8 => PRE |> count() >= 0",
    "forall device: PRE |> count() >= 0",
    "PRE |> distCnt(device) = POST |> distCnt(device)",
    // Literals written in non-canonical form: the lexer masks the host bits
    // of the first; the second is an address, which names no prefix row.
    "prefix = 100.0.8.0/16 => PRE |> count() = 0",
    "prefix = 100.0.8.0 => PRE |> count() = 0",
    "prefix = 203.0.113.0/24 => PRE |> count() = 0",  // Absent from the table.
    "nexthop = 10.64.0.4 => PRE = POST",
};

// Global RIBs of a generated WAN before and after a prefix-scoped policy
// edit, simulated through the incremental engine.
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

  NetworkModel scopedModel() const {
    Topology topology = wan_.topology;
    NetworkConfig configs = wan_.configs;
    const auto errors = applyChangeCommands(topology, configs,
                                            "device BR-0-0\n"
                                            "ip-prefix LP-FRAG index 10 permit 100.0.8.0/24\n"
                                            "route-policy ISP-IN-0 node 800 permit\n"
                                            " match ip-prefix LP-FRAG\n"
                                            " apply local-pref 150\n");
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors[0].str());
    return NetworkModel::build(std::move(topology), std::move(configs));
  }

  rcl::GlobalRib simulate(incr::IncrementalEngine& engine, const NetworkModel& model) {
    DistSimOptions options;
    options.workers = 4;
    options.routeSubtasks = 10;
    engine.beginRun(model, options);
    DistributedSimulator sim(model, options);
    DistRouteResult routes = sim.runRouteSimulation(inputs_);
    EXPECT_TRUE(routes.succeeded);
    engine.endRun();
    return rcl::GlobalRib::fromNetworkRibs(routes.ribs);
  }

  GeneratedWan wan_;
  std::vector<InputRoute> inputs_;
  std::unique_ptr<NetworkModel> baseModel_;
};

// The finalized table's device/prefix buckets seed guarded-intent views; a
// table built row-by-row (never finalized) takes the full-scan path. Both
// must agree on every verdict and counterexample.
TEST_F(RclIncrTest, PrefilteredEvaluationMatchesFullScan) {
  incr::IncrementalEngine engine;
  engine.setBaseModel(*baseModel_);
  const rcl::GlobalRib base = simulate(engine, *baseModel_);
  const rcl::GlobalRib updated = simulate(engine, scopedModel());
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
