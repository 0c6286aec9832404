// Tests for the cold-run policy-evaluation kernel (proto/policy_kernel.h):
// the process-wide compiled-regex cache and its DFA (differential against
// std::regex), attribute interning, per-class memoization (byte-identity
// against the plain evaluator), lazy reason traces, bad-regex surfacing, and
// the shared AsPath / CommunitySet values (a Route copy allocates nothing).
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <regex>
#include <set>

#include "alloc_counter.h"
#include "config/vendor.h"
#include "net/as_path.h"
#include "proto/policy_eval.h"
#include "proto/policy_kernel.h"

namespace hoyan {
namespace {

// --- AsPathRegexCache --------------------------------------------------------

TEST(AsPathRegexCacheTest, CompilesOncePerPattern) {
  AsPathRegexCache cache;
  const auto first = cache.get("_65001_");
  ASSERT_TRUE(first);
  EXPECT_TRUE(first->valid);
  // Same pattern: the exact same immutable entry, not a recompilation.
  EXPECT_EQ(cache.get("_65001_").get(), first.get());
  EXPECT_EQ(cache.size(), 1u);
  cache.get("^100");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AsPathRegexCacheTest, InvalidPatternCachesAnInvalidEntry) {
  AsPathRegexCache cache;
  const auto bad = cache.get("(unclosed");
  ASSERT_TRUE(bad);
  EXPECT_FALSE(bad->valid);
  EXPECT_FALSE(bad->error.empty());
  // Cached, not retried: same entry on the next lookup.
  EXPECT_EQ(cache.get("(unclosed").get(), bad.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AsPathRegexCacheTest, TranslatesUnderscoreBoundaries) {
  AsPathRegexCache cache;
  const auto compiled = cache.get("_123_");
  ASSERT_TRUE(compiled->valid);
  const AsPath path({100, 123, 300});
  EXPECT_TRUE(compiled->matches(path.str()));
  // `_23_` must not match inside 123 (boundary semantics).
  const auto inner = cache.get("_23_");
  EXPECT_FALSE(inner->matches(path.str()));
}

// --- the DFA against std::regex -----------------------------------------------

// The vendor translation the cache applies (`_` = start, space or end).
std::string translated(const std::string& pattern) {
  std::string out;
  for (const char c : pattern) out += c == '_' ? std::string("(^| |$)") : std::string(1, c);
  return out;
}

// Seeded differential: patterns glued from vendor-syntax pieces, matched
// against rendered paths (and a few raw strings) by the DFA and by
// std::regex_search. A pattern is valid exactly when std::regex accepts it,
// it uses no unsupported construct and its automaton fits the state cap
// (only a glued `{64512}`-style count exceeds it here); every valid pattern
// gives std::regex's verdict on every text.
TEST(AsPathDfaTest, AgreesWithStdRegexOnGeneratedPatterns) {
  const std::vector<std::string> pieces = {
      "1", "2", "12", "123", "64512", "0", " ", "_", "_", "^", "$", ".", "*", "+",
      "?", "|", "(", ")", "(?:", "{2}", "{1,3}", "{0,}", "{", "}", "]", ",", "-",
      "[0-9]", "[^1]", "[12]", "[ ]", "[[:digit:]]", "[1-3]", "[]", "[^]", "[{},]",
      "\\d", "\\D", "\\s", "\\w", "\\.", "\\{", "\\}", "\\(", "\\x31",
      "\\u0032", "\\c1", "\\0", "*?", ".*", "(1|2)", "(_1|2_)"};
  const std::vector<std::string> unsupported = {"\\1", "(?=1)", "(?!2)", "\\b", "\\B"};
  const std::set<std::string> quantifiers = {"*", "+", "?", "{2}", "{1,3}", "{0,}",
                                             "{", "*?", ".*"};
  std::mt19937 rng(20261019);
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };

  const std::vector<Asn> asns = {1, 2, 12, 21, 123, 100, 200, 64512, 65001};
  std::vector<std::string> texts = {"", "1", "12 123", "0", "1\n2", "2\r1", "a b"};
  for (int i = 0; i < 33; ++i) {
    std::vector<Asn> sequence;
    for (size_t n = pick(5); n > 0; --n) sequence.push_back(asns[pick(asns.size())]);
    AsPath path(sequence);
    if (pick(4) == 0) path.appendSet({asns[pick(asns.size())], asns[pick(asns.size())]});
    texts.push_back(path.str());
  }

  AsPathRegexCache cache;
  size_t validPatterns = 0;
  size_t unsupportedPatterns = 0;
  size_t overCap = 0;
  size_t verdicts = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string pattern;
    bool usesUnsupported = false;
    size_t quantifierPieces = 0;
    for (size_t n = 1 + pick(7); n > 0; --n) {
      if (pick(30) == 0) {
        pattern += unsupported[pick(unsupported.size())];
        usesUnsupported = true;
      } else {
        const std::string& piece = pieces[pick(pieces.size())];
        quantifierPieces += quantifiers.count(piece);
        pattern += piece;
      }
    }
    std::optional<std::regex> oracle;
    try {
      oracle.emplace(translated(pattern));
    } catch (const std::regex_error&) {
    }
    const auto compiled = cache.get(pattern);
    if (!oracle || usesUnsupported) {
      EXPECT_FALSE(compiled->valid) << pattern;
      unsupportedPatterns += oracle && usesUnsupported;
      continue;
    }
    if (!compiled->valid && compiled->error.find("-state") != std::string::npos) {
      ++overCap;
      continue;
    }
    ASSERT_TRUE(compiled->valid) << pattern << ": " << compiled->error;
    ++validPatterns;
    // libstdc++'s default executor backtracks, exponentially on nested
    // quantifiers (`.*{0,}`); patterns with more than one quantifier are
    // checked against its polynomial executor, the same automaton searched
    // breadth-first, which finds a match exactly when one exists.
    if (quantifierPieces > 1)
      oracle.emplace(translated(pattern),
                     std::regex::ECMAScript | std::regex_constants::__polynomial);
    for (const std::string& text : texts) {
      ASSERT_EQ(compiled->matches(text), std::regex_search(text, *oracle))
          << "pattern \"" << pattern << "\" on \"" << text << "\"";
      ++verdicts;
    }
  }
  EXPECT_GT(validPatterns, 1500u);
  EXPECT_GT(unsupportedPatterns, 10u);
  EXPECT_LT(overCap, 5u);
  EXPECT_EQ(verdicts, validPatterns * texts.size());
}

// Constructs std::regex accepts but a DFA cannot model (or not within the
// state cap) are invalid: they match nothing, like a pattern std::regex
// rejects.
TEST(AsPathDfaTest, UnsupportedConstructsAreInvalid) {
  AsPathRegexCache cache;
  for (const std::string pattern :
       {"(1)\\1", "1(?=2)", "1(?!2)", "\\b1", "1\\B", "1.{16}"}) {
    ASSERT_NO_THROW(std::regex(translated(pattern))) << pattern;
    const auto compiled = cache.get(pattern);
    EXPECT_FALSE(compiled->valid) << pattern;
    EXPECT_NE(compiled->error.find("unsupported by the as-path matcher"), std::string::npos)
        << compiled->error;
    EXPECT_FALSE(compiled->matches("1 1 2 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1")) << pattern;
  }
}

// --- AttrInternTable ---------------------------------------------------------

TEST(AttrInternTableTest, EqualAttributesShareOneClass) {
  AttrInternTable table;
  BgpAttributes a;
  a.localPref = 200;
  a.communities.insert(Community(100, 1));
  a.asPath = AsPath({65001, 70000});
  BgpAttributes b = a;  // Equal by value.
  const AttrClassId idA = table.intern(a);
  EXPECT_EQ(table.intern(b), idA);
  EXPECT_EQ(table.size(), 1u);

  BgpAttributes c = a;
  c.med = 7;
  const AttrClassId idC = table.intern(c);
  EXPECT_NE(idC, idA);
  EXPECT_EQ(table.size(), 2u);
  // Round trip: the stored class is the interned value.
  EXPECT_EQ(table.attrs(idA), a);
  EXPECT_EQ(table.attrs(idC), c);
  EXPECT_EQ(table.hash(idA), a.hashValue());
}

// --- PolicyEvalKernel memoization -------------------------------------------

class PolicyKernelTest : public ::testing::Test {
 protected:
  Route makeRoute(const std::string& prefix = "10.0.0.0/24") {
    Route route;
    route.prefix = *Prefix::parse(prefix);
    route.protocol = Protocol::kBgp;
    route.attrs.communities.insert(Community(100, 1));
    route.attrs.asPath = AsPath({65001, 70000});
    return route;
  }

  // The memo's structural gate only engages for policies that match as-path
  // lists; memo-behaviour tests attach this catch-all (`.*` permits any
  // rendered path) so their policies qualify without changing verdicts.
  void matchAnyAsPath(PolicyNode& node) {
    const NameId listName = Names::id("ANY-PATH");
    if (config_.asPathLists.find(listName) == config_.asPathLists.end()) {
      AsPathList list;
      list.name = listName;
      list.entries.push_back({true, ".*"});
      config_.asPathLists.emplace(listName, list);
    }
    node.match.asPathList = listName;
  }

  // Asserts kernel evaluation is byte-identical to the plain evaluator for
  // `route`, and returns whether it was permitted.
  bool evalBothWays(std::optional<NameId> policy, const Route& route) {
    const PolicyContext plain{&config_, &vendorA(), 64512};
    const PolicyResult expect = evaluatePolicy(plain, policy, route);
    PolicyContext fast{&config_, &vendorA(), 64512, &kernel_};
    Route got = route;
    const bool permitted = kernel_.evaluate(fast, policy, got);
    EXPECT_EQ(permitted, expect.permitted);
    if (permitted && expect.permitted) {
      EXPECT_EQ(got.attrs, expect.route.attrs);
      EXPECT_TRUE(got.nexthop == expect.route.nexthop);
      EXPECT_EQ(got.prefix, expect.route.prefix);
    }
    return permitted;
  }

  DeviceConfig config_;
  PolicyEvalKernel kernel_;
};

TEST_F(PolicyKernelTest, MemoHitReplaysTheVerdict) {
  const NameId name = Names::id("PREF-UP");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.sets.localPref = 321;
  matchAnyAsPath(node);
  policy.upsertNode(node);

  // Same attribute class across different prefixes: the policy reads no
  // prefix, so the second evaluation is a memo hit.
  EXPECT_TRUE(evalBothWays(name, makeRoute("10.0.0.0/24")));
  EXPECT_TRUE(evalBothWays(name, makeRoute("10.0.1.0/24")));
  const PolicyKernelStats stats = kernel_.stats();
  EXPECT_EQ(stats.memoMisses, 1u);
  EXPECT_EQ(stats.memoHits, 1u);
  EXPECT_EQ(kernel_.memoEntries(), 1u);
}

TEST_F(PolicyKernelTest, PrefixReadingPolicyKeysOnThePrefix) {
  const NameId listName = Names::id("TEN-SLASH-24");
  PrefixList list;
  list.name = listName;
  list.family = IpFamily::kV4;
  list.entries.push_back({true, *Prefix::parse("10.0.0.0/24"), 0, 0});
  config_.prefixLists.emplace(listName, list);
  const NameId name = Names::id("MATCH-PREFIX");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.prefixList = listName;
  node.sets.localPref = 555;
  matchAnyAsPath(node);
  policy.upsertNode(node);

  // Different prefixes with the same attribute class must NOT share a memo
  // entry: one matches the list, the other falls to the tail.
  EXPECT_TRUE(evalBothWays(name, makeRoute("10.0.0.0/24")));
  evalBothWays(name, makeRoute("10.9.9.0/24"));
  EXPECT_EQ(kernel_.stats().memoMisses, 2u);
  EXPECT_EQ(kernel_.stats().memoHits, 0u);
  // Re-seeing either prefix hits.
  EXPECT_TRUE(evalBothWays(name, makeRoute("10.0.0.0/24")));
  EXPECT_EQ(kernel_.stats().memoHits, 1u);
}

TEST_F(PolicyKernelTest, NexthopWritingPolicyKeysOnTheInputNexthop) {
  const NameId name = Names::id("SET-NH");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.sets.nexthop = *IpAddress::parse("4.4.4.4");
  matchAnyAsPath(node);
  policy.upsertNode(node);

  Route first = makeRoute();
  first.nexthop = *IpAddress::parse("1.1.1.1");
  Route second = makeRoute();
  second.nexthop = *IpAddress::parse("2.2.2.2");
  // The outcome rewrites the nexthop; with distinct input nexthops both must
  // still come out as 4.4.4.4 (so a shared key would be unsound if the
  // profile ignored writes — this is the regression the profile guards).
  EXPECT_TRUE(evalBothWays(name, first));
  EXPECT_TRUE(evalBothWays(name, second));
  PolicyContext fast{&config_, &vendorA(), 64512, &kernel_};
  Route replay = makeRoute();
  replay.nexthop = *IpAddress::parse("1.1.1.1");
  ASSERT_TRUE(kernel_.evaluate(fast, name, replay));
  EXPECT_TRUE(replay.nexthop == *IpAddress::parse("4.4.4.4"));
}

TEST_F(PolicyKernelTest, DenialsMemoizeToo) {
  const NameId name = Names::id("DENY-ALL");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kDeny;
  matchAnyAsPath(node);
  policy.upsertNode(node);
  EXPECT_FALSE(evalBothWays(name, makeRoute("10.0.0.0/24")));
  EXPECT_FALSE(evalBothWays(name, makeRoute("10.0.1.0/24")));
  EXPECT_EQ(kernel_.stats().memoHits, 1u);
}

TEST_F(PolicyKernelTest, MatchCheapPoliciesBypassTheMemo) {
  // No as-path-list match anywhere: walking this one-node policy is cheaper
  // than interning attributes, so the structural gate skips the memo — but
  // the result must still be byte-identical to the plain evaluator.
  const NameId name = Names::id("CHEAP");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.sets.localPref = 250;
  policy.upsertNode(node);

  EXPECT_TRUE(evalBothWays(name, makeRoute("10.0.0.0/24")));
  EXPECT_TRUE(evalBothWays(name, makeRoute("10.0.0.0/24")));
  const PolicyKernelStats stats = kernel_.stats();
  EXPECT_EQ(stats.memoHits, 0u);
  EXPECT_EQ(stats.memoMisses, 0u);
  EXPECT_EQ(stats.attrClasses, 0u);
  EXPECT_EQ(kernel_.memoEntries(), 0u);
}

TEST_F(PolicyKernelTest, BadRegexIsCountedAndMatchesPlainEvaluator) {
  const NameId listName = Names::id("BROKEN");
  AsPathList list;
  list.name = listName;
  list.entries.push_back({true, "(unclosed"});
  list.entries.push_back({true, "_65001_"});  // Valid fallback entry.
  config_.asPathLists.emplace(listName, list);
  const NameId name = Names::id("MATCH-ASPATH");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.asPathList = listName;
  node.sets.localPref = 777;
  policy.upsertNode(node);

  // The invalid entry matches nothing; the valid one matches — identically
  // with and without the kernel — and the bad evaluation is counted.
  EXPECT_TRUE(evalBothWays(name, makeRoute()));
  EXPECT_GE(kernel_.stats().badRegexEvals, 1u);
}

TEST_F(PolicyKernelTest, UnsupportedPatternCountsAsBadRegex) {
  const NameId listName = Names::id("LOOKAHEAD");
  AsPathList list;
  list.name = listName;
  list.entries.push_back({true, "65001(?= )"});
  config_.asPathLists.emplace(listName, list);
  const NameId name = Names::id("MATCH-LOOKAHEAD");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.asPathList = listName;
  policy.upsertNode(node);

  // std::regex would match "65001 70000"; the unsupported entry matches
  // nothing, so the policy falls through, with and without the kernel.
  const PolicyContext plain{&config_, &vendorA(), 64512};
  EXPECT_EQ(evaluatePolicy(plain, name, makeRoute()).matchedNode, std::nullopt);
  evalBothWays(name, makeRoute());
  EXPECT_EQ(kernel_.stats().badRegexEvals, 1u);
}

TEST_F(PolicyKernelTest, RegexL1CountsPerEngine) {
  const NameId listName = Names::id("L1");
  AsPathList list;
  list.name = listName;
  list.entries.push_back({true, "_70000$"});
  config_.asPathLists.emplace(listName, list);
  const NameId name = Names::id("MATCH-L1");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  node.match.asPathList = listName;
  policy.upsertNode(node);

  PolicyContext fast{&config_, &vendorA(), 64512, &kernel_};
  Route route = makeRoute();
  ASSERT_TRUE(kernel_.evaluate(fast, name, route));
  EXPECT_EQ(kernel_.stats().regexCacheMisses, 1u);
  EXPECT_EQ(kernel_.stats().regexCacheHits, 0u);
  // Second evaluation with a fresh attribute class forces a real policy walk
  // that consults the pattern again: an L1 hit this time.
  Route other = makeRoute();
  other.attrs.localPref = 42;
  ASSERT_TRUE(kernel_.evaluate(fast, name, other));
  EXPECT_EQ(kernel_.stats().regexCacheMisses, 1u);
  EXPECT_EQ(kernel_.stats().regexCacheHits, 1u);
}

TEST_F(PolicyKernelTest, InPlaceEvaluatorMatchesTheCopyingOne) {
  const NameId listName = Names::id("TEN-ONLY");
  PrefixList list;
  list.name = listName;
  list.family = IpFamily::kV4;
  list.entries.push_back({true, *Prefix::parse("10.0.0.0/24"), 0, 0});
  config_.prefixLists.emplace(listName, list);
  const NameId name = Names::id("REWRITE-OR-DENY");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode rewrite;
  rewrite.sequence = 10;
  rewrite.action = PolicyAction::kPermit;
  rewrite.match.prefixList = listName;
  rewrite.sets.localPref = 900;
  rewrite.sets.addCommunities.push_back(Community(64512, 77));
  policy.upsertNode(rewrite);
  PolicyNode tail;
  tail.sequence = 20;
  tail.action = PolicyAction::kDeny;
  policy.upsertNode(tail);

  const PolicyContext context{&config_, &vendorA(), 64512};
  // Permit with rewrites, and deny: in both cases the in-place variant must
  // agree with the copying evaluator — and leave a denied route untouched.
  for (const char* prefix : {"10.0.0.0/24", "10.5.0.0/24"}) {
    const Route original = makeRoute(prefix);
    const PolicyResult expect = evaluatePolicy(context, name, original);
    Route inPlace = original;
    const bool permitted = evaluatePolicyInPlace(context, name, inPlace);
    EXPECT_EQ(permitted, expect.permitted) << prefix;
    if (permitted)
      EXPECT_EQ(inPlace.attrs, expect.route.attrs) << prefix;
    else
      EXPECT_EQ(inPlace.attrs, original.attrs) << prefix;
  }
}

// --- lazy reason traces ------------------------------------------------------

TEST_F(PolicyKernelTest, ReasonsAreLazilyFormatted) {
  const NameId name = Names::id("TRACED");
  RoutePolicy& policy = config_.routePolicy(name);
  PolicyNode node;
  node.sequence = 10;
  node.action = PolicyAction::kPermit;
  policy.upsertNode(node);
  const PolicyContext context{&config_, &vendorA(), 64512};
  const PolicyResult traced = evaluatePolicy(context, name, makeRoute());
  EXPECT_FALSE(traced.reason.empty());
  const PolicyResult silent =
      evaluatePolicy(context, name, makeRoute(), /*explain=*/false);
  EXPECT_TRUE(silent.reason.empty());
  // The verdict and rewrites are unaffected by explain.
  EXPECT_EQ(silent.permitted, traced.permitted);
  EXPECT_EQ(silent.route.attrs, traced.route.attrs);
  EXPECT_EQ(silent.matchedNode, traced.matchedNode);
}

// --- AsPath: a shared value rendered once ------------------------------------

TEST(AsPathRenderTest, StrIsMemoizedPerInstance) {
  AsPath path({100, 200});
  const std::string& first = path.str();
  EXPECT_EQ(first, "100 200");
  // Same storage on repeat calls (rendered once, not a fresh temporary).
  EXPECT_EQ(&path.str(), &first);
}

TEST(AsPathRenderTest, MutatorsInvalidateTheRender) {
  AsPath path({100, 200});
  EXPECT_EQ(path.str(), "100 200");
  path.prepend(50);
  EXPECT_EQ(path.str(), "50 100 200");
  path.appendSet({300, 400});
  EXPECT_EQ(path.str(), "50 100 200 {300,400}");
}

TEST(AsPathRenderTest, CopiesShareAndMovesSteal) {
  AsPath path({100, 200});
  const std::string& rendered = path.str();
  AsPath copy = path;
  EXPECT_EQ(&copy.str(), &rendered);  // One shared representation.
  copy.prepend(1);
  EXPECT_EQ(copy.str(), "1 100 200");
  EXPECT_EQ(path.str(), "100 200");  // The original is untouched.
  AsPath moved = std::move(path);
  EXPECT_EQ(&moved.str(), &rendered);
  EXPECT_TRUE(path.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty.
  EXPECT_EQ(path, AsPath());
}

// The hash is FNV-1a over (segment type, ASNs…) per segment, as route
// equivalence classes, intern tables and unordered iteration expect.
TEST(AsPathRenderTest, HashIsFnvOverTheSegments) {
  AsPath path({100, 200});
  path.appendSet({300, 400});
  size_t expected = 0xcbf29ce484222325ULL;
  for (const auto& [type, asns] : std::vector<std::pair<size_t, std::vector<Asn>>>{
           {0, {100, 200}}, {1, {300, 400}}}) {
    expected = (expected ^ type) * 0x100000001b3ULL;
    for (const Asn asn : asns) expected = (expected ^ asn) * 0x100000001b3ULL;
  }
  EXPECT_EQ(path.hashValue(), expected);
  EXPECT_EQ(AsPath().hashValue(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(AsPath(std::vector<Asn>{}), AsPath());
}

// --- CommunitySet value semantics --------------------------------------------

TEST(CommunitySetTest, CopiesShareAndWritesLeaveTheSourceUnchanged) {
  const CommunitySet source{Community(300, 3), Community(100, 1), Community(200, 2)};
  size_t expectedHash = 0x811c9dc5;
  for (const uint32_t raw : {Community(100, 1).raw(), Community(200, 2).raw(),
                             Community(300, 3).raw()})
    expectedHash = (expectedHash ^ raw) * 0x01000193;
  EXPECT_EQ(source.hashValue(), expectedHash);
  EXPECT_EQ(source.str(), "100:1 200:2 300:3");

  CommunitySet copy = source;
  EXPECT_EQ(copy.begin(), source.begin());  // One shared vector.
  copy.insert(Community(100, 1));           // Already present: still shared.
  copy.erase(Community(9, 9));              // Absent: still shared.
  EXPECT_EQ(copy.begin(), source.begin());

  CommunitySet inserted = source;
  inserted.insert(Community(150, 5));
  CommunitySet erased = source;
  erased.erase(Community(200, 2));
  CommunitySet cleared = source;
  cleared.clear();
  EXPECT_EQ(inserted.str(), "100:1 150:5 200:2 300:3");
  EXPECT_EQ(erased.str(), "100:1 300:3");
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(source.str(), "100:1 200:2 300:3");
  EXPECT_EQ(source.size(), 3u);
  EXPECT_EQ(source.hashValue(), expectedHash);

  // Erasing to empty gives the default set, hash included.
  CommunitySet drained{Community(1, 1)};
  drained.erase(Community(1, 1));
  EXPECT_EQ(drained, CommunitySet());
  EXPECT_EQ(cleared, CommunitySet());
  EXPECT_EQ(drained.hashValue(), CommunitySet().hashValue());
  EXPECT_EQ(CommunitySet().hashValue(), 0x811c9dc5u);
}

// --- Route copies --------------------------------------------------------------

TEST(RouteCopyTest, CopyingARouteAllocatesNothing) {
  Route route;
  route.prefix = *Prefix::parse("10.0.0.0/24");
  route.attrs.asPath = AsPath({65001, 65002, 65003, 65004});
  route.attrs.communities = CommunitySet{Community(100, 1), Community(200, 2),
                                         Community(300, 3)};
  Route assigned;
  const size_t before = testing::allocationCount();
  Route copy = route;
  assigned = copy;
  const size_t allocations = testing::allocationCount() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(copy, route);
  EXPECT_EQ(assigned, route);
  EXPECT_EQ(assigned.attrs.asPath.str(), "65001 65002 65003 65004");
}

}  // namespace
}  // namespace hoyan
