// Unit and property tests for the net module: addresses, prefixes, tries,
// communities, AS paths, routes, interned names.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/as_path.h"
#include "net/community.h"
#include "net/flow.h"
#include "net/ip.h"
#include "net/names.h"
#include "net/prefix_trie.h"
#include "net/route.h"

namespace hoyan {
namespace {

TEST(IpAddressTest, ParsesAndFormatsV4) {
  const auto addr = IpAddress::parse("10.0.0.1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_TRUE(addr->isV4());
  EXPECT_EQ(addr->v4Value(), 0x0a000001u);
  EXPECT_EQ(addr->str(), "10.0.0.1");
}

TEST(IpAddressTest, RejectsMalformedV4) {
  EXPECT_FALSE(IpAddress::parse("10.0.0").has_value());
  EXPECT_FALSE(IpAddress::parse("10.0.0.256").has_value());
  EXPECT_FALSE(IpAddress::parse("10.0.0.1.2").has_value());
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
}

TEST(IpAddressTest, ParsesAndFormatsV6) {
  const auto addr = IpAddress::parse("2400:db8::1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_TRUE(addr->isV6());
  EXPECT_EQ(addr->str(), "2400:db8::1");
  const auto full = IpAddress::parse("2001:0db8:0000:0000:0000:0000:0000:0001");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->str(), "2001:db8::1");
  const auto zero = IpAddress::parse("::");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->str(), "::");
}

TEST(IpAddressTest, V6RoundTripProperty) {
  std::mt19937_64 rng(1234);
  for (int i = 0; i < 200; ++i) {
    const IpAddress addr = IpAddress::v6(rng(), rng());
    const auto reparsed = IpAddress::parse(addr.str());
    ASSERT_TRUE(reparsed.has_value()) << addr.str();
    EXPECT_EQ(*reparsed, addr) << addr.str();
  }
}

TEST(IpAddressTest, OrderingIsTotalAndV4BeforeV6) {
  const IpAddress a = *IpAddress::parse("1.2.3.4");
  const IpAddress b = *IpAddress::parse("1.2.3.5");
  const IpAddress c = *IpAddress::parse("::1");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);  // All V4 sorts before V6.
  EXPECT_FALSE(a < a);
}

TEST(IpAddressTest, BitAccess) {
  const IpAddress addr = IpAddress::v4(0x80000001u);
  EXPECT_TRUE(addr.bit(0));
  EXPECT_FALSE(addr.bit(1));
  EXPECT_TRUE(addr.bit(31));
}

TEST(PrefixTest, ParseCanonicalisesHostBits) {
  const auto prefix = Prefix::parse("10.1.2.3/24");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(prefix->str(), "10.1.2.0/24");
  EXPECT_EQ(prefix->length(), 24);
}

TEST(PrefixTest, BareAddressIsHostRoute) {
  const auto prefix = Prefix::parse("10.1.2.3");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_TRUE(prefix->isHostRoute());
  EXPECT_EQ(prefix->length(), 32);
}

TEST(PrefixTest, ContainsAddressesAndPrefixes) {
  const Prefix p = *Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(p.contains(*IpAddress::parse("10.255.1.2")));
  EXPECT_FALSE(p.contains(*IpAddress::parse("11.0.0.0")));
  EXPECT_TRUE(p.contains(*Prefix::parse("10.3.0.0/16")));
  EXPECT_FALSE(p.contains(*Prefix::parse("0.0.0.0/0")));
  EXPECT_TRUE(Prefix::parse("0.0.0.0/0")->contains(p));
  // Family mismatch never contains.
  EXPECT_FALSE(p.contains(*IpAddress::parse("2400::1")));
}

TEST(PrefixTest, FirstLastAddresses) {
  const Prefix p = *Prefix::parse("10.0.0.0/30");
  EXPECT_EQ(p.firstAddress().str(), "10.0.0.0");
  EXPECT_EQ(p.lastAddress().str(), "10.0.0.3");
  const Prefix v6 = *Prefix::parse("2400::/16");
  EXPECT_EQ(v6.lastAddress().str(), "2400:ffff:ffff:ffff:ffff:ffff:ffff:ffff");
}

TEST(PrefixTest, DefaultRouteContainsEverythingOfItsFamily) {
  const Prefix def = *Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(def.isDefaultRoute());
  EXPECT_TRUE(def.contains(*IpAddress::parse("255.255.255.255")));
  EXPECT_FALSE(def.contains(*IpAddress::parse("::1")));
}

TEST(IpRangeTest, OverlapAndExtend) {
  IpRange r{*IpAddress::parse("10.0.0.0"), *IpAddress::parse("10.0.0.0")};
  r.extend(*Prefix::parse("10.5.0.0/16"));
  EXPECT_EQ(r.first.str(), "10.0.0.0");
  EXPECT_EQ(r.last.str(), "10.5.255.255");
  const IpRange other{*IpAddress::parse("10.5.255.255"), *IpAddress::parse("11.0.0.0")};
  EXPECT_TRUE(r.overlaps(other));
  const IpRange disjoint{*IpAddress::parse("12.0.0.0"), *IpAddress::parse("13.0.0.0")};
  EXPECT_FALSE(r.overlaps(disjoint));
}

// --- PrefixTrie property test against a linear-scan oracle -------------------

TEST(PrefixTrieTest, ExactAndLongestMatch) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);
  EXPECT_EQ(*trie.exactMatch(*Prefix::parse("10.1.0.0/16")), 16);
  EXPECT_EQ(trie.exactMatch(*Prefix::parse("10.2.0.0/16")), nullptr);
  const auto match = trie.longestMatch(*IpAddress::parse("10.1.2.3"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match->value, 24);
  EXPECT_EQ(match->prefix.str(), "10.1.2.0/24");
  const auto shallow = trie.longestMatch(*IpAddress::parse("10.9.0.1"));
  ASSERT_TRUE(shallow.has_value());
  EXPECT_EQ(*shallow->value, 8);
  EXPECT_FALSE(trie.longestMatch(*IpAddress::parse("11.0.0.1")).has_value());
}

TEST(PrefixTrieTest, DefaultRouteMatchesAll) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("0.0.0.0/0"), 0);
  const auto match = trie.longestMatch(*IpAddress::parse("203.0.113.9"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match->value, 0);
}

TEST(PrefixTrieTest, LongestMatchAgreesWithLinearScanOracle) {
  std::mt19937 rng(99);
  std::vector<std::pair<Prefix, int>> prefixes;
  PrefixTrie<int> trie;
  for (int i = 0; i < 300; ++i) {
    const uint32_t addr = rng();
    const uint8_t length = static_cast<uint8_t>(rng() % 25 + 8);
    const Prefix prefix(IpAddress::v4(addr), length);
    prefixes.emplace_back(prefix, i);
    trie.insert(prefix, i);
  }
  for (int probe = 0; probe < 2000; ++probe) {
    const IpAddress addr = IpAddress::v4(rng());
    // Oracle: most specific containing prefix, latest insert wins ties.
    int bestValue = -1;
    int bestLength = -1;
    for (const auto& [prefix, value] : prefixes) {
      if (prefix.contains(addr) && static_cast<int>(prefix.length()) >= bestLength) {
        bestLength = prefix.length();
        bestValue = value;
      }
    }
    const auto match = trie.longestMatch(addr);
    if (bestLength < 0) {
      EXPECT_FALSE(match.has_value());
    } else {
      ASSERT_TRUE(match.has_value());
      EXPECT_EQ(static_cast<int>(match->prefix.length()), bestLength);
      EXPECT_EQ(*match->value, bestValue);
    }
  }
}

TEST(PrefixTrieTest, VisitEnumeratesAllInsertedPrefixes) {
  PrefixTrie<int> trie;
  std::vector<std::string> inserted = {"10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/24"};
  for (const auto& text : inserted) trie.insert(*Prefix::parse(text), 1);
  std::vector<std::string> visited;
  trie.visit(IpFamily::kV4,
             [&](const Prefix& prefix, const int&) { visited.push_back(prefix.str()); });
  std::sort(inserted.begin(), inserted.end());
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, inserted);
  EXPECT_EQ(trie.size(), 3u);
}

// --- Communities -----------------------------------------------------------

TEST(CommunityTest, ParseAndRender) {
  const auto c = Community::parse("100:1");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->asn(), 100);
  EXPECT_EQ(c->value(), 1);
  EXPECT_EQ(c->str(), "100:1");
  EXPECT_FALSE(Community::parse("100").has_value());
  EXPECT_FALSE(Community::parse("100:70000").has_value());
  EXPECT_FALSE(Community::parse(":1").has_value());
}

TEST(CommunitySetTest, SortedDeduplicatedAndHashable) {
  CommunitySet set;
  set.insert(Community(200, 1));
  set.insert(Community(100, 1));
  set.insert(Community(100, 1));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.str(), "100:1 200:1");
  EXPECT_TRUE(set.contains(Community(200, 1)));
  set.erase(Community(200, 1));
  EXPECT_FALSE(set.contains(Community(200, 1)));
  CommunitySet same{Community(100, 1)};
  EXPECT_EQ(set, same);
  EXPECT_EQ(set.hashValue(), same.hashValue());
}

// --- AS paths -----------------------------------------------------------------

TEST(AsPathTest, PrependAndLength) {
  AsPath path({200, 300});
  EXPECT_EQ(path.length(), 2u);
  path.prepend(100);
  EXPECT_EQ(path.length(), 3u);
  EXPECT_EQ(path.str(), "100 200 300");
  EXPECT_EQ(path.firstAsn(), 100u);
  EXPECT_EQ(path.originAsn(), 300u);
  EXPECT_TRUE(path.contains(200));
  EXPECT_FALSE(path.contains(999));
}

TEST(AsPathTest, AsSetCountsAsOneHop) {
  AsPath path({100});
  path.appendSet({300, 400});
  EXPECT_EQ(path.length(), 2u);
  EXPECT_EQ(path.str(), "100 {300,400}");
  EXPECT_TRUE(path.contains(400));
}

TEST(AsPathTest, EmptyPath) {
  const AsPath path;
  EXPECT_TRUE(path.empty());
  EXPECT_EQ(path.length(), 0u);
  EXPECT_EQ(path.firstAsn(), 0u);
  EXPECT_EQ(path.originAsn(), 0u);
}

// --- Routes -------------------------------------------------------------------

TEST(RouteTest, EqualityIgnoresComputedType) {
  Route a;
  a.prefix = *Prefix::parse("10.0.0.0/24");
  a.nexthop = *IpAddress::parse("1.2.3.4");
  Route b = a;
  b.type = RouteType::kEcmp;
  EXPECT_EQ(a, b);
  b.attrs.localPref = 300;
  EXPECT_FALSE(a == b);
}

TEST(VrfRibTest, LongestMatchUsesOnlyForwardingEntries) {
  VrfRib rib;
  Route best;
  best.prefix = *Prefix::parse("10.0.0.0/16");
  best.type = RouteType::kBest;
  rib.routesFor(best.prefix).push_back(best);
  Route alt;
  alt.prefix = *Prefix::parse("10.0.1.0/24");
  alt.type = RouteType::kAlternate;
  rib.routesFor(alt.prefix).push_back(alt);
  rib.buildForwardingIndex();
  const auto* routes = rib.longestMatch(*IpAddress::parse("10.0.1.5"));
  ASSERT_NE(routes, nullptr);
  // The /24 holds only an alternate, so the /16 must win the LPM.
  EXPECT_EQ(routes->front().prefix.str(), "10.0.0.0/16");
}

// The LPM tries point into the route map: a copy of an indexed RIB must look
// routes up in its own map, not in its source's.
TEST(VrfRibTest, CopyOfAnIndexedRibLooksUpItsOwnRoutes) {
  const NameId device = Names::id("R1");
  const Prefix prefix = *Prefix::parse("10.0.0.0/16");
  NetworkRibs source;
  Route route;
  route.prefix = prefix;
  route.nexthop = *IpAddress::parse("1.1.1.1");
  source.device(device).vrf(kInvalidName).routesFor(prefix).push_back(route);
  source.buildForwardingIndex();
  NetworkRibs copied = source;
  NetworkRibs assigned;
  assigned = source;
  source.device(device).vrf(kInvalidName).routesFor(prefix).front().nexthop =
      *IpAddress::parse("2.2.2.2");

  const IpAddress dst = *IpAddress::parse("10.0.3.4");
  for (const NetworkRibs* ribs : {&copied, &assigned}) {
    const VrfRib& rib = *ribs->findDevice(device)->findVrf(kInvalidName);
    const std::vector<Route>* match = rib.longestMatch(dst);
    ASSERT_NE(match, nullptr);
    EXPECT_EQ(match, rib.find(prefix));
    EXPECT_EQ(match->front().nexthop.str(), "1.1.1.1");
  }
  // An unindexed source copies to an unindexed RIB.
  const VrfRib plain = [&] {
    VrfRib rib;
    rib.routesFor(prefix).push_back(route);
    return rib;
  }();
  const VrfRib plainCopy = plain;
  EXPECT_EQ(plainCopy.longestMatch(dst), nullptr);
}

// Moving keeps the route map's nodes, so the moved-to RIB's index stays valid
// without a rebuild.
TEST(VrfRibTest, MovedRibKeepsItsIndex) {
  const Prefix prefix = *Prefix::parse("10.0.0.0/16");
  VrfRib rib;
  Route route;
  route.prefix = prefix;
  rib.routesFor(prefix).push_back(route);
  rib.buildForwardingIndex();
  const std::vector<Route>* routes = rib.find(prefix);
  const VrfRib moved = std::move(rib);
  EXPECT_EQ(moved.find(prefix), routes);
  EXPECT_EQ(moved.longestMatch(*IpAddress::parse("10.0.3.4")), routes);
}

TEST(NetworkRibsTest, MergeConcatenatesRouteLists) {
  const NameId device = Names::id("R1");
  NetworkRibs a;
  Route routeA;
  routeA.prefix = *Prefix::parse("10.0.0.0/24");
  a.device(device).vrf(kInvalidName).routesFor(routeA.prefix).push_back(routeA);
  NetworkRibs b;
  Route routeB = routeA;
  routeB.nexthop = *IpAddress::parse("9.9.9.9");
  b.device(device).vrf(kInvalidName).routesFor(routeB.prefix).push_back(routeB);
  NetworkRibs copied = a;
  copied.merge(b);
  EXPECT_EQ(copied.routeCount(), 2u);
  const std::vector<Route>& shared = *copied.findDevice(device)->findVrf(kInvalidName)->find(
      routeA.prefix);
  ASSERT_EQ(shared.size(), 2u);
  EXPECT_TRUE(shared[0] == routeA);
  EXPECT_TRUE(shared[1] == routeB);

  // The consuming merge orders shared cells the same way, and moves in the
  // cells, VRFs and devices this RIB lacks without copying their routes, here
  // from a larger table into our smaller one...
  const Prefix other = *Prefix::parse("10.0.1.0/24");
  Route routeC = routeA;
  routeC.prefix = other;
  b.device(device).vrf(kInvalidName).routesFor(other).push_back(routeC);
  b.device(Names::id("R2")).vrf(kInvalidName).routesFor(other).push_back(routeC);
  const Route* cellRoutes = b.device(device).vrf(kInvalidName).routesFor(other).data();
  a.merge(std::move(b));
  EXPECT_EQ(a.routeCount(), 4u);
  const VrfRib* merged = a.findDevice(device)->findVrf(kInvalidName);
  ASSERT_EQ(merged->find(routeA.prefix)->size(), 2u);
  EXPECT_TRUE(merged->find(routeA.prefix)->at(0) == routeA);
  EXPECT_TRUE(merged->find(routeA.prefix)->at(1) == routeB);
  EXPECT_EQ(merged->find(other)->data(), cellRoutes);
  ASSERT_NE(a.findDevice(Names::id("R2")), nullptr);
  EXPECT_EQ(a.findDevice(Names::id("R2"))->routeCount(), 1u);
  // ...and from a smaller table into our larger one.
  NetworkRibs c;
  Route routeD = routeA;
  routeD.nexthop = *IpAddress::parse("8.8.8.8");
  c.device(device).vrf(kInvalidName).routesFor(routeD.prefix).push_back(routeD);
  a.merge(std::move(c));
  ASSERT_EQ(merged->find(routeA.prefix)->size(), 3u);
  EXPECT_TRUE(merged->find(routeA.prefix)->at(1) == routeB);
  EXPECT_TRUE(merged->find(routeA.prefix)->at(2) == routeD);
}

TEST(FlowPathTest, DevicesVisitedAndLinkUse) {
  FlowPath path;
  const NameId a = Names::id("A"), b = Names::id("B"), c = Names::id("C");
  path.hops.push_back({a, b, {}, 1.0});
  path.hops.push_back({b, c, {}, 1.0});
  EXPECT_TRUE(path.usesLink(a, b));
  EXPECT_FALSE(path.usesLink(b, a));
  const auto visited = path.devicesVisited();
  EXPECT_EQ(visited.size(), 3u);
}

TEST(NamesTest, InterningIsStableAndBidirectional) {
  const NameId id1 = Names::id("some-router");
  const NameId id2 = Names::id("some-router");
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(Names::str(id1), "some-router");
  EXPECT_NE(Names::id("other"), id1);
}

TEST(NamesTest, StrReferencesSurviveNewNames) {
  const NameId id = Names::id("names-test-anchor");
  const std::string* held = &Names::str(id);
  for (int i = 0; i < 4096; ++i) Names::id("names-test-grow-" + std::to_string(i));
  EXPECT_EQ(&Names::str(id), held);
  EXPECT_EQ(*held, "names-test-anchor");
  EXPECT_EQ(Names::find("names-test-anchor"), id);
  EXPECT_FALSE(Names::find("names-test-never-interned"));
  EXPECT_FALSE(Names::find("names-test-never-interned")) << "find interned the name";
}

TEST(NamesTest, ReadsWhileAnotherThreadInterns) {
  std::vector<NameId> ids;
  for (int i = 0; i < 64; ++i)
    ids.push_back(Names::id("names-reader-" + std::to_string(i)));
  std::atomic<bool> done{false};
  std::thread writer([&done] {
    for (int i = 0; i < 20000; ++i) Names::id("names-writer-" + std::to_string(i));
    done.store(true);
  });
  size_t mismatches = 0;
  do {
    for (size_t i = 0; i < ids.size(); ++i) {
      const std::string& name = Names::str(ids[i]);
      if (name != "names-reader-" + std::to_string(i)) ++mismatches;
    }
  } while (!done.load());
  writer.join();
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace hoyan
