// Tests for the configuration language: lexing, parsing, incremental command
// application (`no` forms), printer round-trip, and the filter/ACL matchers.
#include <gtest/gtest.h>

#include "config/parser.h"
#include "config/printer.h"
#include "config/vendor.h"

namespace hoyan {
namespace {

constexpr std::string_view kSampleConfig = R"(
vendor VendorA
hostname R1
router-id 1.1.1.1
vrf blue
 import-rt 100:1
 export-rt 100:2
 export-policy EXP
!
ip-prefix PL1 index 10 permit 10.0.0.0/24 ge 24 le 32
ip-prefix PL1 index 20 deny 0.0.0.0/0 le 32
ipv6-prefix PL6 index 10 permit 2400:db8::/32
community-list CL1 index 10 permit 100:1
as-path-list AP1 index 10 permit "_123_"
route-policy IMPORT node 10 permit
 match ip-prefix PL1
 match community-list CL1
 apply local-pref 300
 apply community add 100:2
 apply community delete 100:1
 apply as-path prepend 65000 2
route-policy IMPORT node 20 deny
router bgp 65001
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 import-policy IMPORT
 neighbor 10.0.0.2 export-policy IMPORT
 neighbor 10.0.0.2 next-hop-self
 neighbor 2.2.2.2 remote-as 65001
 neighbor 2.2.2.2 reflect-client
 neighbor 2.2.2.2 add-path-send
 peer-group PG1 import-policy IMPORT
 redistribute static policy IMPORT
 redistribute direct
 aggregate 10.0.0.0/16 as-set
!
static-route 10.9.0.0/24 nexthop 10.0.0.2 preference 5
static-route 10.8.0.0/24 discard
sr-policy SRP1 endpoint 2.2.2.2 color 100 segments 3.3.3.3 4.4.4.4
pbr-policy P1 rule src 10.0.0.0/8 dst 20.0.0.0/8 port 80 nexthop 10.0.0.6
apply pbr P1 interface eth0
acl ACL1 rule deny src 10.0.0.0/8 dst 20.0.0.0/8 port 443
acl ACL1 rule permit
apply acl ACL1 interface eth0
)";

TEST(ConfigParserTest, ParsesFullSampleWithoutErrors) {
  const ParseResult result = parseDeviceConfig(kSampleConfig);
  for (const ParseError& error : result.errors) ADD_FAILURE() << error.str();
  const DeviceConfig& config = result.config;
  EXPECT_EQ(Names::str(config.hostname), "R1");
  EXPECT_EQ(Names::str(config.vendor), "VendorA");
  EXPECT_EQ(config.routerId.str(), "1.1.1.1");
  EXPECT_EQ(config.bgp.asn, 65001u);
  EXPECT_EQ(config.bgp.neighbors.size(), 2u);
  EXPECT_EQ(config.bgp.redistributions.size(), 2u);
  EXPECT_EQ(config.bgp.aggregates.size(), 1u);
  EXPECT_TRUE(config.bgp.aggregates[0].asSet);
  EXPECT_EQ(config.staticRoutes.size(), 2u);
  EXPECT_TRUE(config.staticRoutes[1].discard);
  EXPECT_EQ(config.srPolicies.size(), 1u);
  EXPECT_EQ(config.srPolicies[0].segments.size(), 2u);
  EXPECT_EQ(config.vrfs.size(), 1u);
  // Only IMPORT is defined (the vrf's EXP is referenced, not defined).
  ASSERT_EQ(config.routePolicies.size(), 1u);
}

TEST(ConfigParserTest, PolicyNodesParsedInSequenceOrder) {
  const ParseResult result = parseDeviceConfig(kSampleConfig);
  const RoutePolicy* policy = result.config.findRoutePolicy(Names::id("IMPORT"));
  ASSERT_NE(policy, nullptr);
  ASSERT_EQ(policy->nodes.size(), 2u);
  EXPECT_EQ(policy->nodes[0].sequence, 10u);
  EXPECT_EQ(policy->nodes[0].action, PolicyAction::kPermit);
  EXPECT_EQ(policy->nodes[1].action, PolicyAction::kDeny);
  ASSERT_TRUE(policy->nodes[0].sets.localPref.has_value());
  EXPECT_EQ(*policy->nodes[0].sets.localPref, 300u);
  ASSERT_TRUE(policy->nodes[0].sets.prepend.has_value());
  EXPECT_EQ(policy->nodes[0].sets.prepend->second, 2u);
}

TEST(ConfigParserTest, PrefixListFamilyComesFromCommandKeyword) {
  // The §6.1(b) VSB: ip-prefix vs ipv6-prefix determines the list family.
  const ParseResult result = parseDeviceConfig(
      "ip-prefix V4LIST index 10 permit 10.0.0.0/24\n"
      "ipv6-prefix V6LIST index 10 permit 2400:db8::/32\n"
      // The incident pattern: IPv6 prefixes mistakenly under ip-prefix.
      "ip-prefix OOPS index 10 permit 2400:db8::/32\n");
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.config.findPrefixList(Names::id("V4LIST"))->family, IpFamily::kV4);
  EXPECT_EQ(result.config.findPrefixList(Names::id("V6LIST"))->family, IpFamily::kV6);
  EXPECT_EQ(result.config.findPrefixList(Names::id("OOPS"))->family, IpFamily::kV4);
}

TEST(ConfigParserTest, CollectsErrorsInsteadOfThrowing) {
  const ParseResult result = parseDeviceConfig(
      "bogus-command 1\n"
      "router-id not-an-ip\n"
      "hostname R1\n");
  EXPECT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(Names::str(result.config.hostname), "R1");  // Parsing continued.
}

TEST(ConfigParserTest, NoFormsRemoveConfiguration) {
  DeviceConfig config = parseDeviceConfig(kSampleConfig).config;
  const auto errors = applyDeviceCommands(config, nullptr,
                                          "no static-route 10.9.0.0/24 nexthop 10.0.0.2\n"
                                          "no route-policy IMPORT node 20\n"
                                          "router bgp 65001\n"
                                          " no neighbor 10.0.0.2\n"
                                          " no aggregate 10.0.0.0/16\n"
                                          "no sr-policy SRP1\n");
  for (const ParseError& error : errors) ADD_FAILURE() << error.str();
  EXPECT_EQ(config.staticRoutes.size(), 1u);
  EXPECT_EQ(config.findRoutePolicy(Names::id("IMPORT"))->nodes.size(), 1u);
  EXPECT_EQ(config.bgp.neighbors.size(), 1u);
  EXPECT_TRUE(config.bgp.aggregates.empty());
  EXPECT_TRUE(config.srPolicies.empty());
}

TEST(ConfigParserTest, IncrementalPolicyNodeEdit) {
  DeviceConfig config = parseDeviceConfig(kSampleConfig).config;
  // Re-entering a node updates it; adding a new node inserts in order.
  const auto errors = applyDeviceCommands(config, nullptr,
                                          "route-policy IMPORT node 10 permit\n"
                                          " apply local-pref 500\n"
                                          "route-policy IMPORT node 15 deny\n"
                                          " match ip-prefix PL1\n");
  EXPECT_TRUE(errors.empty());
  const RoutePolicy* policy = config.findRoutePolicy(Names::id("IMPORT"));
  ASSERT_EQ(policy->nodes.size(), 3u);
  EXPECT_EQ(policy->nodes[0].sequence, 10u);
  EXPECT_EQ(*policy->nodes[0].sets.localPref, 500u);
  EXPECT_EQ(policy->nodes[1].sequence, 15u);
  EXPECT_EQ(policy->nodes[2].sequence, 20u);
}

TEST(ConfigParserTest, InterfaceBlockEditsTopologyDevice) {
  Device device;
  device.name = Names::id("R9");
  DeviceConfig config;
  const auto errors = applyDeviceCommands(config, &device,
                                          "interface eth0\n"
                                          " address 10.0.0.1/30\n"
                                          " isis enable\n"
                                          " isis cost 25\n"
                                          " vrf blue\n"
                                          "interface eth1\n"
                                          " address 10.0.0.5/30\n"
                                          " shutdown\n");
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(device.interfaces.size(), 2u);
  EXPECT_EQ(device.interfaces[0].address.str(), "10.0.0.1");
  EXPECT_EQ(device.interfaces[0].prefixLength, 30);
  EXPECT_TRUE(device.interfaces[0].isisEnabled);
  EXPECT_EQ(device.interfaces[0].isisCost, 25u);
  EXPECT_EQ(Names::str(device.interfaces[0].vrf), "blue");
  EXPECT_TRUE(device.interfaces[1].shutdown);
}

// IS-IS wide metrics are 24 bits (RFC 5305): 16777215 parses, and a larger
// cost is a located error naming the range rather than a value truncated to
// 32 bits (4294967296 would read as 0). Change commands share the grammar.
TEST(ConfigParserTest, IsisCostBeyondTheWideMetricRangeIsALocatedError) {
  const ParseResult largest =
      parseDeviceConfig("hostname R1\ninterface eth0\n isis cost 16777215\n");
  EXPECT_TRUE(largest.errors.empty());
  ASSERT_EQ(largest.device.interfaces.size(), 1u);
  EXPECT_EQ(largest.device.interfaces[0].isisCost, 16777215u);
  for (const std::string cost : {"16777216", "4294967296"}) {
    const ParseResult parsed =
        parseDeviceConfig("hostname R1\ninterface eth0\n isis cost " + cost + "\n");
    ASSERT_EQ(parsed.errors.size(), 1u) << cost;
    EXPECT_EQ(parsed.errors[0].line, 3) << cost;
    EXPECT_NE(parsed.errors[0].message.find("0..16777215"), std::string::npos)
        << parsed.errors[0].str();
    EXPECT_EQ(parsed.device.interfaces[0].isisCost, Interface{}.isisCost) << cost;
  }
  Device device;
  device.name = Names::id("R9");
  DeviceConfig config;
  const auto errors = applyDeviceCommands(config, &device,
                                          "interface eth0\n"
                                          " isis cost 25\n"
                                          " isis cost 4294967296\n");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].line, 3);
  EXPECT_NE(errors[0].message.find("0..16777215"), std::string::npos) << errors[0].str();
  EXPECT_EQ(device.interfaces[0].isisCost, 25u);
}

TEST(ConfigPrinterTest, RoundTripPreservesModel) {
  const ParseResult first = parseDeviceConfig(kSampleConfig);
  ASSERT_TRUE(first.errors.empty());
  const std::string printed = printDeviceConfig(first.config, nullptr);
  const ParseResult second = parseDeviceConfig(printed);
  for (const ParseError& error : second.errors) ADD_FAILURE() << error.str();
  // Spot-check semantic equality of the round-tripped model.
  EXPECT_EQ(second.config.bgp.asn, first.config.bgp.asn);
  EXPECT_EQ(second.config.bgp.neighbors.size(), first.config.bgp.neighbors.size());
  EXPECT_EQ(second.config.staticRoutes.size(), first.config.staticRoutes.size());
  EXPECT_EQ(second.config.routePolicies.size(), first.config.routePolicies.size());
  EXPECT_EQ(second.config.prefixLists.size(), first.config.prefixLists.size());
  EXPECT_EQ(second.config.srPolicies.size(), first.config.srPolicies.size());
  EXPECT_EQ(second.config.pbrPolicies.size(), first.config.pbrPolicies.size());
  EXPECT_EQ(second.config.acls.size(), first.config.acls.size());
  EXPECT_EQ(second.config.vrfs.size(), first.config.vrfs.size());
  const RoutePolicy* policy = second.config.findRoutePolicy(Names::id("IMPORT"));
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->nodes.size(), 2u);
  EXPECT_EQ(*policy->nodes[0].sets.localPref, 300u);
}

// --- filter matchers -----------------------------------------------------------

TEST(PrefixListTest, GeLe) {
  PrefixListEntry entry;
  entry.prefix = *Prefix::parse("10.0.0.0/8");
  entry.ge = 16;
  entry.le = 24;
  EXPECT_FALSE(entry.matches(*Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(entry.matches(*Prefix::parse("10.1.0.0/16")));
  EXPECT_TRUE(entry.matches(*Prefix::parse("10.1.2.0/24")));
  EXPECT_FALSE(entry.matches(*Prefix::parse("10.1.2.128/25")));
  EXPECT_FALSE(entry.matches(*Prefix::parse("11.0.0.0/16")));
}

TEST(PrefixListTest, ExactMatchWhenNoBounds) {
  PrefixListEntry entry;
  entry.prefix = *Prefix::parse("10.0.0.0/24");
  EXPECT_TRUE(entry.matches(*Prefix::parse("10.0.0.0/24")));
  EXPECT_FALSE(entry.matches(*Prefix::parse("10.0.0.0/25")));
}

TEST(PrefixListTest, FirstMatchWins) {
  PrefixList list;
  list.entries.push_back({false, *Prefix::parse("10.0.1.0/24"), 0, 0});
  list.entries.push_back({true, *Prefix::parse("10.0.0.0/16"), 16, 32});
  EXPECT_FALSE(list.permits(*Prefix::parse("10.0.1.0/24")));
  EXPECT_TRUE(list.permits(*Prefix::parse("10.0.2.0/24")));
  EXPECT_FALSE(list.permits(*Prefix::parse("11.0.0.0/24")));  // No match => no.
}

TEST(CommunityListTest, FirstMatchOnMembership) {
  CommunityList list;
  list.entries.push_back({false, Community(666, 0)});
  list.entries.push_back({true, Community(100, 1)});
  CommunitySet good{Community(100, 1)};
  CommunitySet bad{Community(666, 0), Community(100, 1)};
  EXPECT_TRUE(list.permits(good));
  EXPECT_FALSE(list.permits(bad));
  EXPECT_FALSE(list.permits(CommunitySet{}));
}

TEST(AclTest, FirstMatchThenImplicitDeny) {
  AclConfig acl;
  acl.rules.push_back({false, Prefix::parse("10.0.0.0/8"), Prefix::parse("20.0.0.0/8"),
                       uint16_t{443}, {}});
  acl.rules.push_back({true, {}, {}, {}, {}});
  EXPECT_FALSE(acl.permits(*IpAddress::parse("10.1.1.1"), *IpAddress::parse("20.1.1.1"),
                           443, 6));
  EXPECT_TRUE(acl.permits(*IpAddress::parse("10.1.1.1"), *IpAddress::parse("20.1.1.1"),
                          80, 6));
  AclConfig onlyDeny;
  onlyDeny.rules.push_back({false, {}, Prefix::parse("20.0.0.0/8"), {}, {}});
  // Non-matching traffic hits the implicit deny once rules exist.
  EXPECT_FALSE(onlyDeny.permits(*IpAddress::parse("1.1.1.1"),
                                *IpAddress::parse("8.8.8.8"), 80, 6));
}

TEST(VendorProfileTest, ThreeVendorsDivergeOnEveryVsb) {
  const VendorProfile& a = vendorA();
  const VendorProfile& b = vendorB();
  const VendorProfile& c = vendorC();
  // Spot checks on the semantically loaded knobs.
  EXPECT_TRUE(a.igpCostZeroViaSrTunnel);
  EXPECT_FALSE(b.igpCostZeroViaSrTunnel);
  EXPECT_TRUE(c.ipv4PrefixListPermitsAllV6);
  EXPECT_FALSE(a.ipv4PrefixListPermitsAllV6);
  EXPECT_NE(a.ebgpAdminDistance, b.ebgpAdminDistance);
  EXPECT_NE(a.acceptWhenPolicyUndefined, b.acceptWhenPolicyUndefined);
  EXPECT_NE(b.acceptWhenNoNodeMatches, c.acceptWhenNoNodeMatches);
  // Lookup by name falls back to VendorB.
  EXPECT_EQ(&vendorProfile(Names::id("VendorC")), &c);
  EXPECT_EQ(&vendorProfile(Names::id("nonexistent")), &b);
}

TEST(DeviceConfigTest, EffectiveNeighborInheritsPeerGroupPerVsb) {
  DeviceConfig config;
  BgpPeerGroup group;
  group.name = Names::id("PG");
  group.importPolicy = Names::id("GROUP-IN");
  group.nextHopSelf = true;
  config.bgp.peerGroups.push_back(group);
  BgpNeighbor neighbor;
  neighbor.peerAddress = *IpAddress::parse("1.2.3.4");
  neighbor.peerGroup = group.name;
  const BgpNeighbor inherited = config.effectiveNeighbor(neighbor, true);
  EXPECT_EQ(inherited.importPolicy, group.importPolicy);
  EXPECT_TRUE(inherited.nextHopSelf);
  // The "inheriting views" VSB off: peer-group options ignored.
  const BgpNeighbor bare = config.effectiveNeighbor(neighbor, false);
  EXPECT_FALSE(bare.importPolicy.has_value());
  EXPECT_FALSE(bare.nextHopSelf);
}

TEST(TokenizerTest, QuotedTokensKeepSpaces) {
  const auto tokens = tokenizeConfigLine("as-path-list X index 10 permit \".* 123 .*\"");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[5], ".* 123 .*");
}

}  // namespace
}  // namespace hoyan
