#include "incr/fingerprint.h"

#include <cstdio>
#include <cstring>

namespace hoyan::incr {
namespace {

// Section tags keep adjacent empty containers from hashing identically when
// content migrates between them.
enum : uint64_t {
  kTagIdentity = 0xA1,
  kTagBgpCore = 0xA2,
  kTagAggregates = 0xA3,
  kTagStatics = 0xA4,
  kTagSrPolicies = 0xA5,
  kTagPrefixLists = 0xA6,
  kTagCommunityLists = 0xA7,
  kTagAsPathLists = 0xA8,
  kTagRoutePolicies = 0xA9,
  kTagPbr = 0xAA,
  kTagAcls = 0xAB,
  kTagVrfs = 0xAC,
  kTagTopology = 0xAD,
  kTagDevice = 0xAE,
};

void mixAsPath(Fnv1a& h, const AsPath& path) {
  h.mix(static_cast<uint64_t>(path.segments().size()));
  for (const auto& segment : path.segments()) {
    h.mix(static_cast<uint64_t>(segment.type));
    h.mix(static_cast<uint64_t>(segment.asns.size()));
    for (const Asn asn : segment.asns) h.mix(static_cast<uint64_t>(asn));
  }
}

void mixCommunities(Fnv1a& h, const CommunitySet& communities) {
  h.mix(static_cast<uint64_t>(communities.size()));
  for (const Community c : communities) h.mix(static_cast<uint64_t>(c.raw()));
}

void mixRoute(Fnv1a& h, const Route& route) {
  h.mix(route.prefix);
  h.mix(static_cast<uint64_t>(route.vrf));
  h.mix(static_cast<uint64_t>(route.protocol));
  h.mix(static_cast<uint64_t>(route.adminDistance));
  h.mix(static_cast<uint64_t>(route.igpCost));
  h.mix(route.nexthop);
  h.mix(static_cast<uint64_t>(route.learnedFrom));
  h.mix(static_cast<uint64_t>(route.nexthopDevice));
  h.mix(static_cast<uint64_t>(route.outInterface));
  h.mix(static_cast<uint64_t>(route.ebgpLearned));
  h.mix(static_cast<uint64_t>(route.viaSrTunnel));
  h.mix(static_cast<uint64_t>(route.fromDirectSlash32));
  h.mix(static_cast<uint64_t>(route.leaked));
  h.mix(static_cast<uint64_t>(route.attrs.localPref));
  h.mix(static_cast<uint64_t>(route.attrs.med));
  h.mix(static_cast<uint64_t>(route.attrs.weight));
  h.mix(static_cast<uint64_t>(route.attrs.origin));
  mixCommunities(h, route.attrs.communities);
  mixAsPath(h, route.attrs.asPath);
  h.mix(static_cast<uint64_t>(route.attrs.originatorId));
}

void mixPrefixListEntry(Fnv1a& h, const PrefixListEntry& entry) {
  h.mix(static_cast<uint64_t>(entry.permit));
  h.mix(entry.prefix);
  h.mix(static_cast<uint64_t>(entry.ge));
  h.mix(static_cast<uint64_t>(entry.le));
}

void mixPolicySets(Fnv1a& h, const PolicySets& sets) {
  h.mixOptional(sets.localPref);
  h.mixOptional(sets.med);
  h.mixOptional(sets.weight);
  h.mix(static_cast<uint64_t>(sets.nexthop.has_value()));
  if (sets.nexthop) h.mix(*sets.nexthop);
  h.mix(static_cast<uint64_t>(sets.addCommunities.size()));
  for (const Community c : sets.addCommunities) h.mix(static_cast<uint64_t>(c.raw()));
  h.mix(static_cast<uint64_t>(sets.deleteCommunities.size()));
  for (const Community c : sets.deleteCommunities) h.mix(static_cast<uint64_t>(c.raw()));
  h.mix(static_cast<uint64_t>(sets.clearCommunities));
  h.mix(static_cast<uint64_t>(sets.prepend.has_value()));
  if (sets.prepend) {
    h.mix(static_cast<uint64_t>(sets.prepend->first));
    h.mix(static_cast<uint64_t>(sets.prepend->second));
  }
  h.mix(static_cast<uint64_t>(sets.overwriteAsPath.has_value()));
  if (sets.overwriteAsPath) {
    h.mix(static_cast<uint64_t>(sets.overwriteAsPath->size()));
    for (const Asn asn : *sets.overwriteAsPath) h.mix(static_cast<uint64_t>(asn));
  }
}

void mixPolicyNode(Fnv1a& h, const PolicyNode& node) {
  h.mix(static_cast<uint64_t>(node.sequence));
  h.mix(static_cast<uint64_t>(node.action));
  h.mixOptional(node.match.prefixList);
  h.mixOptional(node.match.communityList);
  h.mixOptional(node.match.asPathList);
  h.mix(static_cast<uint64_t>(node.match.nexthop.has_value()));
  if (node.match.nexthop) h.mix(*node.match.nexthop);
  h.mix(static_cast<uint64_t>(node.match.protocol.has_value()));
  if (node.match.protocol) h.mix(static_cast<uint64_t>(*node.match.protocol));
  mixPolicySets(h, node.sets);
}

void mixNeighbor(Fnv1a& h, const BgpNeighbor& neighbor) {
  h.mix(neighbor.peerAddress);
  h.mix(static_cast<uint64_t>(neighbor.remoteAs));
  h.mix(static_cast<uint64_t>(neighbor.vrf));
  h.mixOptional(neighbor.peerGroup);
  h.mixOptional(neighbor.importPolicy);
  h.mixOptional(neighbor.exportPolicy);
  h.mix(static_cast<uint64_t>(neighbor.routeReflectorClient));
  h.mix(static_cast<uint64_t>(neighbor.nextHopSelf));
  h.mix(static_cast<uint64_t>(neighbor.addPathSend));
  h.mix(static_cast<uint64_t>(neighbor.shutdown));
}

void mixInterface(Fnv1a& h, const Interface& itf) {
  h.mix(static_cast<uint64_t>(itf.name));
  h.mix(itf.address);
  h.mix(static_cast<uint64_t>(itf.prefixLength));
  h.mix(static_cast<uint64_t>(itf.vrf));
  h.mix(static_cast<uint64_t>(itf.isisEnabled));
  h.mix(static_cast<uint64_t>(itf.isisCost));
  uint64_t bandwidthBits;
  static_assert(sizeof(bandwidthBits) == sizeof(itf.bandwidthBps));
  std::memcpy(&bandwidthBits, &itf.bandwidthBps, sizeof(bandwidthBits));
  h.mix(bandwidthBits);
  h.mix(static_cast<uint64_t>(itf.shutdown));
}

uint64_t identityFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagIdentity});
  h.mix(static_cast<uint64_t>(config.hostname));
  h.mix(static_cast<uint64_t>(config.vendor));
  h.mix(config.routerId);
  h.mix(static_cast<uint64_t>(config.isolated));
  return h.digest();
}

uint64_t bgpCoreFingerprint(const BgpConfig& bgp) {
  Fnv1a h;
  h.mix(uint64_t{kTagBgpCore});
  h.mix(static_cast<uint64_t>(bgp.asn));
  h.mix(static_cast<uint64_t>(bgp.neighbors.size()));
  for (const BgpNeighbor& neighbor : bgp.neighbors) mixNeighbor(h, neighbor);
  h.mix(static_cast<uint64_t>(bgp.peerGroups.size()));
  for (const BgpPeerGroup& group : bgp.peerGroups) {
    h.mix(static_cast<uint64_t>(group.name));
    h.mixOptional(group.importPolicy);
    h.mixOptional(group.exportPolicy);
    h.mix(static_cast<uint64_t>(group.routeReflectorClient));
    h.mix(static_cast<uint64_t>(group.nextHopSelf));
    h.mix(static_cast<uint64_t>(group.addPathSend));
  }
  h.mix(static_cast<uint64_t>(bgp.redistributions.size()));
  for (const Redistribution& redist : bgp.redistributions) {
    h.mix(static_cast<uint64_t>(redist.from));
    h.mixOptional(redist.policy);
  }
  return h.digest();
}

uint64_t aggregatesFingerprint(const BgpConfig& bgp) {
  Fnv1a h;
  h.mix(uint64_t{kTagAggregates});
  h.mix(static_cast<uint64_t>(bgp.aggregates.size()));
  for (const AggregateConfig& aggregate : bgp.aggregates) {
    h.mix(aggregate.prefix);
    h.mix(static_cast<uint64_t>(aggregate.vrf));
    h.mix(static_cast<uint64_t>(aggregate.asSet));
    h.mix(static_cast<uint64_t>(aggregate.summaryOnly));
  }
  return h.digest();
}

uint64_t staticsFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagStatics});
  h.mix(static_cast<uint64_t>(config.staticRoutes.size()));
  for (const StaticRouteConfig& route : config.staticRoutes) {
    h.mix(route.prefix);
    h.mix(route.nexthop);
    h.mix(static_cast<uint64_t>(route.vrf));
    h.mix(static_cast<uint64_t>(route.preference));
    h.mix(static_cast<uint64_t>(route.discard));
  }
  return h.digest();
}

uint64_t srPoliciesFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagSrPolicies});
  h.mix(static_cast<uint64_t>(config.srPolicies.size()));
  for (const SrPolicyConfig& policy : config.srPolicies) {
    h.mix(static_cast<uint64_t>(policy.name));
    h.mix(policy.endpoint);
    h.mix(static_cast<uint64_t>(policy.segments.size()));
    for (const IpAddress& segment : policy.segments) h.mix(segment);
    h.mix(static_cast<uint64_t>(policy.color));
  }
  return h.digest();
}

uint64_t prefixListsFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagPrefixLists});
  h.mix(static_cast<uint64_t>(config.prefixLists.size()));
  for (const auto& [name, list] : config.prefixLists) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(fingerprintPrefixList(list));
  }
  return h.digest();
}

uint64_t communityListsFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagCommunityLists});
  h.mix(static_cast<uint64_t>(config.communityLists.size()));
  for (const auto& [name, list] : config.communityLists) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(list.entries.size()));
    for (const CommunityListEntry& entry : list.entries) {
      h.mix(static_cast<uint64_t>(entry.permit));
      h.mix(static_cast<uint64_t>(entry.community.raw()));
    }
  }
  return h.digest();
}

uint64_t asPathListsFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagAsPathLists});
  h.mix(static_cast<uint64_t>(config.asPathLists.size()));
  for (const auto& [name, list] : config.asPathLists) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(list.entries.size()));
    for (const AsPathListEntry& entry : list.entries) {
      h.mix(static_cast<uint64_t>(entry.permit));
      h.mix(entry.regex);
    }
  }
  return h.digest();
}

uint64_t routePoliciesFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagRoutePolicies});
  h.mix(static_cast<uint64_t>(config.routePolicies.size()));
  for (const auto& [name, policy] : config.routePolicies) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(fingerprintRoutePolicy(policy));
  }
  return h.digest();
}

uint64_t pbrFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagPbr});
  h.mix(static_cast<uint64_t>(config.pbrPolicies.size()));
  for (const auto& [name, policy] : config.pbrPolicies) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(policy.rules.size()));
    for (const PbrRule& rule : policy.rules) {
      h.mix(static_cast<uint64_t>(rule.srcPrefix.has_value()));
      if (rule.srcPrefix) h.mix(*rule.srcPrefix);
      h.mix(static_cast<uint64_t>(rule.dstPrefix.has_value()));
      if (rule.dstPrefix) h.mix(*rule.dstPrefix);
      h.mixOptional(rule.dstPort);
      h.mix(rule.setNexthop);
    }
    h.mix(static_cast<uint64_t>(policy.appliedInterfaces.size()));
    for (const NameId itf : policy.appliedInterfaces) h.mix(static_cast<uint64_t>(itf));
  }
  return h.digest();
}

uint64_t aclsFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagAcls});
  h.mix(static_cast<uint64_t>(config.acls.size()));
  for (const auto& [name, acl] : config.acls) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(acl.rules.size()));
    for (const AclRule& rule : acl.rules) {
      h.mix(static_cast<uint64_t>(rule.permit));
      h.mix(static_cast<uint64_t>(rule.srcPrefix.has_value()));
      if (rule.srcPrefix) h.mix(*rule.srcPrefix);
      h.mix(static_cast<uint64_t>(rule.dstPrefix.has_value()));
      if (rule.dstPrefix) h.mix(*rule.dstPrefix);
      h.mixOptional(rule.dstPort);
      h.mixOptional(rule.ipProtocol);
    }
    h.mix(static_cast<uint64_t>(acl.appliedInterfaces.size()));
    for (const NameId itf : acl.appliedInterfaces) h.mix(static_cast<uint64_t>(itf));
  }
  return h.digest();
}

uint64_t vrfsFingerprint(const DeviceConfig& config) {
  Fnv1a h;
  h.mix(uint64_t{kTagVrfs});
  h.mix(static_cast<uint64_t>(config.vrfs.size()));
  for (const auto& [name, vrf] : config.vrfs) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(vrf.importRouteTargets.size()));
    for (const uint64_t rt : vrf.importRouteTargets) h.mix(rt);
    h.mix(static_cast<uint64_t>(vrf.exportRouteTargets.size()));
    for (const uint64_t rt : vrf.exportRouteTargets) h.mix(rt);
    h.mixOptional(vrf.exportPolicy);
  }
  return h.digest();
}

}  // namespace

std::string fingerprintHex(uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

uint64_t fingerprintPrefixList(const PrefixList& list) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(list.family));
  h.mix(static_cast<uint64_t>(list.entries.size()));
  for (const PrefixListEntry& entry : list.entries) mixPrefixListEntry(h, entry);
  return h.digest();
}

uint64_t fingerprintPolicyNode(const PolicyNode& node) {
  Fnv1a h;
  mixPolicyNode(h, node);
  return h.digest();
}

uint64_t fingerprintRoutePolicy(const RoutePolicy& policy) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(policy.nodes.size()));
  for (const PolicyNode& node : policy.nodes) mixPolicyNode(h, node);
  return h.digest();
}

ConfigSectionFingerprints fingerprintConfigSections(const DeviceConfig& config) {
  ConfigSectionFingerprints out;
  out.identity = identityFingerprint(config);
  out.bgpCore = bgpCoreFingerprint(config.bgp);
  out.aggregates = aggregatesFingerprint(config.bgp);
  out.staticRoutes = staticsFingerprint(config);
  out.srPolicies = srPoliciesFingerprint(config);
  out.prefixLists = prefixListsFingerprint(config);
  out.communityLists = communityListsFingerprint(config);
  out.asPathLists = asPathListsFingerprint(config);
  out.routePolicies = routePoliciesFingerprint(config);
  out.pbrPolicies = pbrFingerprint(config);
  out.acls = aclsFingerprint(config);
  out.vrfs = vrfsFingerprint(config);
  return out;
}

uint64_t fingerprintDeviceConfig(const DeviceConfig& config) {
  const ConfigSectionFingerprints sections = fingerprintConfigSections(config);
  Fnv1a h;
  h.mix(sections.identity);
  h.mix(sections.bgpCore);
  h.mix(sections.aggregates);
  h.mix(sections.staticRoutes);
  h.mix(sections.srPolicies);
  h.mix(sections.prefixLists);
  h.mix(sections.communityLists);
  h.mix(sections.asPathLists);
  h.mix(sections.routePolicies);
  h.mix(sections.pbrPolicies);
  h.mix(sections.acls);
  h.mix(sections.vrfs);
  return h.digest();
}

uint64_t fingerprintTopology(const Topology& topology) {
  Fnv1a h;
  h.mix(uint64_t{kTagTopology});
  h.mix(static_cast<uint64_t>(topology.devices().size()));
  for (const auto& [name, device] : topology.devices()) {
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(device.role));
    h.mix(device.loopback);
    h.mix(static_cast<uint64_t>(device.igpDomain));
    h.mix(static_cast<uint64_t>(topology.deviceActive(name)));
    h.mix(static_cast<uint64_t>(device.interfaces.size()));
    for (const Interface& itf : device.interfaces) mixInterface(h, itf);
  }
  h.mix(static_cast<uint64_t>(topology.links().size()));
  for (size_t i = 0; i < topology.links().size(); ++i) {
    const Link& link = topology.links()[i];
    h.mix(static_cast<uint64_t>(link.deviceA));
    h.mix(static_cast<uint64_t>(link.interfaceA));
    h.mix(static_cast<uint64_t>(link.deviceB));
    h.mix(static_cast<uint64_t>(link.interfaceB));
    h.mix(static_cast<uint64_t>(topology.linkUp(i)));  // Effective state.
  }
  return h.digest();
}

uint64_t fingerprintModel(const NetworkModel& model) {
  Fnv1a h;
  h.mix(fingerprintTopology(model.topology));
  h.mix(static_cast<uint64_t>(model.configs.devices().size()));
  for (const auto& [name, config] : model.configs.devices()) {
    h.mix(uint64_t{kTagDevice});
    h.mix(static_cast<uint64_t>(name));
    h.mix(fingerprintDeviceConfig(config));
  }
  return h.digest();
}

uint64_t fingerprintForwardingState(const NetworkModel& model) {
  Fnv1a h;
  h.mix(fingerprintTopology(model.topology));
  h.mix(static_cast<uint64_t>(model.configs.devices().size()));
  for (const auto& [name, config] : model.configs.devices()) {
    h.mix(uint64_t{kTagDevice});
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(config.vendor));
    h.mix(static_cast<uint64_t>(config.isolated));
    h.mix(srPoliciesFingerprint(config));
    h.mix(pbrFingerprint(config));
    h.mix(aclsFingerprint(config));
    h.mix(vrfsFingerprint(config));
  }
  return h.digest();
}

uint64_t fingerprintLocalRouteState(const NetworkModel& model) {
  Fnv1a h;
  h.mix(fingerprintTopology(model.topology));
  h.mix(static_cast<uint64_t>(model.configs.devices().size()));
  for (const auto& [name, config] : model.configs.devices()) {
    h.mix(uint64_t{kTagDevice});
    h.mix(static_cast<uint64_t>(name));
    h.mix(static_cast<uint64_t>(config.vendor));
    h.mix(static_cast<uint64_t>(config.isolated));
    h.mix(staticsFingerprint(config));
    h.mix(vrfsFingerprint(config));
  }
  return h.digest();
}

uint64_t fingerprintRouteOptions(const RouteSimOptions& options) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(options.maxRounds));
  h.mix(static_cast<uint64_t>(options.useEquivalenceClasses));
  h.mix(static_cast<uint64_t>(options.memoryBudgetRoutes));
  return h.digest();
}

uint64_t fingerprintTrafficOptions(const TrafficSimOptions& options) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(options.useEquivalenceClasses));
  return h.digest();
}

uint64_t fingerprintInputRouteChunk(std::span<const InputRoute> chunk) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(chunk.size()));
  for (const InputRoute& input : chunk) {
    h.mix(static_cast<uint64_t>(input.device));
    mixRoute(h, input.route);
  }
  return h.digest();
}

uint64_t fingerprintFlowChunk(std::span<const Flow> chunk) {
  Fnv1a h;
  h.mix(static_cast<uint64_t>(chunk.size()));
  for (const Flow& flow : chunk) {
    h.mix(flow.src);
    h.mix(flow.dst);
    h.mix(static_cast<uint64_t>(flow.srcPort));
    h.mix(static_cast<uint64_t>(flow.dstPort));
    h.mix(static_cast<uint64_t>(flow.ipProtocol));
    h.mix(static_cast<uint64_t>(flow.ingressDevice));
    h.mix(static_cast<uint64_t>(flow.vrf));
    uint64_t volumeBits;
    static_assert(sizeof(volumeBits) == sizeof(flow.volumeBps));
    std::memcpy(&volumeBits, &flow.volumeBps, sizeof(volumeBits));
    h.mix(volumeBits);
  }
  return h.digest();
}

}  // namespace hoyan::incr
