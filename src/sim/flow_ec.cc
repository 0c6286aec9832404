#include "sim/flow_ec.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>

namespace hoyan {

FlowEcPlan buildFlowEcs(const NetworkModel& model, const ForwardingView& view,
                        std::span<const Flow> flows, FlowEcStats* stats) {
  // The own layer's prefix union; a shared layer's comes prebuilt.
  const PrefixUnion ownPrefixes(view.own());

  // Distinct PBR and ACL rules network-wide (flows matching them differently
  // can diverge even with identical LPM results).
  std::vector<PbrRule> pbrRules;
  std::vector<AclRule> aclRules;
  for (const auto& [name, config] : model.configs.devices()) {
    for (const auto& [policyName, policy] : config.pbrPolicies)
      if (!policy.appliedInterfaces.empty())
        pbrRules.insert(pbrRules.end(), policy.rules.begin(), policy.rules.end());
    for (const auto& [aclName, acl] : config.acls)
      if (!acl.appliedInterfaces.empty())
        aclRules.insert(aclRules.end(), acl.rules.begin(), acl.rules.end());
  }

  // A flow's policy fate: one match bit per rule above, packed.
  const size_t words = (pbrRules.size() + aclRules.size() + 63) / 64;
  std::vector<uint64_t> bits(words);
  const auto fillMatchBits = [&](const Flow& flow) {
    std::fill(bits.begin(), bits.end(), 0);
    size_t bit = 0;
    const auto record = [&](bool matches) {
      if (matches) bits[bit / 64] |= uint64_t{1} << (bit % 64);
      ++bit;
    };
    for (const PbrRule& rule : pbrRules)
      record((!rule.srcPrefix || rule.srcPrefix->contains(flow.src)) &&
             (!rule.dstPrefix || rule.dstPrefix->contains(flow.dst)) &&
             (!rule.dstPort || *rule.dstPort == flow.dstPort));
    for (const AclRule& rule : aclRules)
      record(rule.matches(flow.src, flow.dst, flow.dstPort, flow.ipProtocol));
  };

  // A class is keyed on (ingress, VRF, atom, match bits); its representative
  // holds the ingress and VRF. The key's hash only picks a bucket; the
  // classes sharing one are chained through `nextInBucket`, so a collision
  // never merges two classes.
  constexpr size_t kNoClass = SIZE_MAX;
  std::vector<std::optional<Prefix>> classAtoms;
  std::vector<uint64_t> classBits;  // `words` per class.
  std::vector<size_t> nextInBucket;
  std::unordered_map<size_t, size_t> bucketHead;

  FlowEcPlan plan;
  plan.flowToClass.reserve(flows.size());
  for (const Flow& flow : flows) {
    // Atom of the destination: the most specific union prefix covering it.
    const std::optional<Prefix> atom = view.atom(ownPrefixes, flow.dst);
    fillMatchBits(flow);
    size_t h = flow.ingressDevice;
    h = h * 0x9e3779b97f4a7c15ULL ^ flow.vrf;
    h = h * 0x9e3779b97f4a7c15ULL ^ (atom ? atom->hashValue() : 0x12345);
    h = h * 0x9e3779b97f4a7c15ULL ^ (atom ? 1 : 0);
    for (const uint64_t word : bits) h = h * 0x9e3779b97f4a7c15ULL ^ word;
    const auto sameKey = [&](size_t c) {
      const Flow& representative = plan.representatives[c];
      return representative.ingressDevice == flow.ingressDevice &&
             representative.vrf == flow.vrf && classAtoms[c] == atom &&
             std::equal(bits.begin(), bits.end(), classBits.begin() + c * words);
    };
    size_t* slot = &bucketHead.try_emplace(h, kNoClass).first->second;
    while (*slot != kNoClass && !sameKey(*slot)) slot = &nextInBucket[*slot];
    size_t cls = *slot;
    if (cls == kNoClass) {
      cls = plan.representatives.size();
      *slot = cls;
      plan.representatives.push_back(flow);
      classAtoms.push_back(atom);
      classBits.insert(classBits.end(), bits.begin(), bits.end());
      nextInBucket.push_back(kNoClass);
    } else {
      plan.representatives[cls].volumeBps += flow.volumeBps;
    }
    plan.flowToClass.push_back(cls);
  }
  if (stats) {
    stats->inputFlows = flows.size();
    stats->classes = plan.representatives.size();
  }
  return plan;
}

}  // namespace hoyan
