#include "sim/flow_ec.h"

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

  const auto policySignature = [&](const Flow& flow) {
    size_t h = 0x811c9dc5;
    for (const PbrRule& rule : pbrRules) {
      const bool matches = (!rule.srcPrefix || rule.srcPrefix->contains(flow.src)) &&
                           (!rule.dstPrefix || rule.dstPrefix->contains(flow.dst)) &&
                           (!rule.dstPort || *rule.dstPort == flow.dstPort);
      h = (h << 1) ^ (matches ? 0x9e3779b9u : 0x85ebca6bu);
    }
    for (const AclRule& rule : aclRules)
      h = (h << 1) ^
          (rule.matches(flow.src, flow.dst, flow.dstPort, flow.ipProtocol) ? 0xc2b2ae35u
                                                                           : 0x27d4eb2fu);
    return h;
  };

  FlowEcPlan plan;
  plan.flowToClass.reserve(flows.size());
  std::unordered_map<size_t, size_t> classIndex;
  for (const Flow& flow : flows) {
    // Atom of the destination: the most specific union prefix covering it.
    const std::optional<Prefix> atom = view.atom(ownPrefixes, flow.dst);
    size_t h = flow.ingressDevice;
    h = h * 0x9e3779b97f4a7c15ULL ^ flow.vrf;
    h = h * 0x9e3779b97f4a7c15ULL ^ (atom ? atom->hashValue() : 0x12345);
    h = h * 0x9e3779b97f4a7c15ULL ^ (atom ? 1 : 0);
    h = h * 0x9e3779b97f4a7c15ULL ^ policySignature(flow);
    const auto [it, inserted] = classIndex.try_emplace(h, plan.representatives.size());
    if (inserted) {
      plan.representatives.push_back(flow);
    } else {
      plan.representatives[it->second].volumeBps += flow.volumeBps;
    }
    plan.flowToClass.push_back(it->second);
  }
  if (stats) {
    stats->inputFlows = flows.size();
    stats->classes = plan.representatives.size();
  }
  return plan;
}

}  // namespace hoyan
