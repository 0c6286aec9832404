#include "proto/network_model.h"

namespace hoyan {

NetworkModel NetworkModel::build(Topology topology, NetworkConfig configs) {
  NetworkModel model;
  model.topology = std::move(topology);
  model.configs = std::move(configs);
  model.rebuildDerived();
  return model;
}

void NetworkModel::rebuildDerived() {
  addresses = AddressIndex::build(topology);
  rebuildDerivedForFailures();
}

void NetworkModel::rebuildDerivedForFailures() {
  adjacency = AdjacencyTable(topology);
  igp = IgpState::compute(topology, adjacency);
  sessionProblems.clear();
  sessions = deriveBgpSessions(topology, adjacency, configs, addresses, igp,
                               &sessionProblems);
  sessionIndex = SessionIndex(sessions);
}

namespace {

size_t approxSessionBytes(const NetworkModel& model) {
  size_t bytes = model.sessions.capacity() * sizeof(BgpSession) +
                 model.sessionIndex.approxBytes();
  for (const std::string& problem : model.sessionProblems)
    bytes += sizeof(std::string) + problem.capacity();
  return bytes;
}

}  // namespace

size_t NetworkModel::approxDeepBytes() const {
  return topology.approxBytes() + configs.approxBytes() + adjacency.approxBytes() +
         addresses.approxBytes() + igp.approxBytes() + approxSessionBytes(*this);
}

size_t NetworkModel::materializedBytes(const NetworkModel& base) const {
  size_t bytes = topology.materializedBytes(base.topology);
  if (!configs.sharesStorageWith(base.configs)) bytes += configs.approxBytes();
  if (!addresses.sharesStorageWith(base.addresses)) bytes += addresses.approxBytes();
  // Adjacency, IGP and session state are always recomputed per instance.
  bytes += adjacency.approxBytes() + igp.approxBytes() + approxSessionBytes(*this);
  return bytes;
}

const VendorProfile& NetworkModel::vendorOf(NameId device) const {
  const DeviceConfig* config = configs.findDevice(device);
  return vendorProfile(config ? config->vendor : kInvalidName);
}

const SrPolicyConfig* NetworkModel::srPolicyFor(NameId device,
                                                const IpAddress& nexthop) const {
  const DeviceConfig* config = configs.findDevice(device);
  if (!config) return nullptr;
  for (const SrPolicyConfig& policy : config->srPolicies)
    if (policy.endpoint == nexthop) return &policy;
  return nullptr;
}

}  // namespace hoyan
