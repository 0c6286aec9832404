// The built network model: topology + parsed configs + derived state
// (address ownership index, IS-IS SPF, BGP sessions, SR tunnel resolution).
//
// This is what the network-model building service produces in Hoyan's daily
// pre-processing phase (§2.2); change verification clones it, applies the
// change plan incrementally, and rebuilds only the derived state.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "config/device_config.h"
#include "config/vendor.h"
#include "proto/address_index.h"
#include "proto/bgp.h"
#include "proto/isis.h"
#include "topo/topology.h"

namespace hoyan {

struct NetworkModel {
  Topology topology;
  NetworkConfig configs;

  // Derived state (valid after build()/rebuildDerived()).
  // Active adjacencies per device; read them through adjacenciesOf().
  AdjacencyTable adjacency;
  AddressIndex addresses;
  IgpState igp;
  std::vector<BgpSession> sessions;
  std::vector<std::string> sessionProblems;
  // Indices into `sessions` by local device; read them through
  // sessionIndex.of(device).
  SessionIndex sessionIndex;

  static NetworkModel build(Topology topology, NetworkConfig configs);

  // Recomputes the derived state after topology/config mutation.
  void rebuildDerived();

  // Recomputes only the failure-dependent derived state (adjacencies, IGP
  // SPF, BGP sessions and their index). Address ownership depends on the
  // device inventory alone — not on link masks or failed devices — so a model
  // sharing a base model's topology/config storage keeps the base's
  // AddressIndex untouched.
  // Only valid when the mutation since the last rebuild is a failure overlay
  // (masked links, failed devices, setLinkState); config or inventory edits
  // need the full rebuildDerived().
  void rebuildDerivedForFailures();

  // Estimated deep size of the whole model, as if nothing were shared.
  size_t approxDeepBytes() const;
  // Estimated bytes actually owned by this model given copy-on-write sharing
  // with `base`: shared tables count ~0, detached/derived state counts deep.
  size_t materializedBytes(const NetworkModel& base) const;

  const VendorProfile& vendorOf(NameId device) const;

  // The device's active adjacencies as of the last rebuild, in the order of
  // Topology::adjacenciesOf; O(log devices), no allocation.
  std::span<const Adjacency> adjacenciesOf(NameId device) const {
    return adjacency.of(device);
  }

  // Resolves the SR policy (if any) on `device` steering traffic to
  // `nexthop`; nullptr when no policy endpoint matches.
  const SrPolicyConfig* srPolicyFor(NameId device, const IpAddress& nexthop) const;
};

}  // namespace hoyan
