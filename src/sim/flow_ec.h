// Flow equivalence classes (§3.1).
//
// Two flows are equivalent when their longest-prefix matches on all RIBs are
// the same — then they share forwarding paths and only one needs simulating.
// The LPM-everywhere condition is computed cheaply: the union of all
// prefixes with routes across all RIBs (PrefixUnion) partitions the address
// space into atoms (identified by the most specific union prefix covering an
// address); within an atom every RIB's LPM result is constant. Over a
// two-layer view (forwarding_view.h) the shared layer's union comes prebuilt
// and only the own layer's is built per call; an atom is the longer of the
// two layers' matches, so the classes are those of one merged RIB. Flows
// additionally must enter at the same device/VRF and match the network's PBR
// and ACL rules identically (policy-based routing is source/port-sensitive,
// so those fields join the class key). In production this cuts flows ~100x.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/flow.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "sim/forwarding_view.h"

namespace hoyan {

struct FlowEcStats {
  size_t inputFlows = 0;
  size_t classes = 0;

  double reductionFactor() const {
    return classes == 0 ? 1.0 : static_cast<double>(inputFlows) / classes;
  }
};

struct FlowEcPlan {
  // One representative flow per class; volumeBps is the class total.
  std::vector<Flow> representatives;
  // Input flow index -> class index.
  std::vector<size_t> flowToClass;
};

FlowEcPlan buildFlowEcs(const NetworkModel& model, const ForwardingView& view,
                        std::span<const Flow> flows, FlowEcStats* stats = nullptr);

}  // namespace hoyan
