// Traffic (data-plane) simulation: forwards input flows hop-by-hop over the
// simulated RIBs to produce per-flow forwarding paths and per-link traffic
// loads (§3.1, the Jingubang subsystem).
//
// Forwarding of one flow builds a small DAG of (device, SR-tunnel-state)
// nodes: at each node the flow is PBR-checked, ACL-checked, LPM-looked-up,
// split across ECMP next hops (route-level ECMP times IGP-level ECMP), or
// walked along an SR segment list. Volumes propagate through the DAG in
// topological order; a cycle marks the flow as looped. An edge between two
// tunnel states of one device (SR entry, segment advance, exit) carries the
// volume on but is no FlowHop and loads no link.
//
// Both entry points forward over a ForwardingView (forwarding_view.h): a
// plain NetworkRibs, or a distributed traffic subtask's own RIBs layered over
// the shared local-routes FIB. A lookup takes the longer of the two layers'
// matches and the own layer wins a tie, so paths and loads are those of one
// merged RIB.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/flow.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "sim/flow_ec.h"

namespace hoyan::obs {
class Telemetry;
}  // namespace hoyan::obs

namespace hoyan {

// Directed per-link traffic volumes (bits per second).
class LinkLoadMap {
 public:
  void add(NameId from, NameId to, double bps) {
    if (bps != 0) loads_[pack(from, to)] += bps;
  }
  double get(NameId from, NameId to) const {
    const auto it = loads_.find(pack(from, to));
    return it == loads_.end() ? 0.0 : it->second;
  }
  void merge(const LinkLoadMap& other) {
    for (const auto& [key, bps] : other.loads_) loads_[key] += bps;
  }
  size_t size() const { return loads_.size(); }

  struct Entry {
    NameId from, to;
    double bps;
  };
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(loads_.size());
    for (const auto& [key, bps] : loads_)
      out.push_back({static_cast<NameId>(key >> 32), static_cast<NameId>(key), bps});
    return out;
  }

 private:
  static uint64_t pack(NameId from, NameId to) { return (uint64_t{from} << 32) | to; }
  std::unordered_map<uint64_t, double> loads_;
};

struct TrafficSimOptions {
  bool useEquivalenceClasses = true;
  // Optional sink for per-phase spans/metrics (null = disabled, no cost).
  obs::Telemetry* telemetry = nullptr;
};

struct TrafficSimStats {
  size_t inputFlows = 0;
  size_t simulatedFlows = 0;  // After EC reduction.
  FlowEcStats ec;
  size_t delivered = 0;
  size_t exited = 0;
  size_t blackholed = 0;
  size_t looped = 0;
  size_t deniedAcl = 0;
  // Per-phase wall times of one simulateTraffic call (also traced as spans).
  double ecSeconds = 0;       // Flow equivalence-class reduction.
  double forwardSeconds = 0;  // DAG forwarding + load accumulation.

  // Folds one subtask's stats into a merged total: counts and seconds add.
  void add(const TrafficSimStats& other) {
    inputFlows += other.inputFlows;
    simulatedFlows += other.simulatedFlows;
    delivered += other.delivered;
    exited += other.exited;
    blackholed += other.blackholed;
    looped += other.looped;
    deniedAcl += other.deniedAcl;
    ec.inputFlows += other.ec.inputFlows;
    ec.classes += other.ec.classes;
    ecSeconds += other.ecSeconds;
    forwardSeconds += other.forwardSeconds;
  }
};

struct TrafficSimResult {
  // One path per simulated (representative) flow, volume = class total.
  std::vector<FlowPath> paths;
  // Input flow index -> index into `paths` (identity when ECs disabled).
  std::vector<size_t> flowToPath;
  LinkLoadMap linkLoads;
  TrafficSimStats stats;
};

// Simulates all flows. Every RIB of `view` must have its forwarding index
// built.
TrafficSimResult simulateTraffic(const NetworkModel& model, const ForwardingView& view,
                                 std::span<const Flow> flows,
                                 const TrafficSimOptions& options = {});

// Simulates a single flow exactly (no EC), e.g. for intent counter-examples
// and root-cause analysis.
FlowPath simulateSingleFlow(const NetworkModel& model, const ForwardingView& view,
                            const Flow& flow);

}  // namespace hoyan
