// Property checkers beyond RCL: control/data-plane reachability, flow-path
// change intents (the Rela-style intents of [50], simplified), traffic-load
// intents, and k-failure fault-tolerance checking (§6.2).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "sim/traffic_sim.h"

namespace hoyan {

// --- reachability --------------------------------------------------------

// Control-plane reachability: the devices on which `prefix` has a best route
// (e.g. "route X advertised from router A can reach router B").
std::vector<NameId> devicesWithRoute(const NetworkRibs& ribs, const Prefix& prefix,
                                     NameId vrf = kInvalidName);

// Data-plane reachability: whether a packet from `ingress` to `dst` is
// delivered/exits (vs blackholed/looped/denied).
bool dataPlaneReachable(const NetworkModel& model, const NetworkRibs& ribs,
                        NameId ingress, const IpAddress& dst,
                        NameId vrf = kInvalidName);

// --- flow-path change intents ------------------------------------------------

// "Flows on path A should be moved to path B": every flow whose base path
// used the directed link sequence A must, in the updated network, use B and
// not A.
struct PathChangeIntent {
  std::vector<NameId> fromPath;  // Device sequence (>= 2 devices).
  std::vector<NameId> toPath;
  // Restrict the intent to flows whose destination falls in this prefix.
  std::optional<Prefix> dstFilter;
  // When false, flows may keep using the old path as long as they now also
  // traverse the new one (e.g. the new path extends the old, as with PBR
  // steering at an on-path device).
  bool requireLeaveOldPath = true;
};

struct PathChangeViolation {
  Flow flow;
  std::string reason;
};

std::vector<PathChangeViolation> checkPathChange(
    const NetworkModel& baseModel, const NetworkRibs& baseRibs,
    const NetworkModel& updatedModel, const NetworkRibs& updatedRibs,
    std::span<const Flow> flows, const PathChangeIntent& intent);

// --- traffic-load intents ------------------------------------------------------

// "No link would be overloaded after the change": utilization of every link
// stays at or below `maxUtilization` of its bandwidth.
struct LoadViolation {
  NameId from = kInvalidName;
  NameId to = kInvalidName;
  double loadBps = 0;
  double bandwidthBps = 0;

  double utilization() const { return bandwidthBps > 0 ? loadBps / bandwidthBps : 0; }
  std::string str() const;
};

// Every directed device pair whose load exceeds `maxUtilization` of its
// capacity (Topology::capacityBps: parallel member links add up), most
// utilized first.
std::vector<LoadViolation> checkLinkLoads(const Topology& topology,
                                          const LinkLoadMap& loads,
                                          double maxUtilization = 0.8);

// --- k-failure checking -----------------------------------------------------------

// Verifies that `property` holds under every combination of at most k failed
// links (and optionally single device failures). The property receives the
// degraded model and its re-simulated RIBs. Returns the first
// `maxCounterexamples` failing failure sets.
struct FailureSet {
  std::vector<std::pair<NameId, NameId>> failedLinks;
  std::vector<NameId> failedDevices;

  std::string str() const;
};

struct KFailureOptions {
  int k = 1;
  bool includeDeviceFailures = false;
  size_t maxCounterexamples = 4;
  // Restrict enumeration to links touching these devices (empty = all).
  std::vector<NameId> focusDevices;
};

using NetworkProperty =
    std::function<bool(const NetworkModel&, const NetworkRibs&)>;

struct KFailureResult {
  size_t scenariosChecked = 0;
  std::vector<FailureSet> counterexamples;

  bool holds() const { return counterexamples.empty(); }
};

KFailureResult checkKFailures(const NetworkModel& baseModel,
                              std::span<const InputRoute> inputs,
                              const NetworkProperty& property,
                              const KFailureOptions& options = {});

// Traffic-load fault tolerance (the Yu [27] capability referenced in §6.2):
// verifies that no link exceeds `maxUtilization` under every failure set of
// at most k links — each scenario re-runs route *and* traffic simulation on
// the degraded network.
KFailureResult checkKFailureLoads(const NetworkModel& baseModel,
                                  std::span<const InputRoute> inputs,
                                  std::span<const Flow> flows, double maxUtilization,
                                  const KFailureOptions& options = {});

}  // namespace hoyan
