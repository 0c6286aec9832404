// Local (non-BGP-propagated) route installation and redistribution inputs.
//
// Direct, static, and IS-IS routes exist on a device regardless of which
// input routes a simulation subtask covers, so they are computed separately:
// the distributed master schedules them as one dedicated subtask (§3.2)
// rather than replicating them into every subtask's result, and centralized
// simulation (simulateCentralized) merges the same file after its BGP routes.
#pragma once

#include <unordered_set>
#include <vector>

#include "net/route.h"
#include "proto/network_model.h"

namespace hoyan::obs {
class ProvenanceRecorder;
}  // namespace hoyan::obs

namespace hoyan {

// Admin distances for non-BGP protocols (BGP distances are per-vendor VSBs).
inline constexpr uint8_t kDirectAdminDistance = 0;
inline constexpr uint8_t kIsisAdminDistance = 15;
inline constexpr uint8_t kAggregateAdminDistance = 130;

// The prefixes of the local routes a caller keeps (see installLocalRoutes).
using LocalPrefixSet = std::unordered_set<Prefix>;

// Installs direct (interface subnets + /32 host routes + loopbacks), static,
// and IS-IS (domain loopbacks with SPF costs, ECMP expanded) routes for every
// active device into `ribs`, and returns how many it installed. When
// `provenance` is set (and enabled), emits a local-installed event per
// watched route in sorted (device, vrf, prefix) order; `ribs` must start
// empty for those events to cover exactly the local routes (the local-routes
// subtask and simulateCentralized both pass a fresh RIB set, which they merge
// or finish afterwards).
//
// `keep` restricts the install to the routes whose prefix it holds: null
// keeps every route, an empty set keeps none and returns at once. A kept
// cell holds exactly the routes, in the order, that the unrestricted
// install gives it, because every route of a prefix is kept or none is. An
// IS-IS loopback that is not kept is skipped before its SPF path is read,
// and a device gets a RIB only once it has a kept route.
size_t installLocalRoutes(const NetworkModel& model, NetworkRibs& ribs,
                          obs::ProvenanceRecorder* provenance = nullptr,
                          const LocalPrefixSet* keep = nullptr);

// Derives the BGP routes each device originates by redistribution
// (redistribute static/direct/isis, with per-redistribution policies and the
// redistributed-weight & /32 VSBs applied). The result is expressed as input
// routes so the distributed route simulation treats them uniformly with
// monitored external inputs.
std::vector<InputRoute> computeRedistributedInputs(const NetworkModel& model);

}  // namespace hoyan
