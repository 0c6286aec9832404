// Stable content fingerprints for the incremental verification engine.
//
// Every input a subtask's result depends on — input-route/flow chunks, the
// model sections the simulation reads, sim options — hashes to a 64-bit
// FNV-1a fingerprint. Fingerprints compose into content-addressed result
// keys (src/incr/cache.h): equal key ⇒ equal subtask inputs ⇒ the cached
// result is byte-identical to a re-simulation.
//
// Fingerprints are stable within one process (NameIds are interned once per
// process); the cache never outlives the process, so cross-process stability
// is not required.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "config/device_config.h"
#include "net/flow.h"
#include "net/route.h"
#include "proto/network_model.h"
#include "sim/route_sim.h"
#include "sim/traffic_sim.h"
#include "topo/topology.h"

namespace hoyan::incr {

// 64-bit FNV-1a accumulator. Order-sensitive: mix fields in a fixed order.
class Fnv1a {
 public:
  static constexpr uint64_t kOffset = 1469598103934665603ULL;
  static constexpr uint64_t kPrime = 1099511628211ULL;

  Fnv1a& mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ (value & 0xff)) * kPrime;
      value >>= 8;
    }
    return *this;
  }
  Fnv1a& mix(std::string_view text) {
    mix(static_cast<uint64_t>(text.size()));
    for (const char c : text) hash_ = (hash_ ^ static_cast<uint8_t>(c)) * kPrime;
    return *this;
  }
  Fnv1a& mix(const IpAddress& address) {
    return mix(static_cast<uint64_t>(address.family()))
        .mix(address.bits().hi)
        .mix(address.bits().lo);
  }
  Fnv1a& mix(const Prefix& prefix) {
    return mix(prefix.address()).mix(static_cast<uint64_t>(prefix.length()));
  }
  // Distinguishes empty optionals from zero values.
  template <typename T>
  Fnv1a& mixOptional(const std::optional<T>& value) {
    mix(static_cast<uint64_t>(value.has_value()));
    if (value) mix(static_cast<uint64_t>(*value));
    return *this;
  }

  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = kOffset;
};

// Renders a fingerprint as fixed-width hex for object-store keys.
std::string fingerprintHex(uint64_t fingerprint);

// --- model sections ---------------------------------------------------------

// The full device configuration (every section route simulation can read).
uint64_t fingerprintDeviceConfig(const DeviceConfig& config);

// Section-level fingerprints, used by the change-impact analyzer to decide
// whether a config delta is confined to prefix-scoped sections. Sections
// whose fingerprints match here are byte-equal for simulation purposes.
struct ConfigSectionFingerprints {
  uint64_t identity = 0;      // hostname, vendor, router-id, isolation.
  uint64_t bgpCore = 0;       // ASN, neighbours, peer groups, redistributions.
  uint64_t aggregates = 0;    // BGP aggregate origination (prefix-scoped).
  uint64_t staticRoutes = 0;
  uint64_t srPolicies = 0;
  uint64_t prefixLists = 0;   // Prefix-scoped.
  uint64_t communityLists = 0;
  uint64_t asPathLists = 0;
  uint64_t routePolicies = 0; // Prefix-scoped when nodes match prefix lists.
  uint64_t pbrPolicies = 0;
  uint64_t acls = 0;
  uint64_t vrfs = 0;

  friend bool operator==(const ConfigSectionFingerprints&,
                         const ConfigSectionFingerprints&) = default;
};

ConfigSectionFingerprints fingerprintConfigSections(const DeviceConfig& config);

uint64_t fingerprintRoutePolicy(const RoutePolicy& policy);
uint64_t fingerprintPolicyNode(const PolicyNode& node);
uint64_t fingerprintPrefixList(const PrefixList& list);

// Topology: devices (role, loopback, IGP domain, interfaces), links, and the
// administrative failure overlay.
uint64_t fingerprintTopology(const Topology& topology);

// The whole model as route simulation sees it: topology + every device
// config. Derived state (sessions, SPF, address index) is a pure function of
// these and needs no separate fingerprint.
uint64_t fingerprintModel(const NetworkModel& model);

// The model slice traffic simulation and flow-EC building read: topology,
// ACLs, PBR, SR policies, VRFs, isolation, vendor. Routing policy content is
// excluded — its effect reaches the data plane only through the RIB files a
// traffic subtask loads, which the cache key covers via their content keys.
uint64_t fingerprintForwardingState(const NetworkModel& model);

// The model slice the local-routes subtask reads (sim/local_routes.cc):
// topology/interfaces, static routes, VRFs, vendor, IGP membership. Route
// policies are not evaluated there.
uint64_t fingerprintLocalRouteState(const NetworkModel& model);

// --- simulation options -----------------------------------------------------

// Result-affecting route-sim knobs only: maxRounds, useEquivalenceClasses and
// memoryBudgetRoutes (the telemetry and provenance sinks and policyMemo
// change no result).
uint64_t fingerprintRouteOptions(const RouteSimOptions& options);
uint64_t fingerprintTrafficOptions(const TrafficSimOptions& options);

// --- subtask inputs ---------------------------------------------------------

uint64_t fingerprintInputRouteChunk(std::span<const InputRoute> chunk);
uint64_t fingerprintFlowChunk(std::span<const Flow> chunk);

}  // namespace hoyan::incr
