// Route-decision provenance (§5.2): an opt-in, prefix-scoped recorder that
// captures *why* a device holds (or lost, or never received) a route during
// simulation — route received from a peer, denied by a policy clause, lost a
// best-path tie-break (with the deciding step of the decision process),
// chosen as best/ECMP, withdrawn, advertised onward, or rewritten by a
// vendor-specific behaviour.
//
// The recorder is the evidence layer under three consumers:
//   * `explain(device, prefix)` — the decision chain as structured JSON,
//     following learnedFrom upstream hop by hop (the paper's step-by-step
//     route tracing);
//   * the propagation-graph builder (`diag/prop_graph`) — received/denied/
//     advertised events become graph edges for the §5.2 workflow;
//   * RCL counterexamples — violations carry the explain chains of the
//     routes they name (`rcl/verify`, embedded by `core/report_json`).
//
// Memory is bounded twice: a prefix filter (only watched prefixes record,
// checked before any string is rendered) and per-device + total event caps.
// Disabled (the default) the cost at every capture site is one null-pointer
// test, preserving the < 2% overhead bar the telemetry layer set.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/route.h"

namespace hoyan::obs {

enum class RouteEventKind : uint8_t {
  kReceived,           // Accepted from a peer (post ingress policy).
  kPolicyDenied,       // Ingress/egress policy denied (detail: the clause).
  kLoopPrevented,      // AS-path / originator-id loop prevention dropped it.
  kNexthopUnresolved,  // Nexthop neither IGP-reachable nor adjacent.
  kVsbApplied,         // A vendor-specific behaviour rewrote the route.
  kChosenBest,         // Won best-path selection.
  kChosenEcmp,         // Equal with best through IGP cost.
  kLostTieBreak,       // Lost selection (detail: the deciding step).
  kWithdrawn,          // Previously received routes replaced by a withdraw.
  kAdvertised,         // Sent to a peer (post egress policy).
  kLocalInstalled,     // Direct/static/IS-IS route installed locally.
};

std::string routeEventKindName(RouteEventKind kind);

// One provenance event. `peer` is the sender for received/denied/withdrawn
// events, the receiver for advertised events, and the advertising neighbour
// (learnedFrom) for selection events — kInvalidName when not applicable.
struct RouteEvent {
  RouteEventKind kind = RouteEventKind::kReceived;
  NameId device = kInvalidName;
  NameId vrf = kInvalidName;
  Prefix prefix;
  NameId peer = kInvalidName;
  std::string detail;  // Policy clause / deciding step / VSB name.
  std::string route;   // Rendered route content, where meaningful.
  uint64_t seq = 0;    // Recorder-assigned total order.

  std::string str() const;
  std::string toJson() const;
};

struct ProvenanceOptions {
  bool enabled = false;
  // Record events whose prefix is covered by (equal to or contained in) any
  // of these. Empty = watch every prefix (still capped).
  std::vector<Prefix> prefixes;
  size_t perDeviceEventCap = 512;
  size_t totalEventCap = 65536;
};

// Thread-safe event sink. Capture sites hold a nullable pointer and guard
// with `recorder && recorder->wants(...)`, so the disabled path costs one
// branch and renders no strings.
class ProvenanceRecorder {
 public:
  ProvenanceRecorder() = default;
  explicit ProvenanceRecorder(ProvenanceOptions options)
      : options_(std::move(options)) {}

  const ProvenanceOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled; }

  // Cheap pre-check: enabled and the prefix passes the filter. Call before
  // building the event (the caps are applied in record()).
  bool wants(const Prefix& prefix) const;

  // Appends an event (assigning its seq) unless a cap is hit.
  void record(RouteEvent event);

  // Appends another recorder's events in their order, re-assigning seq — the
  // distributed master merges per-subtask logs in subtask order with this, so
  // output is identical for every worker count (same discipline as the
  // traffic-load merge).
  void append(const std::vector<RouteEvent>& events);

  std::vector<RouteEvent> snapshot() const;
  size_t eventCount() const;
  size_t droppedEvents() const;  // Events lost to the caps.
  void clear();

  // The decision chain for (device, prefix) as structured JSON:
  //   {"device":..,"prefix":..,"events":[..],"dropped":n,"upstream":[..]}
  // `events` covers the device's events whose prefix equals `prefix` or is
  // contained in it; `upstream` recursively explains the devices the chosen
  // routes were learned from (bounded by maxDepth, cycles cut).
  std::string explainJson(NameId device, const Prefix& prefix,
                          size_t maxDepth = 8) const;

 private:
  ProvenanceOptions options_;
  mutable std::mutex mutex_;
  std::vector<RouteEvent> events_;
  std::unordered_map<NameId, size_t> perDevice_;
  size_t dropped_ = 0;
  uint64_t nextSeq_ = 0;
};

// Parses an `--explain=<device>/<prefix>` style target: the device name up to
// the first '/', the rest a prefix (which itself contains a '/'). Returns
// false on an unparsable prefix.
bool parseExplainTarget(const std::string& spec, std::string& device, Prefix& prefix);

// --- compressed event logs ---------------------------------------------------
//
// The cross-run result cache stores each subtask's event log under
// `<result key>#prov` so recording runs can serve cache hits and *replay*
// the original execution's decision events (lifting the old
// provenance-bypasses-the-cache rule). Blobs are compact: a string table
// interns the repeated detail/route strings and all integers are
// varint-packed, so a blob is typically 5-10x smaller than the in-memory
// vector. `filterFp` pins the recorder configuration the events were
// captured under — a blob recorded under a different prefix filter or cap
// set must not be replayed (the subtask re-runs instead).
struct CompressedRouteEvents {
  uint64_t filterFp = 0;
  size_t eventCount = 0;
  std::vector<uint8_t> bytes;
};

// Fingerprint of everything that shapes *which* events a recorder captures:
// enabled, the prefix filter, and both caps.
uint64_t provenanceOptionsFingerprint(const ProvenanceOptions& options);

std::vector<uint8_t> compressRouteEvents(const std::vector<RouteEvent>& events);
// Inverse of compressRouteEvents; returns the events parsed before the first
// malformed byte (a well-formed blob round-trips exactly).
std::vector<RouteEvent> decompressRouteEvents(const std::vector<uint8_t>& bytes);

}  // namespace hoyan::obs
