// Network topology: devices, interfaces, links, and change/failure overlays.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "net/names.h"

namespace hoyan {

// A (point-to-point) interface on a device. Interface subnets produce the
// direct routes that seed IS-IS and BGP nexthop resolution.
struct Interface {
  NameId name = kInvalidName;
  IpAddress address;
  uint8_t prefixLength = 30;
  NameId vrf = kInvalidName;  // kInvalidName means the global/default VRF.
  bool isisEnabled = false;
  uint32_t isisCost = 10;
  double bandwidthBps = 100e9;
  bool shutdown = false;

  Prefix subnet() const { return Prefix(address, prefixLength); }
};

// The role of a device in the synthetic WAN; used by generators and by
// verification properties (e.g. "all routers in a group").
enum class DeviceRole : uint8_t {
  kCore,       // WAN backbone router.
  kBorder,     // Connects to ISP peers.
  kDcGateway,  // Connects a datacenter network.
  kDcnCore,    // Core-layer router of an attached DCN (WAN+DCN runs).
  kRouteReflector,
  kExternalPeer,  // ISP router outside our administration.
};

// Physical device description (configuration lives in config::DeviceConfig;
// this is the inventory/topology view).
struct Device {
  NameId name = kInvalidName;
  DeviceRole role = DeviceRole::kCore;
  IpAddress loopback;  // Also the router-id and the iBGP session endpoint.
  // IS-IS level/area: SPF runs per domain so WAN+DCN scales (the WAN is one
  // domain, each attached DCN its own). kInvalidName = no IGP participation.
  NameId igpDomain = kInvalidName;
  std::vector<Interface> interfaces;

  const Interface* findInterface(NameId ifName) const {
    for (const Interface& itf : interfaces)
      if (itf.name == ifName) return &itf;
    return nullptr;
  }
  Interface* findInterface(NameId ifName) {
    return const_cast<Interface*>(static_cast<const Device*>(this)->findInterface(ifName));
  }
};

// An undirected physical link between two device interfaces.
struct Link {
  NameId deviceA = kInvalidName;
  NameId interfaceA = kInvalidName;
  NameId deviceB = kInvalidName;
  NameId interfaceB = kInvalidName;
  bool up = true;

  bool connects(NameId device) const { return deviceA == device || deviceB == device; }
  NameId peerOf(NameId device) const { return deviceA == device ? deviceB : deviceA; }
  std::string str() const;
};

// The directed view of a link from one endpoint.
struct Adjacency {
  NameId localInterface = kInvalidName;
  NameId neighbor = kInvalidName;
  NameId neighborInterface = kInvalidName;
  size_t linkIndex = 0;
};

// Copy-on-write topology. Copying a Topology shares the device and link
// tables (shared_ptr); structural mutators detach a private copy first, so a
// copy is O(1) until written — which is what lets every sweep worker hold a
// "private" model whose tables are physically the base model's
// (sweep/sweep.cc). Failure state stays per instance: `failedDevices_` and
// the overlay link-down mask are value members, so a shared-table copy can
// fail links/devices without ever detaching. The *effective* link state is
// `linkUp(i)` = physical `up` flag minus the overlay mask; readers that honor
// failures (adjacencies, SPF, candidate enumeration) go through it.
class Topology {
 public:
  Topology();

  Device& addDevice(Device device);
  // Adds a link; both endpoints must exist. Returns the link index.
  size_t addLink(NameId deviceA, NameId interfaceA, NameId deviceB, NameId interfaceB);

  const Device* findDevice(NameId name) const {
    const auto it = devices_->find(name);
    return it == devices_->end() ? nullptr : &it->second;
  }
  // Mutable lookup: detaches the device table when it is shared.
  Device* findDevice(NameId name) {
    auto& devices = mutableDevices();
    const auto it = devices.find(name);
    return it == devices.end() ? nullptr : &it->second;
  }

  const std::map<NameId, Device>& devices() const { return *devices_; }
  const std::vector<Link>& links() const { return *links_; }
  // Mutable link table: detaches when shared. Prefer the overlay mask
  // (maskLinkDown/unmaskLink) for reversible failures — it never detaches.
  std::vector<Link>& mutableLinks() { return mutableLinksImpl(); }

  size_t deviceCount() const { return devices_->size(); }

  // Effective link state: the physical `up` flag minus the overlay mask.
  bool linkUp(size_t index) const {
    return (*links_)[index].up && !linkMasked(index);
  }
  bool linkMasked(size_t index) const;
  // Reversible per-instance link failure: marks the link down without
  // touching the (possibly shared) link table. O(mask), not O(links).
  void maskLinkDown(size_t index);
  void unmaskLink(size_t index);
  void clearLinkOverlay() { overlayDownLinks_.clear(); }
  size_t overlayMaskedLinks() const { return overlayDownLinks_.size(); }

  // True when link `index` forms an active adjacency: the link is up, both
  // devices are active, and both interfaces exist and are not shut down. The
  // one rule behind adjacenciesOf and AdjacencyTable.
  bool linkActive(size_t index) const;

  // Active adjacencies of a device, in link-index order (a self-loop link
  // once). Rescans every link per call: callers holding a NetworkModel read
  // its prebuilt table (NetworkModel::adjacenciesOf) instead.
  std::vector<Adjacency> adjacenciesOf(NameId device) const;

  // Capacity from `from` towards `to`: the `from`-side bandwidth summed over
  // every active member link between the two (linkActive's rule), so
  // parallel links add up; 100 Gb/s when no member is active. One pass over
  // the link table.
  double capacityBps(NameId from, NameId to) const;

  // The device owning an interface whose subnet contains `addr` and that is
  // directly adjacent to `from` — resolves a nexthop IP to the forwarding
  // neighbour.
  std::optional<Adjacency> resolveNexthop(NameId from, const IpAddress& nexthop) const;

  // The device whose loopback equals `addr`, if any.
  std::optional<NameId> deviceByLoopback(const IpAddress& addr) const;

  void setLinkState(NameId deviceA, NameId deviceB, bool up);
  bool removeLink(NameId deviceA, NameId deviceB);
  void removeDevice(NameId device);

  // True when the device exists and is not administratively failed.
  bool deviceActive(NameId device) const {
    return devices_->contains(device) && !failedDevices_.contains(device);
  }
  void failDevice(NameId device) { failedDevices_[device] = true; }
  void restoreDevice(NameId device) { failedDevices_.erase(device); }

  // True when this instance still shares both tables with `other` — i.e. a
  // copy that has not been structurally written.
  bool sharesStorageWith(const Topology& other) const {
    return devices_ == other.devices_ && links_ == other.links_;
  }
  // Estimated deep size of the device/link tables (what a non-CoW copy would
  // materialize); used by the sweep's worker-memory accounting.
  size_t approxBytes() const;
  // Bytes this instance materializes beyond tables shared with `base`: the
  // overlay mask and failure set, plus any detached table.
  size_t materializedBytes(const Topology& base) const;

 private:
  std::map<NameId, Device>& mutableDevices();
  std::vector<Link>& mutableLinksImpl();

  std::shared_ptr<std::map<NameId, Device>> devices_;
  std::shared_ptr<std::vector<Link>> links_;
  std::vector<size_t> overlayDownLinks_;  // Masked-down link indices.
  std::unordered_map<NameId, bool> failedDevices_;
};

// Every device's active adjacencies, built in one pass over the link table
// with exactly Topology::adjacenciesOf's rule and order. It describes the
// topology state it was built from, so it is derived state: rebuild it after
// any link, interface or failure change (NetworkModel does, in
// rebuildDerived and rebuildDerivedForFailures).
class AdjacencyTable {
 public:
  AdjacencyTable() = default;
  explicit AdjacencyTable(const Topology& topology);

  // The device's adjacencies, element for element what
  // Topology::adjacenciesOf returned at build time; empty for a failed or
  // unknown device.
  std::span<const Adjacency> of(NameId device) const;

  size_t approxBytes() const;

 private:
  std::vector<NameId> devices_;    // Sorted; devices with an adjacency only.
  std::vector<uint32_t> offsets_;  // devices_.size() + 1 bounds into adjacencies_.
  std::vector<Adjacency> adjacencies_;
};

// A reversible link+device failure mask over one Topology instance. The
// k-failure sweep (src/sweep) applies thousands of scenarios that differ by a
// handful of failed elements; copying the whole NetworkModel per scenario is
// the allocation hot spot this replaces. `apply` records exactly the state it
// changes — the indices of links it masks down and the devices it newly marks
// failed — and `revert` restores that state bit-for-bit, so one long-lived
// topology cycles through scenarios. Failures go through the topology's
// overlay mask and per-instance failed-device set, never the (possibly
// shared) link table, so applying an overlay to a copy-on-write topology
// materializes O(impact) bytes, not O(model). Derived model state
// (SPF, sessions, address index) is the caller's to rebuild after apply.
class FailureOverlay {
 public:
  // Fails every link between the pair, in either orientation — the same
  // matching rule as setLinkState, so parallel links go down together.
  void addLink(NameId deviceA, NameId deviceB) { links_.emplace_back(deviceA, deviceB); }
  void addDevice(NameId device) { devices_.push_back(device); }
  bool empty() const { return links_.empty() && devices_.empty(); }

  // Applies the mask. Links already down and devices already failed are left
  // untouched (and untouched by revert). Throws std::logic_error if already
  // applied without an intervening revert.
  void apply(Topology& topology);
  // Restores the exact pre-apply state; must get the same topology instance.
  // No-op when not applied, so it is safe as a cleanup path.
  void revert(Topology& topology);
  bool applied() const { return applied_; }

 private:
  std::vector<std::pair<NameId, NameId>> links_;
  std::vector<NameId> devices_;
  std::vector<size_t> downedLinks_;    // Link indices we masked down.
  std::vector<NameId> failedDevices_;  // Devices we newly marked failed.
  bool applied_ = false;
};

// A topology delta, the topology half of a change plan (§2.2): links/devices
// to add or remove before re-simulation.
struct TopologyChange {
  std::vector<Device> addDevices;
  struct NewLink {
    NameId deviceA, interfaceA, deviceB, interfaceB;
  };
  std::vector<NewLink> addLinks;
  std::vector<std::pair<NameId, NameId>> removeLinks;  // (deviceA, deviceB)
  std::vector<NameId> removeDevices;

  bool empty() const {
    return addDevices.empty() && addLinks.empty() && removeLinks.empty() &&
           removeDevices.empty();
  }
  void applyTo(Topology& topology) const;
};

}  // namespace hoyan
