#include "topo/topology.h"

#include <algorithm>
#include <stdexcept>

namespace hoyan {

std::string Link::str() const {
  return Names::str(deviceA) + ":" + Names::str(interfaceA) + " <-> " + Names::str(deviceB) +
         ":" + Names::str(interfaceB) + (up ? "" : " (down)");
}

Topology::Topology()
    : devices_(std::make_shared<std::map<NameId, Device>>()),
      links_(std::make_shared<std::vector<Link>>()) {}

std::map<NameId, Device>& Topology::mutableDevices() {
  if (devices_.use_count() != 1)
    devices_ = std::make_shared<std::map<NameId, Device>>(*devices_);
  return *devices_;
}

std::vector<Link>& Topology::mutableLinksImpl() {
  if (links_.use_count() != 1)
    links_ = std::make_shared<std::vector<Link>>(*links_);
  return *links_;
}

bool Topology::linkMasked(size_t index) const {
  return std::find(overlayDownLinks_.begin(), overlayDownLinks_.end(), index) !=
         overlayDownLinks_.end();
}

void Topology::maskLinkDown(size_t index) {
  if (!linkMasked(index)) overlayDownLinks_.push_back(index);
}

void Topology::unmaskLink(size_t index) {
  const auto it =
      std::find(overlayDownLinks_.begin(), overlayDownLinks_.end(), index);
  if (it != overlayDownLinks_.end()) overlayDownLinks_.erase(it);
}

Device& Topology::addDevice(Device device) {
  const NameId name = device.name;
  return mutableDevices().insert_or_assign(name, std::move(device)).first->second;
}

size_t Topology::addLink(NameId deviceA, NameId interfaceA, NameId deviceB,
                         NameId interfaceB) {
  if (!devices_->contains(deviceA) || !devices_->contains(deviceB))
    throw std::invalid_argument("addLink: unknown device");
  std::vector<Link>& links = mutableLinksImpl();
  links.push_back(Link{deviceA, interfaceA, deviceB, interfaceB, /*up=*/true});
  return links.size() - 1;
}

namespace {

// The adjacency of `link` (index `index`) seen from its A or B end.
Adjacency endOf(const Link& link, size_t index, bool fromA) {
  return fromA ? Adjacency{link.interfaceA, link.deviceB, link.interfaceB, index}
               : Adjacency{link.interfaceB, link.deviceA, link.interfaceA, index};
}

}  // namespace

bool Topology::linkActive(size_t index) const {
  if (!linkUp(index)) return false;
  const Link& link = (*links_)[index];
  const auto endUp = [this](NameId device, NameId ifName) {
    if (!deviceActive(device)) return false;
    const Interface* itf = findDevice(device)->findInterface(ifName);
    return itf && !itf->shutdown;
  };
  return endUp(link.deviceA, link.interfaceA) && endUp(link.deviceB, link.interfaceB);
}

std::vector<Adjacency> Topology::adjacenciesOf(NameId device) const {
  std::vector<Adjacency> out;
  const std::vector<Link>& links = *links_;
  for (size_t i = 0; i < links.size(); ++i)
    if (links[i].connects(device) && linkActive(i))
      out.push_back(endOf(links[i], i, links[i].deviceA == device));
  return out;
}

double Topology::capacityBps(NameId from, NameId to) const {
  double total = 0;
  bool anyActive = false;
  for (size_t i = 0; i < links_->size(); ++i) {
    const Link& link = (*links_)[i];
    const bool fromA = link.deviceA == from && link.deviceB == to;
    if ((fromA || (link.deviceA == to && link.deviceB == from)) && linkActive(i)) {
      anyActive = true;
      total += findDevice(from)->findInterface(fromA ? link.interfaceA : link.interfaceB)
                   ->bandwidthBps;
    }
  }
  return anyActive ? total : 100e9;
}

AdjacencyTable::AdjacencyTable(const Topology& topology) {
  // (device, adjacency) per active link end; a self-loop link has one end.
  std::vector<std::pair<NameId, Adjacency>> ends;
  const std::vector<Link>& links = topology.links();
  for (size_t i = 0; i < links.size(); ++i) {
    if (!topology.linkActive(i)) continue;
    const Link& link = links[i];
    ends.emplace_back(link.deviceA, endOf(link, i, true));
    if (link.deviceB != link.deviceA) ends.emplace_back(link.deviceB, endOf(link, i, false));
  }
  // (device, link index) is unique per end, so this order is total.
  std::sort(ends.begin(), ends.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second.linkIndex < b.second.linkIndex;
  });
  adjacencies_.reserve(ends.size());
  for (const auto& [device, adjacency] : ends) {
    if (devices_.empty() || devices_.back() != device) {
      devices_.push_back(device);
      offsets_.push_back(static_cast<uint32_t>(adjacencies_.size()));
    }
    adjacencies_.push_back(adjacency);
  }
  offsets_.push_back(static_cast<uint32_t>(adjacencies_.size()));
}

std::span<const Adjacency> AdjacencyTable::of(NameId device) const {
  const auto it = std::lower_bound(devices_.begin(), devices_.end(), device);
  if (it == devices_.end() || *it != device) return {};
  const size_t slot = static_cast<size_t>(it - devices_.begin());
  return std::span<const Adjacency>(adjacencies_).subspan(
      offsets_[slot], offsets_[slot + 1] - offsets_[slot]);
}

size_t AdjacencyTable::approxBytes() const {
  return sizeof(AdjacencyTable) + devices_.capacity() * sizeof(NameId) +
         offsets_.capacity() * sizeof(uint32_t) + adjacencies_.capacity() * sizeof(Adjacency);
}

std::optional<Adjacency> Topology::resolveNexthop(NameId from,
                                                  const IpAddress& nexthop) const {
  for (const Adjacency& adj : adjacenciesOf(from)) {
    const Device* peer = findDevice(adj.neighbor);
    if (!peer) continue;
    const Interface* peerItf = peer->findInterface(adj.neighborInterface);
    if (peerItf && (peerItf->address == nexthop || peerItf->subnet().contains(nexthop)))
      return adj;
    if (peer->loopback == nexthop) return adj;
  }
  return std::nullopt;
}

std::optional<NameId> Topology::deviceByLoopback(const IpAddress& addr) const {
  for (const auto& [name, device] : *devices_)
    if (device.loopback == addr) return name;
  return std::nullopt;
}

void Topology::setLinkState(NameId deviceA, NameId deviceB, bool up) {
  for (Link& link : mutableLinksImpl())
    if ((link.deviceA == deviceA && link.deviceB == deviceB) ||
        (link.deviceA == deviceB && link.deviceB == deviceA))
      link.up = up;
}

bool Topology::removeLink(NameId deviceA, NameId deviceB) {
  bool removed = false;
  std::vector<Link>& links = mutableLinksImpl();
  for (auto it = links.begin(); it != links.end();) {
    if ((it->deviceA == deviceA && it->deviceB == deviceB) ||
        (it->deviceA == deviceB && it->deviceB == deviceA)) {
      it = links.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  // Removing links renumbers indices: an overlay mask would dangle.
  overlayDownLinks_.clear();
  return removed;
}

void Topology::removeDevice(NameId device) {
  mutableDevices().erase(device);
  std::vector<Link>& links = mutableLinksImpl();
  for (auto it = links.begin(); it != links.end();)
    it = it->connects(device) ? links.erase(it) : ++it;
  overlayDownLinks_.clear();
}

size_t Topology::approxBytes() const {
  size_t bytes = sizeof(Topology);
  for (const auto& [name, device] : *devices_) {
    (void)name;
    bytes += sizeof(NameId) + sizeof(Device) +
             device.interfaces.capacity() * sizeof(Interface) + 48;  // Map node.
  }
  bytes += links_->capacity() * sizeof(Link);
  return bytes;
}

size_t Topology::materializedBytes(const Topology& base) const {
  size_t bytes = overlayDownLinks_.capacity() * sizeof(size_t) +
                 failedDevices_.size() * (sizeof(NameId) + sizeof(bool) + 16);
  if (devices_ != base.devices_)
    for (const auto& [name, device] : *devices_) {
      (void)name;
      bytes += sizeof(NameId) + sizeof(Device) +
               device.interfaces.capacity() * sizeof(Interface) + 48;
    }
  if (links_ != base.links_) bytes += links_->capacity() * sizeof(Link);
  return bytes;
}

void FailureOverlay::apply(Topology& topology) {
  if (applied_) throw std::logic_error("FailureOverlay::apply: already applied");
  const std::vector<Link>& links = topology.links();
  for (const auto& [a, b] : links_) {
    for (size_t i = 0; i < links.size(); ++i) {
      const Link& link = links[i];
      if (!topology.linkUp(i)) continue;  // Already down: not ours to restore.
      if ((link.deviceA == a && link.deviceB == b) ||
          (link.deviceA == b && link.deviceB == a)) {
        topology.maskLinkDown(i);
        downedLinks_.push_back(i);
      }
    }
  }
  for (const NameId device : devices_) {
    // Only devices this overlay transitions to failed are recorded: a device
    // failed before apply (or absent entirely) stays as-is on revert.
    if (!topology.devices().contains(device) || !topology.deviceActive(device)) continue;
    topology.failDevice(device);
    failedDevices_.push_back(device);
  }
  applied_ = true;
}

void FailureOverlay::revert(Topology& topology) {
  if (!applied_) return;
  for (const size_t index : downedLinks_) topology.unmaskLink(index);
  for (const NameId device : failedDevices_) topology.restoreDevice(device);
  downedLinks_.clear();
  failedDevices_.clear();
  applied_ = false;
}

void TopologyChange::applyTo(Topology& topology) const {
  for (const Device& device : addDevices) topology.addDevice(device);
  for (const NewLink& link : addLinks)
    topology.addLink(link.deviceA, link.interfaceA, link.deviceB, link.interfaceB);
  for (const auto& [a, b] : removeLinks) topology.removeLink(a, b);
  for (const NameId device : removeDevices) topology.removeDevice(device);
}

}  // namespace hoyan
