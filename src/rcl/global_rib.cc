#include "rcl/global_rib.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace hoyan::rcl {
namespace {

// FNV-1a over a render string; only used to order/compare rows cheaply, with
// the render itself breaking ties, so collisions cost time, not correctness.
uint64_t renderHash(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : text) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  return h;
}

RibRow makeRibRow(const std::string& deviceName, const std::string& vrfName,
                  const Prefix& prefix, const Route& route) {
  RibRow row;
  row.device = deviceName;
  row.vrf = vrfName;
  row.prefix = prefix;
  row.nexthop = route.nexthop;
  row.localPref = route.attrs.localPref;
  row.med = route.attrs.med;
  row.weight = route.attrs.weight;
  row.igpCost = route.igpCost;
  for (const Community community : route.attrs.communities)
    row.communities.push_back(community.str());
  std::sort(row.communities.begin(), row.communities.end());
  row.asPath = route.attrs.asPath.str();
  row.routeType = route.type;
  row.protocol = route.protocol;
  row.origin = route.attrs.origin;
  return row;
}

// Devices sorted by interned name, VRFs by (rendered name, id) — the global
// RIB's canonical iteration order, shared by fromNetworkRibs,
// renderRibFragment, and assembleFromFragments.
std::vector<std::pair<std::string, NameId>> sortedDeviceNames(const NetworkRibs& ribs) {
  std::vector<std::pair<std::string, NameId>> names;
  for (const auto& [deviceId, deviceRib] : ribs.devices())
    names.emplace_back(Names::str(deviceId), deviceId);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::pair<std::string, NameId>> sortedVrfNames(const DeviceRib& deviceRib) {
  std::vector<std::pair<std::string, NameId>> names;
  for (const auto& [vrfId, vrfRib] : deviceRib.vrfs())
    names.emplace_back(vrfId == kInvalidName ? "global" : Names::str(vrfId), vrfId);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::optional<Field> fieldByName(const std::string& name) {
  static const std::map<std::string, Field> kFields = {
      {"device", Field::kDevice},         {"vrf", Field::kVrf},
      {"prefix", Field::kPrefix},         {"nexthop", Field::kNexthop},
      {"localPref", Field::kLocalPref},   {"med", Field::kMed},
      {"weight", Field::kWeight},         {"igpCost", Field::kIgpCost},
      {"communities", Field::kCommunities}, {"aspath", Field::kAsPath},
      {"routeType", Field::kRouteType},   {"protocol", Field::kProtocol},
      {"origin", Field::kOrigin},
  };
  const auto it = kFields.find(name);
  if (it == kFields.end()) return std::nullopt;
  return it->second;
}

std::string fieldName(Field field) {
  switch (field) {
    case Field::kDevice: return "device";
    case Field::kVrf: return "vrf";
    case Field::kPrefix: return "prefix";
    case Field::kNexthop: return "nexthop";
    case Field::kLocalPref: return "localPref";
    case Field::kMed: return "med";
    case Field::kWeight: return "weight";
    case Field::kIgpCost: return "igpCost";
    case Field::kCommunities: return "communities";
    case Field::kAsPath: return "aspath";
    case Field::kRouteType: return "routeType";
    case Field::kProtocol: return "protocol";
    case Field::kOrigin: return "origin";
  }
  return "?";
}

Scalar RibRow::fieldValue(Field field) const {
  switch (field) {
    case Field::kDevice: return Scalar::str(device);
    case Field::kVrf: return Scalar::str(vrf);
    case Field::kPrefix: return Scalar::str(prefix.str());
    case Field::kNexthop: return Scalar::str(nexthop.str());
    case Field::kLocalPref: return Scalar::num(localPref);
    case Field::kMed: return Scalar::num(med);
    case Field::kWeight: return Scalar::num(weight);
    case Field::kIgpCost: return Scalar::num(igpCost);
    case Field::kCommunities: {
      std::string joined;
      for (const std::string& community : communities) {
        if (!joined.empty()) joined += ' ';
        joined += community;
      }
      return Scalar::str(std::move(joined));
    }
    case Field::kAsPath: return Scalar::str(asPath);
    case Field::kRouteType: return Scalar::str(routeTypeName(routeType));
    case Field::kProtocol: return Scalar::str(protocolName(protocol));
    case Field::kOrigin:
      switch (origin) {
        case BgpOrigin::kIgp: return Scalar::str("igp");
        case BgpOrigin::kEgp: return Scalar::str("egp");
        case BgpOrigin::kIncomplete: return Scalar::str("incomplete");
      }
      return Scalar::str("?");
  }
  return Scalar::str("?");
}

bool RibRow::setFieldContains(Field field, const Scalar& value) const {
  if (field == Field::kCommunities) {
    const std::string needle = value.render();
    return std::find(communities.begin(), communities.end(), needle) !=
           communities.end();
  }
  // `contains` on a non-set field falls back to substring containment (used
  // for aspath).
  const Scalar actual = fieldValue(field);
  return actual.text.find(value.render()) != std::string::npos;
}

std::string RibRow::str() const {
  std::string out = device + "/" + vrf + " " + prefix.str() + " nh=" + nexthop.str() +
                    " lp=" + std::to_string(localPref) + " med=" + std::to_string(med) +
                    " w=" + std::to_string(weight) + " igp=" + std::to_string(igpCost) +
                    " type=" + routeTypeName(routeType) + " proto=" +
                    protocolName(protocol);
  if (!communities.empty()) {
    out += " comm=[";
    for (size_t i = 0; i < communities.size(); ++i) {
      if (i) out += ' ';
      out += communities[i];
    }
    out += ']';
  }
  if (!asPath.empty()) out += " path=[" + asPath + "]";
  return out;
}

GlobalRib GlobalRib::fromNetworkRibs(const NetworkRibs& ribs) {
  GlobalRib global;
  // Deterministic row order: devices sorted by name, prefixes by map order.
  for (const auto& [deviceName, deviceId] : sortedDeviceNames(ribs)) {
    const DeviceRib& deviceRib = *ribs.findDevice(deviceId);
    for (const auto& [vrfName, vrfId] : sortedVrfNames(deviceRib)) {
      const VrfRib* vrfRib = deviceRib.findVrf(vrfId);
      for (const auto& [prefix, routes] : vrfRib->routes())
        for (const Route& route : routes)
          global.add(makeRibRow(deviceName, vrfName, prefix, route));
    }
  }
  global.finalize();
  return global;
}

size_t RibFragment::approxBytes() const {
  size_t bytes = groups.size() * sizeof(Group);
  for (size_t i = 0; i < rows.size(); ++i)
    bytes += sizeof(RibRow) + sizeof(uint64_t) + renders[i].size() +
             rows[i].asPath.size() + rows[i].communities.size() * 12 + 32;
  return bytes;
}

RibFragment renderRibFragment(const NetworkRibs& ribs) {
  RibFragment fragment;
  for (const auto& [deviceName, deviceId] : sortedDeviceNames(ribs)) {
    const DeviceRib& deviceRib = *ribs.findDevice(deviceId);
    for (const auto& [vrfName, vrfId] : sortedVrfNames(deviceRib)) {
      const VrfRib* vrfRib = deviceRib.findVrf(vrfId);
      for (const auto& [prefix, routes] : vrfRib->routes()) {
        RibFragment::Group group;
        group.deviceId = deviceId;
        group.vrfId = vrfId;
        group.device = deviceName;
        group.vrf = vrfName;
        group.prefix = prefix;
        group.begin = static_cast<uint32_t>(fragment.rows.size());
        for (const Route& route : routes) {
          RibRow row = makeRibRow(deviceName, vrfName, prefix, route);
          fragment.renders.push_back(row.str());
          fragment.hashes.push_back(renderHash(fragment.renders.back()));
          fragment.rows.push_back(std::move(row));
        }
        group.count = static_cast<uint32_t>(fragment.rows.size()) - group.begin;
        fragment.groups.push_back(std::move(group));
      }
    }
  }
  return fragment;
}

GlobalRib GlobalRib::assembleFromFragments(std::span<const RibFragment* const> fragments,
                                           const NetworkRibs& merged,
                                           FragmentAssemblyStats* stats) {
  struct Ref {
    const RibFragment* fragment;
    const RibFragment::Group* group;
  };
  std::vector<Ref> refs;
  for (const RibFragment* fragment : fragments)
    for (const RibFragment::Group& group : fragment->groups)
      refs.push_back(Ref{fragment, &group});
  const auto key = [](const Ref& ref) {
    return std::tie(ref.group->device, ref.group->vrf, ref.group->vrfId,
                    ref.group->prefix);
  };
  std::sort(refs.begin(), refs.end(),
            [&](const Ref& a, const Ref& b) { return key(a) < key(b); });

  GlobalRib out;
  size_t upperBound = 0;
  for (const RibFragment* fragment : fragments) upperBound += fragment->rows.size();
  out.rows_.reserve(upperBound);
  out.renders_.reserve(upperBound);
  out.hashes_.reserve(upperBound);
  for (size_t i = 0; i < refs.size();) {
    size_t j = i + 1;
    while (j < refs.size() && key(refs[i]) == key(refs[j])) ++j;
    const RibFragment::Group& group = *refs[i].group;
    if (j == i + 1) {
      // Exclusive group: the merged table's route list for it is exactly this
      // blob's list (after the same dedupe + re-selection the fragment was
      // normalised with), so the pre-rendered rows are byte-identical.
      const RibFragment& fragment = *refs[i].fragment;
      for (uint32_t r = group.begin; r < group.begin + group.count; ++r) {
        out.rows_.push_back(fragment.rows[r]);
        out.renders_.push_back(fragment.renders[r]);
        out.hashes_.push_back(fragment.hashes[r]);
      }
      if (stats) stats->rowsReused += group.count;
    } else {
      // Shared group: its final list depends on the cross-subtask merge
      // (dedupe keeps the first occurrence; selection re-ranks the union), so
      // render fresh from the merged table.
      const DeviceRib* deviceRib = merged.findDevice(group.deviceId);
      const VrfRib* vrfRib = deviceRib ? deviceRib->findVrf(group.vrfId) : nullptr;
      const std::vector<Route>* routes = vrfRib ? vrfRib->find(group.prefix) : nullptr;
      if (routes) {
        for (const Route& route : *routes) {
          RibRow row = makeRibRow(group.device, group.vrf, group.prefix, route);
          out.renders_.push_back(row.str());
          out.hashes_.push_back(renderHash(out.renders_.back()));
          out.rows_.push_back(std::move(row));
        }
        if (stats) stats->rowsRendered += routes->size();
      }
      if (stats) ++stats->sharedGroups;
    }
    i = j;
  }
  out.finalize();
  return out;
}

void GlobalRib::clearIndex() {
  renders_.clear();
  hashes_.clear();
  renderOrder_.clear();
  deviceRows_.clear();
  prefixRows_.clear();
  bucketsBuilt_ = false;
  finalized_ = false;
}

void GlobalRib::finalize() {
  if (finalized_) return;
  if (renders_.size() != rows_.size()) {
    // assembleFromFragments arrives with renders already populated; every
    // other path renders here, once, instead of per intent check.
    renders_.clear();
    renders_.reserve(rows_.size());
    for (const RibRow& row : rows_) renders_.push_back(row.str());
  }
  if (hashes_.size() != rows_.size()) {
    // Fragment-assembled tables carry their hashes in; hash the rest here.
    hashes_.resize(rows_.size());
    for (size_t i = 0; i < renders_.size(); ++i) hashes_[i] = renderHash(renders_[i]);
  }
  renderOrder_.resize(rows_.size());
  for (uint32_t i = 0; i < rows_.size(); ++i) renderOrder_[i] = i;
  std::sort(renderOrder_.begin(), renderOrder_.end(), [&](uint32_t a, uint32_t b) {
    if (hashes_[a] != hashes_[b]) return hashes_[a] < hashes_[b];
    return renders_[a] < renders_[b];
  });
  finalized_ = true;
}

void GlobalRib::buildBuckets() const {
  for (uint32_t i = 0; i < rows_.size(); ++i) {
    deviceRows_[rows_[i].device].push_back(i);
    prefixRows_[rows_[i].prefix.str()].push_back(i);
  }
  bucketsBuilt_ = true;
}

const std::vector<uint32_t>* GlobalRib::fieldBucket(Field field,
                                                    const std::string& value) const {
  static const std::vector<uint32_t> kEmpty;
  if (!finalized_) return nullptr;
  if (field != Field::kDevice && field != Field::kPrefix) return nullptr;
  if (!bucketsBuilt_) buildBuckets();
  const auto& index = field == Field::kDevice ? deviceRows_ : prefixRows_;
  const auto it = index.find(value);
  return it == index.end() ? &kEmpty : &it->second;
}

namespace {

// Linear-time multiset comparison for views over finalized tables: walk both
// ribs' canonical (hash, render) orders, skipping rows outside the view.
// Handles duplicate indices (same-rib concatenations) via per-row counts.
bool viewsEqualByRenderOrder(const RibView& a, const RibView& b) {
  std::vector<uint32_t> countA(a.rib->size(), 0), countB(b.rib->size(), 0);
  for (const uint32_t index : a.rows) ++countA[index];
  for (const uint32_t index : b.rows) ++countB[index];
  const std::vector<uint32_t>& orderA = a.rib->renderOrder();
  const std::vector<uint32_t>& orderB = b.rib->renderOrder();
  size_t ia = 0, ib = 0;
  while (true) {
    while (ia < orderA.size() && countA[orderA[ia]] == 0) ++ia;
    while (ib < orderB.size() && countB[orderB[ib]] == 0) ++ib;
    if (ia == orderA.size()) return ib == orderB.size();
    if (ib == orderB.size()) return false;
    const uint32_t rowA = orderA[ia];
    const uint32_t rowB = orderB[ib];
    if (a.rib->rowHash(rowA) != b.rib->rowHash(rowB)) return false;
    if ((a.rib != b.rib || rowA != rowB) &&
        a.rib->renderedRow(rowA) != b.rib->renderedRow(rowB))
      return false;
    --countA[rowA];
    --countB[rowB];
  }
}

// Small views over finalized tables: sort (hash, render pointer) keys — no
// string copies, string compares only on hash ties.
bool viewsEqualBySortedKeys(const RibView& a, const RibView& b) {
  using Key = std::pair<uint64_t, const std::string*>;
  const auto collect = [](const RibView& view) {
    std::vector<Key> keys;
    keys.reserve(view.rows.size());
    for (const uint32_t index : view.rows)
      keys.emplace_back(view.rib->rowHash(index), &view.rib->renderedRow(index));
    std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
      if (x.first != y.first) return x.first < y.first;
      return *x.second < *y.second;
    });
    return keys;
  };
  const std::vector<Key> keysA = collect(a);
  const std::vector<Key> keysB = collect(b);
  for (size_t i = 0; i < keysA.size(); ++i) {
    if (keysA[i].first != keysB[i].first) return false;
    if (keysA[i].second != keysB[i].second && *keysA[i].second != *keysB[i].second)
      return false;
  }
  return true;
}

}  // namespace

bool ribViewsEqual(const RibView& a, const RibView& b) {
  if (a.size() != b.size()) return false;
  if (a.rib && b.rib && a.rib->finalized() && b.rib->finalized()) {
    // The per-row-count walk beats sorting once the views cover a meaningful
    // share of their tables; tiny views (forall groups) stick to the sort so
    // the O(table) count arrays are not rebuilt per group.
    if (4 * (a.size() + b.size()) >= a.rib->size() + b.rib->size())
      return viewsEqualByRenderOrder(a, b);
    return viewsEqualBySortedKeys(a, b);
  }
  // Fallback (scratch concat tables): materialise and sort render keys.
  std::vector<std::string> keysA, keysB;
  keysA.reserve(a.size());
  keysB.reserve(b.size());
  for (size_t i = 0; i < a.size(); ++i) keysA.push_back(a.row(i).str());
  for (size_t i = 0; i < b.size(); ++i) keysB.push_back(b.row(i).str());
  std::sort(keysA.begin(), keysA.end());
  std::sort(keysB.begin(), keysB.end());
  return keysA == keysB;
}

}  // namespace hoyan::rcl
