#include "rcl/global_rib.h"

#include <algorithm>
#include <map>
#include <string_view>

namespace hoyan::rcl {
namespace {

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
  row.communities = route.attrs.communities;
  row.asPath = route.attrs.asPath;
  row.routeType = route.type;
  row.protocol = route.protocol;
  row.origin = route.attrs.origin;
  return row;
}

// Devices sorted by interned name, VRFs by (rendered name, id): the global
// RIB's canonical iteration order.
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

// Communities joined by spaces in text order, the order rows have always
// printed them in ("100:10" before "100:2").
std::string joinedCommunities(const CommunitySet& communities) {
  std::vector<std::string> texts;
  texts.reserve(communities.size());
  for (const Community community : communities) texts.push_back(community.str());
  std::sort(texts.begin(), texts.end());
  std::string joined;
  for (const std::string& text : texts) {
    if (!joined.empty()) joined += ' ';
    joined += text;
  }
  return joined;
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
    case Field::kCommunities: return Scalar::str(joinedCommunities(communities));
    case Field::kAsPath: return Scalar::str(asPath.str());
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
    // Only a community's own text names it: "100:02" matches nothing.
    const std::string needle = value.render();
    const std::optional<Community> community = Community::parse(needle);
    return community && community->str() == needle && communities.contains(*community);
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
  if (!communities.empty()) out += " comm=[" + joinedCommunities(communities) + "]";
  const std::string& path = asPath.str();
  if (!path.empty()) out += " path=[" + path + "]";
  return out;
}

uint64_t RibRow::hash() const {
  uint64_t h = std::hash<std::string_view>{}(device);
  const auto mix = [&h](uint64_t value) {
    h = (h ^ value) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  };
  mix(std::hash<std::string_view>{}(vrf));
  mix(prefix.hashValue());
  mix(nexthop.hashValue());
  mix(static_cast<uint64_t>(localPref) << 32 | med);
  mix(static_cast<uint64_t>(weight) << 32 | igpCost);
  mix(static_cast<uint64_t>(routeType) << 8 | static_cast<uint64_t>(protocol));
  mix(communities.hashValue());
  mix(asPath.hashValue());
  return h;
}

GlobalRib GlobalRib::fromNetworkRibs(const NetworkRibs& ribs) {
  GlobalRib global;
  global.rows_.reserve(ribs.routeCount());
  // Deterministic row order: devices sorted by name, prefixes by map order.
  for (const auto& [deviceName, deviceId] : sortedDeviceNames(ribs)) {
    const DeviceRib& deviceRib = *ribs.findDevice(deviceId);
    for (const auto& [vrfName, vrfId] : sortedVrfNames(deviceRib)) {
      const VrfRib* vrfRib = deviceRib.findVrf(vrfId);
      for (const auto& [prefix, routes] : vrfRib->routes())
        for (const Route& route : routes)
          global.rows_.push_back(makeRibRow(deviceName, vrfName, prefix, route));
    }
  }
  global.finalize();
  return global;
}

void GlobalRib::clearIndex() {
  deviceRows_.reset();
  prefixRows_.reset();
  finalized_ = false;
}

namespace {

// The bucket of `key` in a lazily built row index keyed by `keyOf(row)`.
template <typename Key, typename KeyOf>
const std::vector<uint32_t>* bucketOf(
    std::optional<std::unordered_map<Key, std::vector<uint32_t>>>& index,
    const std::vector<RibRow>& rows, KeyOf keyOf, const Key& key) {
  static const std::vector<uint32_t> kEmpty;
  if (!index) {
    index.emplace();
    for (uint32_t i = 0; i < rows.size(); ++i) (*index)[keyOf(rows[i])].push_back(i);
  }
  const auto it = index->find(key);
  return it == index->end() ? &kEmpty : &it->second;
}

}  // namespace

const std::vector<uint32_t>* GlobalRib::deviceBucket(const std::string& device) const {
  if (!finalized_) return nullptr;
  return bucketOf(deviceRows_, rows_,
                  [](const RibRow& row) -> const std::string& { return row.device; },
                  device);
}

const std::vector<uint32_t>* GlobalRib::prefixBucket(const Prefix& prefix) const {
  if (!finalized_) return nullptr;
  return bucketOf(prefixRows_, rows_,
                  [](const RibRow& row) -> const Prefix& { return row.prefix; }, prefix);
}

bool ribViewsEqual(const RibView& a, const RibView& b) {
  if (a.size() != b.size()) return false;
  // Rows equal at the same position leave both multisets together. Tables
  // built from RIBs share one row order, so this usually leaves only the
  // changed rows between `first` and `last`.
  size_t first = 0, last = a.size();
  while (first < last && a.row(first) == b.row(first)) ++first;
  while (last > first && a.row(last - 1) == b.row(last - 1)) --last;
  // Sorted by row hash, equal multisets line up hash for hash; each run of
  // one hash is then matched row by row, so a collision costs time, never
  // correctness.
  using Key = std::pair<uint64_t, const RibRow*>;
  const auto sortedKeys = [first, last](const RibView& view) {
    std::vector<Key> keys;
    keys.reserve(last - first);
    for (size_t i = first; i < last; ++i)
      keys.emplace_back(view.row(i).hash(), &view.row(i));
    std::sort(keys.begin(), keys.end(),
              [](const Key& x, const Key& y) { return x.first < y.first; });
    return keys;
  };
  const std::vector<Key> keysA = sortedKeys(a);
  std::vector<Key> keysB = sortedKeys(b);
  for (size_t i = 0; i < keysA.size(); ++i)
    if (keysA[i].first != keysB[i].first) return false;
  for (size_t begin = 0; begin < keysA.size();) {
    size_t end = begin + 1;
    while (end < keysA.size() && keysA[end].first == keysA[begin].first) ++end;
    for (size_t i = begin; i < end; ++i) {
      size_t match = i;
      while (match < end && !(*keysB[match].second == *keysA[i].second)) ++match;
      if (match == end) return false;
      std::swap(keysB[i], keysB[match]);
    }
    begin = end;
  }
  return true;
}

}  // namespace hoyan::rcl
