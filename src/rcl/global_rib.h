// The global RIB abstraction (§4.1): all routes from all routers collected
// into one table, with `device` and `vrf` columns locating each route.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/route.h"
#include "rcl/value.h"

namespace hoyan::rcl {

// The fields RCL specifications can reference.
enum class Field : uint8_t {
  kDevice,
  kVrf,
  kPrefix,
  kNexthop,
  kLocalPref,
  kMed,
  kWeight,
  kIgpCost,
  kCommunities,  // Set-valued.
  kAsPath,       // String-valued ("100 200 {300}").
  kRouteType,    // BEST / ECMP / ALT.
  kProtocol,     // direct / static / isis / bgp / aggregate.
  kOrigin,       // igp / egp / incomplete.
};

std::optional<Field> fieldByName(const std::string& name);
std::string fieldName(Field field);

// One row of the global RIB: the route's values, rendered to text (str,
// fieldValue) only on demand. Two rows are equal exactly when their str()
// renders are: operator== compares every field str() prints and ignores
// `origin`, which it does not print, and hash() is consistent with it.
struct RibRow {
  std::string device;
  std::string vrf;  // "global" for the default VRF.
  Prefix prefix;
  IpAddress nexthop;
  uint32_t localPref = 100;
  uint32_t med = 0;
  uint32_t weight = 0;
  uint32_t igpCost = 0;
  CommunitySet communities;  // Rendered in text order ("100:10" before "100:2").
  AsPath asPath;
  RouteType routeType = RouteType::kBest;
  Protocol protocol = Protocol::kBgp;
  BgpOrigin origin = BgpOrigin::kIncomplete;

  // Scalar value of a field (communities render as their joined string when
  // accessed as a scalar; `contains` uses setFieldContains instead).
  Scalar fieldValue(Field field) const;
  bool setFieldContains(Field field, const Scalar& value) const;
  std::string str() const;
  uint64_t hash() const;

  // AsPath's mutators keep at most one AS_SEQUENCE, at the front, so equal
  // segments and equal renders coincide.
  friend bool operator==(const RibRow& a, const RibRow& b) {
    return a.device == b.device && a.vrf == b.vrf && a.prefix == b.prefix &&
           a.nexthop == b.nexthop && a.localPref == b.localPref && a.med == b.med &&
           a.weight == b.weight && a.igpCost == b.igpCost &&
           a.routeType == b.routeType && a.protocol == b.protocol &&
           a.communities == b.communities && a.asPath == b.asPath;
  }
};

class GlobalRib {
 public:
  GlobalRib() = default;
  static GlobalRib fromNetworkRibs(const NetworkRibs& ribs);

  void add(RibRow row) {
    if (finalized_) clearIndex();
    rows_.push_back(std::move(row));
  }
  const std::vector<RibRow>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  // Marks the table complete, so it may serve prefilter buckets; `add` drops
  // them again. fromNetworkRibs returns finalized tables.
  void finalize() { finalized_ = true; }
  bool finalized() const { return finalized_; }

  // Prefilter buckets: the indices of the rows on `device`, or for `prefix`,
  // in row order. Null when the table is not finalized, else a bucket that is
  // empty when no row matches. Each field's index is built from the row
  // values on its first lookup, and only that field's: nothing is rendered,
  // and a table whose guards never name a field never indexes it. The build
  // writes the table, so a table is checked by one thread at a time; a sweep
  // job checks a table of its own.
  const std::vector<uint32_t>* deviceBucket(const std::string& device) const;
  const std::vector<uint32_t>* prefixBucket(const Prefix& prefix) const;

 private:
  void clearIndex();

  std::vector<RibRow> rows_;
  // Empty until the first lookup of their field.
  mutable std::optional<std::unordered_map<std::string, std::vector<uint32_t>>>
      deviceRows_;
  mutable std::optional<std::unordered_map<Prefix, std::vector<uint32_t>>> prefixRows_;
  bool finalized_ = false;
};

// A filtered view over a GlobalRib: row indices, no copies (Algorithm 1's
// filter returns these).
struct RibView {
  const GlobalRib* rib = nullptr;
  std::vector<uint32_t> rows;

  static RibView all(const GlobalRib& rib) {
    RibView view;
    view.rib = &rib;
    view.rows.resize(rib.size());
    for (uint32_t i = 0; i < rib.size(); ++i) view.rows[i] = i;
    return view;
  }
  const RibRow& row(size_t i) const { return rib->rows()[rows[i]]; }
  size_t size() const { return rows.size(); }
};

// Multiset equality of two views (RIBEQ in Algorithm 1).
bool ribViewsEqual(const RibView& a, const RibView& b);

}  // namespace hoyan::rcl
