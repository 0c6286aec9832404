// The global RIB abstraction (§4.1): all routes from all routers collected
// into one table, with `device` and `vrf` columns locating each route.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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

// One row of the global RIB.
struct RibRow {
  std::string device;
  std::string vrf;  // "global" for the default VRF.
  Prefix prefix;
  IpAddress nexthop;
  uint32_t localPref = 100;
  uint32_t med = 0;
  uint32_t weight = 0;
  uint32_t igpCost = 0;
  std::vector<std::string> communities;  // Canonical "asn:val", sorted.
  std::string asPath;
  RouteType routeType = RouteType::kBest;
  Protocol protocol = Protocol::kBgp;
  BgpOrigin origin = BgpOrigin::kIncomplete;

  // Scalar value of a field (communities render as their joined string when
  // accessed as a scalar; `contains` uses communityContains instead).
  Scalar fieldValue(Field field) const;
  bool setFieldContains(Field field, const Scalar& value) const;
  std::string str() const;
};

// The rendered slice of one route subtask's result: the rows its
// `NetworkRibs` blob contributes to the global RIB, grouped by
// (device, vrf, prefix) and rendered exactly as `fromNetworkRibs` would emit
// them after the master's dedupe + re-selection. Fragments are cached in the
// cross-run ObjectStore under `cas/g/<key>` (src/incr/engine.cc); a group
// owned by a single subtask is copied verbatim at assembly time, so warm runs
// skip re-rendering unchanged rows.
struct RibFragment {
  struct Group {
    NameId deviceId = kInvalidName;
    NameId vrfId = kInvalidName;
    std::string device;
    std::string vrf;  // "global" for the default VRF.
    Prefix prefix;
    uint32_t begin = 0;  // Row span [begin, begin + count) in rows/renders.
    uint32_t count = 0;
  };
  // Sorted by (device, vrf, vrfId, prefix) — the exact fromNetworkRibs
  // iteration order (vrfId breaks the tie with a VRF literally named
  // "global"; device names are interned, so they never collide).
  std::vector<Group> groups;
  std::vector<RibRow> rows;
  std::vector<std::string> renders;  // rows[i].str(), cached.
  std::vector<uint64_t> hashes;      // FNV-1a of renders[i], cached so
                                     // assembly-time finalize skips the pass.

  size_t approxBytes() const;
};

// Renders every (device, vrf, prefix) group of `ribs` into a fragment. The
// caller must normalise `ribs` first (dedupeRoutes + reselectAll on a copy of
// the subtask blob) so a group's rows match what the master's merge produces
// when no other subtask contributes to it.
RibFragment renderRibFragment(const NetworkRibs& ribs);

struct FragmentAssemblyStats {
  size_t rowsReused = 0;    // Copied from fragments, render skipped.
  size_t rowsRendered = 0;  // Groups shared across fragments, rendered fresh.
  size_t sharedGroups = 0;
};

class GlobalRib {
 public:
  GlobalRib() = default;
  static GlobalRib fromNetworkRibs(const NetworkRibs& ribs);

  // Assembles the table `fromNetworkRibs(merged)` would produce from the
  // per-subtask fragments, copying rows (and their cached renders) for every
  // group that exactly one fragment contributes, and rendering fresh from
  // `merged` for groups shared across fragments (BGP aggregates originated in
  // several subtasks, prefixes overlapping the local-routes blob) — those are
  // the groups whose final route list depends on the cross-subtask merge.
  // Byte-identical to fromNetworkRibs(merged) when the fragments cover
  // exactly the blobs merged into it. The result is finalized.
  static GlobalRib assembleFromFragments(std::span<const RibFragment* const> fragments,
                                         const NetworkRibs& merged,
                                         FragmentAssemblyStats* stats = nullptr);

  void add(RibRow row) {
    if (finalized_) clearIndex();
    rows_.push_back(std::move(row));
  }
  const std::vector<RibRow>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  // Caches every row's render (and a hash + canonical order over them) and
  // builds the device/prefix prefilter buckets. Idempotent; `add` drops the
  // index. fromNetworkRibs/assembleFromFragments return finalized tables, so
  // verification never re-renders a row per intent.
  void finalize();
  bool finalized() const { return finalized_; }

  const std::string& renderedRow(uint32_t index) const { return renders_[index]; }
  uint64_t rowHash(uint32_t index) const { return hashes_[index]; }
  // Row indices sorted by (hash, render): a canonical order for linear-time
  // multiset comparison in ribViewsEqual.
  const std::vector<uint32_t>& renderOrder() const { return renderOrder_; }

  // Prefilter bucket: indices of the rows whose `field` renders exactly as
  // `value`, in row order. Only kDevice and kPrefix are indexed. Returns null
  // when the table is not finalized or the field is not indexed; a pointer to
  // an empty vector when indexed but unpopulated (no matching row). The
  // buckets are built lazily on first use (intent checking is
  // single-threaded), so workloads whose guards are never indexable skip the
  // build entirely.
  const std::vector<uint32_t>* fieldBucket(Field field, const std::string& value) const;

 private:
  void clearIndex();
  void buildBuckets() const;

  std::vector<RibRow> rows_;
  std::vector<std::string> renders_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> renderOrder_;
  mutable std::unordered_map<std::string, std::vector<uint32_t>> deviceRows_;
  mutable std::unordered_map<std::string, std::vector<uint32_t>> prefixRows_;
  mutable bool bucketsBuilt_ = false;
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
