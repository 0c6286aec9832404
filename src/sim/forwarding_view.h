// What traffic simulation forwards over: one RIB set, or a subtask's own RIBs
// layered over a RIB set shared by reference.
//
// The distributed traffic phase (dist/dist_sim.h) builds the local-routes
// file's forwarding state once, when its subtask uploads it, and every
// traffic subtask forwards over that shared layer plus its own layer of the
// other route files it loaded. The layer rule:
//
//   - A lookup takes the longer of the two layers' longest-prefix matches;
//     the own layer wins a tie, because it holds the combined cell of a
//     prefix both layers have.
//   - A flow-EC atom (flow_ec.h) is the longer of the two layers' prefix-union
//     matches.
//
// Both layers are deduped and re-selected, the own layer after the shared
// routes of every cell both hold were folded in last (foldSharedRoutes).
// Then every lookup and every atom is what one merged RIB of both layers
// gives: re-selection leaves every non-empty cell a best route, so a layer's
// forwarding prefixes are its non-empty cells; a cell only the shared layer
// holds went through the same steps from the same routes as in the merged
// RIB; and a cell both hold is, in the own layer, the merged cell, which
// wins the tie. A plain NetworkRibs converts to the one-layer view.
#pragma once

#include <optional>
#include <vector>

#include "net/prefix_trie.h"
#include "net/route.h"

namespace hoyan {

// The prefixes flow ECs split the address space on: every prefix that has
// routes in a RIB set, on any device or VRF, per family. An address's atom
// is the most specific union prefix covering it.
class PrefixUnion {
 public:
  PrefixUnion() = default;
  explicit PrefixUnion(const NetworkRibs& ribs);

  // The most specific union prefix covering `dst`, if any.
  std::optional<Prefix> longestMatch(const IpAddress& dst) const;
  size_t approxBytes() const { return v4_.approxBytes() + v6_.approxBytes(); }

 private:
  // The stored value is unused; presence partitions the space.
  PrefixTrie<char> v4_;
  PrefixTrie<char> v6_;
};

class ForwardingView {
 public:
  // The one-layer view of a RIB set whose forwarding index is built.
  // Implicit, so every single-RIB caller passes its NetworkRibs unchanged.
  ForwardingView(const NetworkRibs& ribs) : own_(&ribs) {}
  // `own` over `shared`, both indexed; `sharedPrefixes` is the prefix union
  // of `shared`. The view holds references: all three must outlive it.
  ForwardingView(const NetworkRibs& own, const NetworkRibs& shared,
                 const PrefixUnion& sharedPrefixes)
      : own_(&own), shared_(&shared), sharedPrefixes_(&sharedPrefixes) {}

  // The forwarding routes (best-first) of the longest match for `dst` on
  // `device`'s `vrf`, by the layer rule; null when neither layer matches.
  const std::vector<Route>* longestMatch(NameId device, NameId vrf,
                                         const IpAddress& dst) const;

  // The flow-EC atom of `dst`, by the layer rule; `ownPrefixes` is the
  // prefix union of own(), which the caller builds per call.
  std::optional<Prefix> atom(const PrefixUnion& ownPrefixes, const IpAddress& dst) const;

  const NetworkRibs& own() const { return *own_; }

 private:
  const NetworkRibs* own_;
  const NetworkRibs* shared_ = nullptr;
  const PrefixUnion* sharedPrefixes_ = nullptr;
};

// Folds the shared layer's routes into an own layer being built: every cell
// both hold gets the shared routes appended last, the file order of one
// merged RIB of both. Call before deduping, re-selecting and indexing `own`.
// Returns the routes appended.
size_t foldSharedRoutes(NetworkRibs& own, const NetworkRibs& shared);

}  // namespace hoyan
