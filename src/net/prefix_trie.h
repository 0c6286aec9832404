// Binary (path-uncompressed) prefix trie keyed on prefix bits.
//
// Used for longest-prefix-match forwarding lookups during traffic simulation
// and for computing flow equivalence classes (all destinations that fall into
// the same most-specific trie cell across all RIBs share a forwarding path,
// §3.1). Separate tries are kept per address family by the caller; a single
// trie instance only holds prefixes of one family.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ip.h"

namespace hoyan {

template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.emplace_back(); }

  // Inserts (or overwrites) the value stored at `prefix`.
  // Returns a reference to the stored value.
  T& insert(const Prefix& prefix, T value) {
    const uint32_t node = findOrCreate(prefix);
    nodes_[node].value = std::move(value);
    return *nodes_[node].value;
  }

  // Returns the value stored at exactly `prefix`, if any.
  const T* exactMatch(const Prefix& prefix) const {
    uint32_t node = 0;
    for (unsigned i = 0; i < prefix.length(); ++i) {
      const uint32_t child = nodes_[node].children[prefix.address().bit(i)];
      if (child == kNone) return nullptr;
      node = child;
    }
    return nodes_[node].value ? &*nodes_[node].value : nullptr;
  }
  T* exactMatch(const Prefix& prefix) {
    return const_cast<T*>(static_cast<const PrefixTrie*>(this)->exactMatch(prefix));
  }

  // Mutable access, default-constructing the value if absent.
  T& operator[](const Prefix& prefix) {
    const uint32_t node = findOrCreate(prefix);
    if (!nodes_[node].value) nodes_[node].value.emplace();
    return *nodes_[node].value;
  }

  struct Match {
    Prefix prefix;
    const T* value = nullptr;
  };

  // Longest-prefix match: the most specific stored prefix containing `addr`.
  std::optional<Match> longestMatch(const IpAddress& addr) const {
    std::optional<Match> best;
    uint32_t node = 0;
    unsigned depth = 0;
    while (true) {
      if (nodes_[node].value)
        best = Match{Prefix(addr, static_cast<uint8_t>(depth)), &*nodes_[node].value};
      if (depth >= addr.width()) break;
      const uint32_t child = nodes_[node].children[addr.bit(depth)];
      if (child == kNone) break;
      node = child;
      ++depth;
    }
    return best;
  }

  // Visits every (prefix, value) pair in depth-first order. The visitor
  // receives (const Prefix&, const T&). Prefixes are reconstructed for the
  // given family; only call with the family this trie holds.
  template <typename Visitor>
  void visit(IpFamily family, Visitor&& visitor) const {
    std::vector<bool> bits;
    visitNode(0, family, bits, visitor);
  }

  size_t size() const { return valueCount_; }
  bool empty() const { return valueCount_ == 0; }
  // Estimated heap footprint of the node array (values counted by sizeof; T
  // with external allocations undercounts — fine for accounting purposes).
  size_t approxBytes() const { return nodes_.capacity() * sizeof(Node); }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  struct Node {
    uint32_t children[2] = {kNone, kNone};
    std::optional<T> value;
  };

  uint32_t findOrCreate(const Prefix& prefix) {
    uint32_t node = 0;
    for (unsigned i = 0; i < prefix.length(); ++i) {
      const bool bit = prefix.address().bit(i);
      uint32_t child = nodes_[node].children[bit];
      if (child == kNone) {
        child = static_cast<uint32_t>(nodes_.size());
        nodes_[node].children[bit] = child;
        nodes_.emplace_back();
      }
      node = child;
    }
    if (!nodes_[node].value) ++valueCount_;
    return node;
  }

  template <typename Visitor>
  void visitNode(uint32_t node, IpFamily family, std::vector<bool>& bits,
                 Visitor& visitor) const {
    if (nodes_[node].value) {
      U128 raw{};
      for (size_t i = 0; i < bits.size(); ++i)
        if (bits[i]) raw = raw | U128{0, 1}.shiftLeft((family == IpFamily::kV4 ? 32u : 128u) - 1 - static_cast<unsigned>(i));
      visitor(Prefix(IpAddress(family, raw), static_cast<uint8_t>(bits.size())),
              *nodes_[node].value);
    }
    for (const bool bit : {false, true}) {
      const uint32_t child = nodes_[node].children[bit];
      if (child == kNone) continue;
      bits.push_back(bit);
      visitNode(child, family, bits, visitor);
      bits.pop_back();
    }
  }

  std::vector<Node> nodes_;
  size_t valueCount_ = 0;
};

}  // namespace hoyan
