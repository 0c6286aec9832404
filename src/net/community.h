// BGP community values ("asn:value" pairs packed into 32 bits).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hoyan {

class Community {
 public:
  constexpr Community() = default;
  constexpr Community(uint16_t asn, uint16_t value)
      : raw_(static_cast<uint32_t>(asn) << 16 | value) {}
  constexpr explicit Community(uint32_t raw) : raw_(raw) {}

  // Parses "asn:value".
  static std::optional<Community> parse(std::string_view text);

  constexpr uint16_t asn() const { return static_cast<uint16_t>(raw_ >> 16); }
  constexpr uint16_t value() const { return static_cast<uint16_t>(raw_); }
  constexpr uint32_t raw() const { return raw_; }

  std::string str() const { return std::to_string(asn()) + ":" + std::to_string(value()); }

  friend constexpr auto operator<=>(const Community&, const Community&) = default;

 private:
  uint32_t raw_ = 0;
};

// An always-sorted, duplicate-free set of communities. Sorted storage gives
// cheap equality (needed for input-route equivalence classes, §3.1) and
// deterministic rendering. Like AsPath it is a shared immutable value: copies
// share one sorted vector (a Route copy allocates nothing), and `insert`,
// `erase` and `clear` build a new one, leaving the copies unchanged.
class CommunitySet {
 public:
  CommunitySet() = default;
  CommunitySet(std::initializer_list<Community> values) {
    std::vector<Community> sorted(values);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    assign(std::move(sorted));
  }

  void insert(Community c) {
    const auto it = std::lower_bound(begin(), end(), c);
    if (it != end() && *it == c) return;
    std::vector<Community> next;
    next.reserve(size() + 1);
    next.insert(next.end(), begin(), it);
    next.push_back(c);
    next.insert(next.end(), it, end());
    assign(std::move(next));
  }
  void erase(Community c) {
    const auto it = std::lower_bound(begin(), end(), c);
    if (it == end() || *it != c) return;
    std::vector<Community> next;
    next.reserve(size() - 1);
    next.insert(next.end(), begin(), it);
    next.insert(next.end(), it + 1, end());
    assign(std::move(next));
  }
  bool contains(Community c) const { return std::binary_search(begin(), end(), c); }
  void clear() { values_.reset(); }
  bool empty() const { return !values_; }
  size_t size() const { return values_ ? values_->size() : 0; }

  const Community* begin() const { return values_ ? values_->data() : nullptr; }
  const Community* end() const { return values_ ? values_->data() + values_->size() : nullptr; }

  // Renders as "100:1 200:2" (space separated, sorted).
  std::string str() const {
    std::string out;
    for (const Community c : *this) {
      if (!out.empty()) out += ' ';
      out += c.str();
    }
    return out;
  }

  friend bool operator==(const CommunitySet& a, const CommunitySet& b) {
    return a.values_ == b.values_ || std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

  size_t hashValue() const {
    size_t h = 0x811c9dc5;
    for (const Community c : *this) h = (h ^ c.raw()) * 0x01000193;
    return h;
  }

 private:
  // An empty set holds no vector: `empty()` reads that.
  void assign(std::vector<Community> values) {
    if (values.empty())
      values_.reset();
    else
      values_ = std::make_shared<std::vector<Community>>(std::move(values));
  }

  std::shared_ptr<const std::vector<Community>> values_;  // Null: the empty set.
};

}  // namespace hoyan
