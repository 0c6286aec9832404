// BGP AS path with AS_SEQUENCE / AS_SET segments.
//
// AS_SET segments matter for the aggregation vendor-specific behaviours of
// Table 5 ("common AS path prefix": when aggregating without as-set, whether
// the common AS-path prefix of the contributors is kept).
//
// A path is a shared immutable value: one reference to a representation that
// holds the segments, the rendered text and the hash, all computed once when
// the path is built. Copying a path (and so a Route) allocates nothing, and
// every copy reads the same text and hash. `prepend` and `appendSet` build a
// new representation; the old one stays with the copies that hold it.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hoyan {

using Asn = uint32_t;

class AsPath {
 public:
  enum class SegmentType : uint8_t { kSequence, kSet };

  struct Segment {
    SegmentType type = SegmentType::kSequence;
    std::vector<Asn> asns;
    friend bool operator==(const Segment&, const Segment&) = default;
  };

  AsPath() = default;
  explicit AsPath(std::vector<Asn> sequence) {
    if (sequence.empty()) return;
    std::vector<Segment> segments;
    segments.push_back({SegmentType::kSequence, std::move(sequence)});
    rep_ = Rep::make(std::move(segments));
  }

  // A moved-from path is the empty path (the reference moves with it).

  bool empty() const { return !rep_; }
  const std::vector<Segment>& segments() const {
    return rep_ ? rep_->segments : kNoSegments;
  }

  // Path length per the BGP decision process: an AS_SET counts as one hop.
  size_t length() const { return rep_ ? rep_->length : 0; }

  // Prepends `asn` at the front of the path (route advertisement over eBGP).
  void prepend(Asn asn) {
    std::vector<Segment> segments;
    const std::vector<Segment>& old = this->segments();
    if (old.empty() || old.front().type != SegmentType::kSequence) {
      segments.reserve(old.size() + 1);
      segments.push_back({SegmentType::kSequence, {asn}});
      segments.insert(segments.end(), old.begin(), old.end());
    } else {
      segments = old;
      auto& seq = segments.front().asns;
      seq.insert(seq.begin(), asn);
    }
    rep_ = Rep::make(std::move(segments));
  }

  // Appends an AS_SET segment (route aggregation with as-set).
  void appendSet(std::vector<Asn> asns) {
    std::vector<Segment> segments = this->segments();
    segments.push_back({SegmentType::kSet, std::move(asns)});
    rep_ = Rep::make(std::move(segments));
  }

  // True if `asn` appears anywhere in the path (AS-loop prevention).
  bool contains(Asn asn) const {
    for (const Segment& s : segments())
      for (const Asn a : s.asns)
        if (a == asn) return true;
    return false;
  }

  // The neighbouring AS the route was learned from (first ASN), or 0.
  Asn firstAsn() const {
    for (const Segment& s : segments())
      if (!s.asns.empty()) return s.asns.front();
    return 0;
  }
  // The originating AS (last ASN), or 0.
  Asn originAsn() const {
    const std::vector<Segment>& all = segments();
    for (auto it = all.rbegin(); it != all.rend(); ++it)
      if (!it->asns.empty()) return it->asns.back();
    return 0;
  }

  // Renders as "100 200 {300,400}" — the textual form route-policy AS-path
  // regular expressions match against. Rendered once, when the path is built.
  const std::string& str() const { return rep_ ? rep_->text : kEmptyText; }

  friend bool operator==(const AsPath& a, const AsPath& b) {
    if (a.rep_ == b.rep_) return true;
    if (!a.rep_ || !b.rep_) return false;  // Only the empty path has no rep.
    return a.rep_->hash == b.rep_->hash && a.rep_->segments == b.rep_->segments;
  }

  size_t hashValue() const { return rep_ ? rep_->hash : kEmptyHash; }

 private:
  static constexpr size_t kEmptyHash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  static inline const std::vector<Segment> kNoSegments;
  static inline const std::string kEmptyText;

  struct Rep {
    std::vector<Segment> segments;  // Never empty: the empty path has no Rep.
    std::string text;
    size_t hash = kEmptyHash;
    size_t length = 0;

    static std::shared_ptr<const Rep> make(std::vector<Segment> segments) {
      auto rep = std::make_shared<Rep>();
      rep->segments = std::move(segments);
      for (const Segment& s : rep->segments) {
        rep->hash = (rep->hash ^ static_cast<size_t>(s.type)) * 0x100000001b3ULL;
        for (const Asn a : s.asns) rep->hash = (rep->hash ^ a) * 0x100000001b3ULL;
        rep->length += s.type == SegmentType::kSet ? 1 : s.asns.size();
      }
      rep->text = render(rep->segments);
      return rep;
    }

    static std::string render(const std::vector<Segment>& segments) {
      std::string out;
      char digits[16];
      const auto appendAsn = [&](Asn asn) {
        const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, asn);
        out.append(digits, end);
      };
      for (const Segment& s : segments) {
        if (!out.empty()) out += ' ';
        const bool set = s.type == SegmentType::kSet;
        if (set) out += '{';
        for (size_t i = 0; i < s.asns.size(); ++i) {
          if (i) out += set ? ',' : ' ';
          appendAsn(s.asns[i]);
        }
        if (set) out += '}';
      }
      return out;
    }
  };

  std::shared_ptr<const Rep> rep_;  // Null: the empty path.
};

}  // namespace hoyan
