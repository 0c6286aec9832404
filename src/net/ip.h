// IP address and prefix primitives shared by every Hoyan subsystem.
//
// Addresses are stored uniformly as 128-bit values (two 64-bit limbs) with a
// family tag, so IPv4 and IPv6 routes and flows flow through the same
// simulation code paths; the paper's WAN is dual stack (the next-generation
// WAN is IPv6/SRv6-based).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hoyan {

enum class IpFamily : uint8_t { kV4 = 4, kV6 = 6 };

// A 128-bit unsigned integer used for address arithmetic.
struct U128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend constexpr auto operator<=>(const U128&, const U128&) = default;

  constexpr U128 operator&(const U128& o) const { return {hi & o.hi, lo & o.lo}; }
  constexpr U128 operator|(const U128& o) const { return {hi | o.hi, lo | o.lo}; }
  constexpr U128 operator~() const { return {~hi, ~lo}; }

  constexpr U128 operator+(uint64_t v) const {
    U128 r{hi, lo + v};
    if (r.lo < lo) ++r.hi;
    return r;
  }
  constexpr U128 operator-(uint64_t v) const {
    U128 r{hi, lo - v};
    if (r.lo > lo) --r.hi;
    return r;
  }

  // Left-shifts by s in [0, 128).
  constexpr U128 shiftLeft(unsigned s) const {
    if (s == 0) return *this;
    if (s >= 128) return {};
    if (s >= 64) return {lo << (s - 64), 0};
    return {(hi << s) | (lo >> (64 - s)), lo << s};
  }
};

// An IPv4 or IPv6 address. IPv4 addresses live in the low 32 bits.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr IpAddress(IpFamily family, U128 bits) : bits_(bits), family_(family) {}

  // Builds an IPv4 address from a host-order 32-bit value.
  static constexpr IpAddress v4(uint32_t value) {
    return IpAddress(IpFamily::kV4, U128{0, value});
  }
  // Builds an IPv6 address from two host-order 64-bit halves.
  static constexpr IpAddress v6(uint64_t hi, uint64_t lo) {
    return IpAddress(IpFamily::kV6, U128{hi, lo});
  }

  // Parses dotted-quad IPv4 or RFC 4291 IPv6 text (with "::" compression).
  static std::optional<IpAddress> parse(std::string_view text);

  constexpr IpFamily family() const { return family_; }
  constexpr bool isV4() const { return family_ == IpFamily::kV4; }
  constexpr bool isV6() const { return family_ == IpFamily::kV6; }
  constexpr const U128& bits() const { return bits_; }
  constexpr uint32_t v4Value() const { return static_cast<uint32_t>(bits_.lo); }

  // Address width in bits: 32 or 128.
  constexpr unsigned width() const { return isV4() ? 32 : 128; }

  // Returns the value of bit `i` counted from the most significant bit of the
  // address (bit 0 is the top bit). Precondition: i < width().
  constexpr bool bit(unsigned i) const {
    const unsigned pos = width() - 1 - i;
    return pos >= 64 ? (bits_.hi >> (pos - 64)) & 1 : (bits_.lo >> pos) & 1;
  }

  std::string str() const;

  friend constexpr bool operator==(const IpAddress& a, const IpAddress& b) {
    return a.family_ == b.family_ && a.bits_ == b.bits_;
  }
  // Orders V4 before V6, then numerically; gives a total order for splitting
  // inputs into contiguous subtask ranges (the ordering heuristic of §3.2).
  friend constexpr bool operator<(const IpAddress& a, const IpAddress& b) {
    if (a.family_ != b.family_) return a.family_ < b.family_;
    return a.bits_ < b.bits_;
  }
  friend constexpr bool operator<=(const IpAddress& a, const IpAddress& b) {
    return a == b || a < b;
  }
  friend constexpr bool operator>(const IpAddress& a, const IpAddress& b) { return b < a; }
  friend constexpr bool operator>=(const IpAddress& a, const IpAddress& b) { return b <= a; }

  size_t hashValue() const {
    const uint64_t h =
        (bits_.hi * 0x9e3779b97f4a7c15ULL) ^ (bits_.lo + static_cast<uint64_t>(family_));
    return static_cast<size_t>(h ^ (h >> 29));
  }

 private:
  U128 bits_;
  IpFamily family_ = IpFamily::kV4;
};

// A CIDR prefix: an address plus a mask length. The address is stored
// canonicalised (host bits zeroed).
class Prefix {
 public:
  constexpr Prefix() = default;
  Prefix(IpAddress address, uint8_t length);

  // Parses "a.b.c.d/len" or "v6addr/len". A bare address implies a host route.
  static std::optional<Prefix> parse(std::string_view text);

  const IpAddress& address() const { return address_; }
  uint8_t length() const { return length_; }
  IpFamily family() const { return address_.family(); }
  bool isHostRoute() const { return length_ == address_.width(); }
  bool isDefaultRoute() const { return length_ == 0; }

  // First and last addresses covered by this prefix.
  IpAddress firstAddress() const { return address_; }
  IpAddress lastAddress() const;

  bool contains(const IpAddress& addr) const;
  bool contains(const Prefix& other) const;
  bool overlaps(const Prefix& other) const;

  std::string str() const;

  friend bool operator==(const Prefix& a, const Prefix& b) {
    return a.length_ == b.length_ && a.address_ == b.address_;
  }
  // Orders by (address, length): more-specific prefixes with the same network
  // address sort after their covering prefix.
  friend bool operator<(const Prefix& a, const Prefix& b) {
    if (!(a.address_ == b.address_)) return a.address_ < b.address_;
    return a.length_ < b.length_;
  }

  size_t hashValue() const { return address_.hashValue() * 131 + length_; }

 private:
  IpAddress address_;
  uint8_t length_ = 0;
};

// Network mask of `length` leading ones for the given family.
U128 maskBits(IpFamily family, uint8_t length);

// An inclusive address range [first, last]; used to record the coverage of a
// route-simulation subtask so traffic subtasks can prune dependencies (§3.2).
struct IpRange {
  IpAddress first;
  IpAddress last;

  bool contains(const IpAddress& a) const { return first <= a && a <= last; }
  bool overlaps(const IpRange& o) const { return !(last < o.first || o.last < first); }
  // Extends the range to cover `p` entirely.
  void extend(const Prefix& p);
  void extend(const IpAddress& a);
  std::string str() const;
};

}  // namespace hoyan

template <>
struct std::hash<hoyan::IpAddress> {
  size_t operator()(const hoyan::IpAddress& a) const { return a.hashValue(); }
};

template <>
struct std::hash<hoyan::Prefix> {
  size_t operator()(const hoyan::Prefix& p) const { return p.hashValue(); }
};
