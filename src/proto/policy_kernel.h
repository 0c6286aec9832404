// The cold-run policy-evaluation kernel (§3.1's equivalence insight applied
// *inside* propagation).
//
// Route propagation spends most of a cold run inside evaluatePolicy: every
// received/advertised/leaked route walks the policy nodes and matches its AS
// path against every as-path-list entry. But routes cluster: thousands of
// prefixes share one DC aggregate's attribute set, and a policy's verdict
// depends only on the fields it reads. The kernel collapses that repetition
// in three layers:
//
//  1. AsPathRegexCache — vendor as-path patterns are translated and compiled
//     exactly once per process (thread-safe for dist workers) into a DFA
//     (net/as_path_dfa.h), shared read-only by every worker; each engine
//     keeps a mutex-free L1 view. std::regex's constructor stays the one-time
//     validity check. Invalid patterns, and the constructs the DFA does not
//     model, are surfaced (once-per-pattern warning + `sim.policy.bad_regex`)
//     instead of silently matching nothing.
//  2. AttrInternTable — hash-conses BgpAttributes into per-engine
//     AttrClassIds, so attribute sets compare and hash in O(1) downstream.
//  3. Policy-eval memoization — (device, policy, AttrClassId, + the route
//     fields the policy actually reads) → verdict + rewritten attribute
//     class. A hit replays the outcome without touching the policy. The memo
//     is *structurally gated*: it engages only for policies that match
//     as-path lists. Match-cheap policies (prefix/community matchers,
//     permit-alls) evaluate directly — walking their two or three nodes
//     costs less than hashing the attribute set, so memoizing them is a
//     measured net loss.
//
// Invariants (tested by the determinism differentials and bench gate):
//  * Byte-identity: a memoized evaluation produces a route byte-identical to
//    the plain evaluator's (attribute equality is canonical — CommunitySet is
//    sorted, AsPath compares exact segments).
//  * Provenance bypass: engines with a recorder attached never consult the
//    memo (replay needs real per-route event emission); the regex cache and
//    lazy reasons still apply.
//  * Fingerprint stability: the kernel is invisible to incr:: content keys
//    (RouteSimOptions::policyMemo is excluded from fingerprints on purpose).
//
// See docs/PERF.md for the full design.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/route.h"
#include "net/as_path_dfa.h"
#include "proto/policy_eval.h"

namespace hoyan {

// Counters of one kernel instance (== one RouteSimEngine). All values are
// deterministic per subtask — L1-level regex accounting on purpose, so sums
// across subtasks are identical for any worker count and the journal's
// canonical export stays byte-stable.
struct PolicyKernelStats {
  // Every policy evaluation the route engine made, whichever path served it
  // (memo hit, memo miss, a policy the memo does not cover, or the plain
  // evaluator with the memo off or a recorder attached).
  uint64_t evaluations = 0;
  uint64_t memoHits = 0;
  uint64_t memoMisses = 0;
  uint64_t regexCacheHits = 0;    // Engine-local (L1) compiled-pattern hits.
  uint64_t regexCacheMisses = 0;  // First engine-local sighting of a pattern.
  uint64_t badRegexEvals = 0;     // Evaluations that hit an invalid pattern.
  uint64_t attrClasses = 0;       // Interned attribute classes (table size).

  void add(const PolicyKernelStats& other) {
    evaluations += other.evaluations;
    memoHits += other.memoHits;
    memoMisses += other.memoMisses;
    regexCacheHits += other.regexCacheHits;
    regexCacheMisses += other.regexCacheMisses;
    badRegexEvals += other.badRegexEvals;
    attrClasses += other.attrClasses;
  }
  double memoHitRate() const {
    const uint64_t total = memoHits + memoMisses;
    return total == 0 ? 0.0 : static_cast<double>(memoHits) / static_cast<double>(total);
  }
  double regexCacheHitRate() const {
    const uint64_t total = regexCacheHits + regexCacheMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(regexCacheHits) / static_cast<double>(total);
  }
};

// Process-wide compiled as-path regex cache (layer 1's L2). Patterns are
// translated from vendor syntax (`_` = boundary) and compiled exactly once
// per process under a mutex; entries are immutable and never evicted, so the
// returned shared_ptr stays valid for the process lifetime. Invalid patterns
// cache a `valid = false` entry and log one warning at compile time.
class AsPathRegexCache {
 public:
  struct Compiled {
    AsPathDfa dfa;      // Meaningful only when `valid`.
    bool valid = false;
    std::string error;  // Why the pattern is invalid: regex_error::what(), or
                        // the construct the DFA does not model.

    // std::regex_search over the rendered path; an invalid pattern matches
    // nothing.
    bool matches(const std::string& pathText) const {
      return valid && dfa.search(pathText);
    }
  };

  static AsPathRegexCache& global();

  std::shared_ptr<const Compiled> get(const std::string& pattern);
  size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const Compiled>> byPattern_;
};

// A stable, per-engine identifier of one distinct BgpAttributes value.
using AttrClassId = uint32_t;

// Hash-consing table: equal attribute sets intern to the same id, so
// comparing/hashing attribute sets downstream is integer work. Per-engine
// (ids are not stable across engines) and single-threaded like the engine.
class AttrInternTable {
 public:
  AttrClassId intern(const BgpAttributes& attrs);
  const BgpAttributes& attrs(AttrClassId id) const { return entries_[id].attrs; }
  size_t hash(AttrClassId id) const { return entries_[id].hash; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    BgpAttributes attrs;
    size_t hash = 0;
  };
  std::vector<Entry> entries_;
  // Full hash → candidate ids (collisions resolved by full equality once,
  // at intern time).
  std::unordered_map<size_t, std::vector<AttrClassId>> buckets_;
};

// Layers 2+3, owned by one RouteSimEngine. Not thread-safe by design: dist
// workers each run their own engine (and kernel); only the regex L2 above is
// shared across threads.
class PolicyEvalKernel {
 public:
  // The memoized fast path: evaluates `policyName` against `route` on the
  // context device, rewriting the route in place when permitted. Byte-
  // identical to evaluatePolicy() with the reason trace omitted. The caller
  // guarantees no provenance recorder is attached (see the bypass invariant).
  bool evaluate(const PolicyContext& context, std::optional<NameId> policyName,
                Route& route);

  // Engine-local (L1) view over the global compiled-pattern cache; counts
  // regexCacheHits/Misses deterministically per engine. Never returns null.
  const AsPathRegexCache::Compiled* compiled(const std::string& pattern);

  // Called by the evaluator when a match consulted an invalid pattern.
  void countBadRegexEval() { ++stats_.badRegexEvals; }

  PolicyKernelStats stats() const {
    PolicyKernelStats out = stats_;
    out.attrClasses = attrs_.size();
    return out;
  }
  size_t memoEntries() const { return memo_.size(); }

 private:
  // Which route fields the policy's verdict/rewrites can depend on, beyond
  // the attribute class. Scanned once per (device, policy): keys only carry
  // the fields the policy reads (or writes, for nexthop), which both keeps
  // them small and lifts the hit rate across prefixes.
  struct KeyProfile {
    // The structural gate: true only for policies with as-path-list matches,
    // whose evaluation (regex searches) costs more than the memo machinery.
    bool memoized = false;
    bool usesPrefix = false;
    bool usesNexthop = false;  // Matched on — or rewritten (see below).
    bool usesProtocol = false;
  };

  struct MemoKey {
    NameId device = kInvalidName;
    uint64_t policy = 0;  // 0 = no policy configured; else NameId + 1.
    AttrClassId attrs = 0;
    Prefix prefix;        // Default-constructed unless the profile uses it.
    IpAddress nexthop;    // Likewise.
    uint8_t protocol = 0xff;  // Likewise.

    friend bool operator==(const MemoKey&, const MemoKey&) = default;
  };

  struct MemoKeyHash {
    static uint64_t mix(uint64_t h) {
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebULL;
      return h ^ (h >> 31);
    }
    size_t operator()(const MemoKey& key) const {
      uint64_t h = mix((uint64_t{key.device} << 32) | key.attrs);
      h = mix(h ^ key.policy);
      h = mix(h ^ key.prefix.hashValue());
      h = mix(h ^ key.nexthop.hashValue());
      return static_cast<size_t>(mix(h ^ key.protocol));
    }
  };

  struct MemoOutcome {
    bool permitted = false;
    bool rewritesNexthop = false;
    AttrClassId attrsOut = 0;
    IpAddress nexthop;  // Meaningful only when rewritesNexthop.
  };

  const KeyProfile& profileFor(const PolicyContext& context,
                               std::optional<NameId> policyName, uint64_t profileKey);

  AttrInternTable attrs_;
  std::unordered_map<uint64_t, KeyProfile> profiles_;  // (device << 32) | policy code.
  std::unordered_map<MemoKey, MemoOutcome, MemoKeyHash> memo_;
  std::unordered_map<std::string, std::shared_ptr<const AsPathRegexCache::Compiled>>
      regexL1_;
  PolicyKernelStats stats_;
};

}  // namespace hoyan
