#include "proto/policy_kernel.h"

#include <regex>
#include <utility>

#include "obs/log.h"

namespace hoyan {
namespace {

// Translates a vendor-style as-path pattern (`_` = boundary: start, end, or
// space) into ECMAScript regex syntax, so every pattern is translated exactly
// once per process.
std::string translatePattern(const std::string& pattern) {
  std::string translated;
  translated.reserve(pattern.size() + 16);
  for (const char c : pattern) {
    if (c == '_')
      translated += "(^| |$)";
    else
      translated += c;
  }
  return translated;
}

// Compile-time diagnostics for bad patterns. Driven by HOYAN_LOG like the
// rest of src/obs (off by default); the cache guarantees once-per-pattern.
const obs::Logger& kernelLogger() {
  static const obs::Logger logger(obs::logLevelFromEnv());
  return logger;
}

}  // namespace

AsPathRegexCache& AsPathRegexCache::global() {
  static AsPathRegexCache cache;
  return cache;
}

std::shared_ptr<const AsPathRegexCache::Compiled> AsPathRegexCache::get(
    const std::string& pattern) {
  {
    std::lock_guard lock(mutex_);
    const auto it = byPattern_.find(pattern);
    if (it != byPattern_.end()) return it->second;
  }
  // Compile outside the lock (building the DFA is the expensive part);
  // losers of a concurrent compile race discard their copy. std::regex's
  // constructor decides validity, so the accepted grammar is libstdc++'s.
  auto compiled = std::make_shared<Compiled>();
  const std::string translated = translatePattern(pattern);
  try {
    const std::regex check(translated);
    compiled->valid = compiled->dfa.compile(translated, compiled->error);
  } catch (const std::regex_error& error) {
    compiled->valid = false;
    compiled->error = error.what();
  }
  std::shared_ptr<const Compiled> inserted;
  bool won = false;
  {
    std::lock_guard lock(mutex_);
    const auto [it, fresh] = byPattern_.emplace(pattern, std::move(compiled));
    inserted = it->second;
    won = fresh;
  }
  if (won && !inserted->valid)
    kernelLogger().warn("policy.bad_as_path_regex",
                        {{"pattern", pattern}, {"error", inserted->error}});
  return inserted;
}

size_t AsPathRegexCache::size() const {
  std::lock_guard lock(mutex_);
  return byPattern_.size();
}

AttrClassId AttrInternTable::intern(const BgpAttributes& attrs) {
  const size_t hash = attrs.hashValue();
  std::vector<AttrClassId>& bucket = buckets_[hash];
  for (const AttrClassId id : bucket)
    if (entries_[id].attrs == attrs) return id;
  const auto id = static_cast<AttrClassId>(entries_.size());
  entries_.push_back(Entry{attrs, hash});
  bucket.push_back(id);
  return id;
}

const PolicyEvalKernel::KeyProfile& PolicyEvalKernel::profileFor(
    const PolicyContext& context, std::optional<NameId> policyName,
    uint64_t profileKey) {
  const auto it = profiles_.find(profileKey);
  if (it != profiles_.end()) return it->second;
  KeyProfile profile;
  // Policies are immutable for the engine's lifetime (the model is const), so
  // one scan decides which route fields can influence this policy's outcome.
  // `nexthop` is also keyed when any node *writes* it: an outcome records the
  // post-eval nexthop only relative to a fixed input nexthop.
  if (policyName) {
    if (const RoutePolicy* policy = context.device->findRoutePolicy(*policyName)) {
      for (const PolicyNode& node : policy->nodes) {
        if (node.match.asPathList) profile.memoized = true;
        if (node.match.prefixList) profile.usesPrefix = true;
        if (node.match.nexthop || node.sets.nexthop) profile.usesNexthop = true;
        if (node.match.protocol) profile.usesProtocol = true;
      }
    }
  }
  return profiles_.emplace(profileKey, profile).first->second;
}

bool PolicyEvalKernel::evaluate(const PolicyContext& context,
                                std::optional<NameId> policyName, Route& route) {
  const uint64_t policyCode = policyName ? uint64_t{*policyName} + 1 : 0;
  const uint64_t profileKey =
      (uint64_t{context.device->hostname} << 32) | policyCode;
  const KeyProfile& profile = profileFor(context, policyName, profileKey);
  if (!profile.memoized) {
    // Match-cheap policy (or none configured): walking it is cheaper than
    // interning the attribute set, so evaluate directly — in place, since
    // nobody needs the pre-eval route back. The regex L1 still applies
    // through ctx.kernel.
    return evaluatePolicyInPlace(context, policyName, route);
  }

  MemoKey key;
  key.device = context.device->hostname;
  key.policy = policyCode;
  key.attrs = attrs_.intern(route.attrs);
  if (profile.usesPrefix) key.prefix = route.prefix;
  if (profile.usesNexthop) key.nexthop = route.nexthop;
  if (profile.usesProtocol) key.protocol = static_cast<uint8_t>(route.protocol);

  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++stats_.memoHits;
    const MemoOutcome& outcome = it->second;
    if (!outcome.permitted) return false;
    if (outcome.attrsOut != key.attrs) route.attrs = attrs_.attrs(outcome.attrsOut);
    if (outcome.rewritesNexthop) route.nexthop = outcome.nexthop;
    return true;
  }

  ++stats_.memoMisses;
  PolicyResult verdict = evaluatePolicy(context, policyName, route, /*explain=*/false);
  MemoOutcome outcome;
  outcome.permitted = verdict.permitted;
  if (verdict.permitted) {
    // Most permits rewrite nothing: compare before paying a second intern.
    outcome.attrsOut = verdict.route.attrs == route.attrs
                           ? key.attrs
                           : attrs_.intern(verdict.route.attrs);
    outcome.rewritesNexthop = !(verdict.route.nexthop == route.nexthop);
    if (outcome.rewritesNexthop) outcome.nexthop = verdict.route.nexthop;
  } else {
    outcome.attrsOut = key.attrs;
  }
  memo_.emplace(key, outcome);
  if (verdict.permitted) route = std::move(verdict.route);
  return outcome.permitted;
}

const AsPathRegexCache::Compiled* PolicyEvalKernel::compiled(
    const std::string& pattern) {
  const auto it = regexL1_.find(pattern);
  if (it != regexL1_.end()) {
    ++stats_.regexCacheHits;
    return it->second.get();
  }
  ++stats_.regexCacheMisses;
  return regexL1_.emplace(pattern, AsPathRegexCache::global().get(pattern))
      .first->second.get();
}

}  // namespace hoyan
