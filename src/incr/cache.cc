#include "incr/cache.h"

#include <algorithm>
#include <vector>

#include "incr/fingerprint.h"

namespace hoyan::incr {
namespace {

// Domain-separation tags so a route key can never collide with a traffic key
// built from coincidentally equal fingerprints.
constexpr uint64_t kTagRoute = 'R';
constexpr uint64_t kTagLocal = 'L';
constexpr uint64_t kTagTraffic = 'T';

}  // namespace

SubtaskCache::SubtaskCache(ObjectStore* store, size_t budgetBytes)
    : store_(store), budgetBytes_(budgetBytes) {
  bindTelemetry(obs::Telemetry::disabled());
}

void SubtaskCache::bindTelemetry(obs::Telemetry& telemetry) {
  obs::MetricsRegistry& metrics = telemetry.metrics();
  std::lock_guard lock(mutex_);
  journal_ = &telemetry.journal();
  hits_ = &metrics.counter("incr.cache.hits");
  misses_ = &metrics.counter("incr.cache.misses");
  evictions_ = &metrics.counter("incr.cache.evictions");
  bypasses_ = &metrics.counter("incr.cache.bypasses");
  entriesGauge_ = &metrics.gauge("incr.cache.entries");
  bytesGauge_ = &metrics.gauge("incr.cache.bytes");
  publishGaugesLocked();
}

void SubtaskCache::beginRun(const CacheFingerprints& fingerprints,
                            const ChangeImpact& impact) {
  std::lock_guard lock(mutex_);
  fingerprints_ = fingerprints;
  impact_ = impact;
  if (!transient_.empty()) store_->erasePrefix(transient_);
  transient_ = "run" + std::to_string(++runs_) + "/";
}

void SubtaskCache::endRun() {
  {
    std::lock_guard lock(mutex_);
    if (transient_.empty()) return;
    store_->erasePrefix(transient_);
    transient_.clear();
  }
  evictToBudget();
}

std::string SubtaskCache::transientPrefix() {
  std::lock_guard lock(mutex_);
  return transient_;
}

std::string SubtaskCache::routeResultKey(std::span<const InputRoute> chunk,
                                         const std::optional<IpRange>& coverage) {
  uint64_t modelFp;
  uint64_t optionsFp;
  {
    std::lock_guard lock(mutex_);
    // A provably clean subtask keys on the base model: the updated model
    // yields byte-identical results for it, so the base run's entry hits.
    modelFp = impact_.clean(coverage) ? fingerprints_.baseModel
                                      : fingerprints_.currentModel;
    optionsFp = fingerprints_.routeOptions;
  }
  Fnv1a h;
  h.mix(kTagRoute).mix(modelFp).mix(optionsFp);
  h.mix(fingerprintInputRouteChunk(chunk));
  return "cas/r/" + fingerprintHex(h.digest());
}

std::string SubtaskCache::localRoutesResultKey() {
  std::lock_guard lock(mutex_);
  Fnv1a h;
  h.mix(kTagLocal).mix(fingerprints_.localRouteState);
  return "cas/l/" + fingerprintHex(h.digest());
}

std::string SubtaskCache::trafficResultKey(std::span<const Flow> chunk,
                                           std::span<const std::string> ribKeys) {
  Fnv1a h;
  {
    std::lock_guard lock(mutex_);
    h.mix(kTagTraffic).mix(fingerprints_.forwardingState)
        .mix(fingerprints_.trafficOptions);
  }
  h.mix(fingerprintFlowChunk(chunk));
  // Route dirtiness composes in transitively: a dirty route subtask has a new
  // content key, which changes every traffic key that loads its file.
  h.mix(static_cast<uint64_t>(ribKeys.size()));
  for (const std::string& key : ribKeys) h.mix(std::string_view(key));
  return "cas/t/" + fingerprintHex(h.digest());
}

bool SubtaskCache::lookup(const std::string& key) {
  std::lock_guard lock(mutex_);
  if (store_->contains(key)) {
    auto& entry = entries_[key];
    entry.lastUsed = ++clock_;
    hits_->add(1);
    return true;
  }
  misses_->add(1);
  return false;
}

void SubtaskCache::stored(const std::string& key, size_t bytes) {
  std::lock_guard lock(mutex_);
  auto& entry = entries_[key];
  totalBytes_ += bytes;
  totalBytes_ -= entry.bytes;  // Re-store of the same key replaces its bytes.
  entry.bytes = bytes;
  entry.lastUsed = ++clock_;
  publishGaugesLocked();
}

void SubtaskCache::noteBypass() {
  std::lock_guard lock(mutex_);
  bypasses_->add(1);
}

void SubtaskCache::evictToBudget() {
  std::lock_guard lock(mutex_);
  if (budgetBytes_ == 0) return;
  if (totalBytes_ > budgetBytes_) {
    // Min-heap over last-use ages: building it is O(n), and each eviction
    // pops in O(log n) — the full sort only paid off when most entries were
    // victims. Map node pointers stay stable across erases of other keys.
    struct Victim {
      uint64_t lastUsed;
      const std::string* key;
      size_t bytes;
    };
    std::vector<Victim> heap;
    heap.reserve(entries_.size());
    for (const auto& [key, entry] : entries_)
      heap.push_back(Victim{entry.lastUsed, &key, entry.bytes});
    const auto older = [](const Victim& a, const Victim& b) {
      return a.lastUsed > b.lastUsed;  // Min-heap: oldest at the top.
    };
    std::make_heap(heap.begin(), heap.end(), older);
    while (totalBytes_ > budgetBytes_ && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), older);
      const Victim victim = heap.back();
      heap.pop_back();
      const std::string key = *victim.key;  // Outlive the node erase below.
      store_->erase(key);
      totalBytes_ -= victim.bytes;
      entries_.erase(key);
      evictions_->add(1);
      journal_->cacheEvict(key, victim.bytes);
    }
  }
  publishGaugesLocked();
}

size_t SubtaskCache::entryCount() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

size_t SubtaskCache::totalBytes() const {
  std::lock_guard lock(mutex_);
  return totalBytes_;
}

void SubtaskCache::publishGaugesLocked() {
  entriesGauge_->set(static_cast<int64_t>(entries_.size()));
  bytesGauge_->set(static_cast<int64_t>(totalBytes_));
}

}  // namespace hoyan::incr
