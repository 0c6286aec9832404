// In-process stand-in for the cloud object storage (OSS) that Hoyan uses to
// pass subtask inputs and results between servers (§3.2).
//
// Blobs are typed shared pointers; the store is thread-safe and accounts the
// approximate bytes written/read so benchmarks can report the network-I/O
// saving of the ordering heuristic (Fig. 5(d)) without real sockets. Beyond
// the cumulative counters it tracks *residency* — live blob count and live
// bytes — so store occupancy between the route and traffic phases is
// visible; `bindTelemetry` mirrors residency into the `store.*` gauges and
// traffic into the `store.*` counters. A blob may hold more than a read
// transfers (derived state its readers use in place); residency counts that
// too, traffic does not.
#pragma once

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace hoyan {

class ObjectStore {
 public:
  // Reports into `metrics`' store.blobs and store.live_bytes gauges and
  // store.bytes_read and store.bytes_written counters from now on, setting
  // the gauges to the current residency. `metrics` must outlive the store.
  void bindTelemetry(obs::MetricsRegistry& metrics) {
    obs::Gauge& blobCount = metrics.gauge("store.blobs", "Live blobs in the object store.");
    obs::Gauge& liveBytes =
        metrics.gauge("store.live_bytes", "Bytes held by live object-store blobs.");
    obs::Counter& bytesRead =
        metrics.counter("store.bytes_read", "Bytes read from the object store.");
    obs::Counter& bytesWritten =
        metrics.counter("store.bytes_written", "Bytes written to the object store.");
    std::lock_guard lock(mutex_);
    blobCountGauge_ = &blobCount;
    liveBytesGauge_ = &liveBytes;
    bytesReadCounter_ = &bytesRead;
    bytesWrittenCounter_ = &bytesWritten;
    blobCount.set(static_cast<int64_t>(objects_.size()));
    liveBytes.set(static_cast<int64_t>(liveBytes_));
  }

  // Stores `value` under `key`. Writing it, and each read of it, transfers
  // `approxBytes`; `derivedBytes` is state it keeps beyond that, built from
  // its content and used in place by readers (the local-routes file's
  // forwarding tries), counted in residency only.
  template <typename T>
  void put(const std::string& key, T value, size_t approxBytes, size_t derivedBytes = 0) {
    auto blob = std::make_shared<Entry>();
    blob->object = std::make_shared<T>(std::move(value));
    blob->bytes = approxBytes;
    blob->residentBytes = approxBytes + derivedBytes;
    std::lock_guard lock(mutex_);
    bytesWritten_ += approxBytes;
    if (bytesWrittenCounter_) bytesWrittenCounter_->add(approxBytes);
    auto& slot = objects_[key];
    if (slot) {
      liveBytes_ -= slot->residentBytes;  // Overwrite: replace the old blob's bytes.
    } else if (blobCountGauge_) {
      blobCountGauge_->add(1);
    }
    liveBytes_ += blob->residentBytes;
    if (liveBytesGauge_) liveBytesGauge_->set(static_cast<int64_t>(liveBytes_));
    slot = std::move(blob);
  }

  // Returns the blob stored under `key`; throws if absent or of the wrong
  // type. Reading accounts the blob's size as transferred bytes.
  template <typename T>
  std::shared_ptr<const T> get(const std::string& key) {
    std::shared_ptr<Entry> entry;
    {
      std::lock_guard lock(mutex_);
      const auto it = objects_.find(key);
      if (it == objects_.end())
        throw std::out_of_range("ObjectStore: no object '" + key + "'");
      entry = it->second;
      bytesRead_ += entry->bytes;
      ++reads_;
      if (bytesReadCounter_) bytesReadCounter_->add(entry->bytes);
    }
    auto typed = std::static_pointer_cast<const T>(
        std::shared_ptr<const void>(entry->object));
    return typed;
  }

  bool contains(const std::string& key) const {
    std::lock_guard lock(mutex_);
    return objects_.contains(key);
  }
  // Removes one blob; returns whether it existed. Live-byte accounting is
  // decremented so residency round-trips to zero after deleting everything.
  bool erase(const std::string& key) {
    std::lock_guard lock(mutex_);
    const auto it = objects_.find(key);
    if (it == objects_.end()) return false;
    liveBytes_ -= it->second->residentBytes;
    objects_.erase(it);
    if (blobCountGauge_) blobCountGauge_->add(-1);
    if (liveBytesGauge_) liveBytesGauge_->set(static_cast<int64_t>(liveBytes_));
    return true;
  }

  // Removes every blob whose key starts with `prefix` (the incremental
  // engine's per-run transient namespace); returns how many were erased.
  size_t erasePrefix(const std::string& prefix) {
    std::lock_guard lock(mutex_);
    size_t erased = 0;
    for (auto it = objects_.begin(); it != objects_.end();) {
      if (it->first.rfind(prefix, 0) == 0) {
        liveBytes_ -= it->second->residentBytes;
        it = objects_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    if (erased) {
      if (blobCountGauge_) blobCountGauge_->set(static_cast<int64_t>(objects_.size()));
      if (liveBytesGauge_) liveBytesGauge_->set(static_cast<int64_t>(liveBytes_));
    }
    return erased;
  }

  // Drops every blob. Cumulative read/write counters are preserved;
  // residency returns to zero.
  void clear() {
    std::lock_guard lock(mutex_);
    objects_.clear();
    liveBytes_ = 0;
    if (blobCountGauge_) blobCountGauge_->set(0);
    if (liveBytesGauge_) liveBytesGauge_->set(0);
  }

  size_t bytesWritten() const {
    std::lock_guard lock(mutex_);
    return bytesWritten_;
  }
  size_t bytesRead() const {
    std::lock_guard lock(mutex_);
    return bytesRead_;
  }
  size_t readCount() const {
    std::lock_guard lock(mutex_);
    return reads_;
  }
  // Residency: blobs currently held and their live bytes (not cumulative).
  size_t blobCount() const {
    std::lock_guard lock(mutex_);
    return objects_.size();
  }
  size_t liveBytes() const {
    std::lock_guard lock(mutex_);
    return liveBytes_;
  }

 private:
  struct Entry {
    std::shared_ptr<void> object;
    size_t bytes = 0;          // Transferred per read (and once written).
    size_t residentBytes = 0;  // Held while live: `bytes` plus derived state.
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> objects_;
  size_t bytesWritten_ = 0;
  size_t bytesRead_ = 0;
  size_t liveBytes_ = 0;
  size_t reads_ = 0;
  obs::Gauge* blobCountGauge_ = nullptr;
  obs::Gauge* liveBytesGauge_ = nullptr;
  obs::Counter* bytesReadCounter_ = nullptr;
  obs::Counter* bytesWrittenCounter_ = nullptr;
};

}  // namespace hoyan
