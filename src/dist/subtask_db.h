// Subtask status database (§3.2): each subtask's status, attempts and
// runtime land here as it settles on the job executor (job_runner.h), which
// re-queues failures. Route subtasks also record the IP range their results
// cover, which traffic subtasks consult to prune dependencies (the ordering
// heuristic).
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip.h"

namespace hoyan {

enum class SubtaskStatus { kPending, kRunning, kSucceeded, kFailed };

struct SubtaskRecord {
  std::string id;
  std::string inputKey;
  std::string resultKey;
  SubtaskStatus status = SubtaskStatus::kPending;
  int attempts = 0;
  double runtimeSeconds = 0;
  // Coverage of a route subtask's results, recorded so traffic subtasks can
  // skip non-overlapping result files.
  std::optional<IpRange> coverage;
  // Result served from the incremental engine's content-addressed cache
  // (never queued to a worker; attempts stays 0).
  bool fromCache = false;
};

class SubtaskDb {
 public:
  void upsert(SubtaskRecord record) {
    std::lock_guard lock(mutex_);
    records_[record.id] = std::move(record);
  }

  template <typename Mutator>
  void update(const std::string& id, Mutator&& mutate) {
    std::lock_guard lock(mutex_);
    const auto it = records_.find(id);
    if (it != records_.end()) mutate(it->second);
  }

  std::optional<SubtaskRecord> get(const std::string& id) const {
    std::lock_guard lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) return std::nullopt;
    return it->second;
  }

  std::vector<SubtaskRecord> all() const {
    std::lock_guard lock(mutex_);
    std::vector<SubtaskRecord> out;
    out.reserve(records_.size());
    for (const auto& [id, record] : records_) out.push_back(record);
    return out;
  }

  size_t countWithStatus(SubtaskStatus status) const {
    std::lock_guard lock(mutex_);
    size_t n = 0;
    for (const auto& [id, record] : records_)
      if (record.status == status) ++n;
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, SubtaskRecord> records_;
};

}  // namespace hoyan
