// Thread-safe message queue — the MQ of the distributed framework (§3.2).
// The master pushes one message per subtask; each working server pops,
// executes, and (on failure) the master re-pushes for retry.
//
// Optionally instrumented (`bindTelemetry`): a depth gauge tracks the live
// queue length (and its high-watermark), and a histogram records each
// message's queue wait time (enqueue -> dequeue).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "obs/metrics.h"

namespace hoyan {

template <typename T>
class MessageQueue {
 public:
  // Both pointers optional and must outlive the queue.
  void bindTelemetry(obs::Gauge* depth, obs::Histogram* waitSeconds) {
    std::lock_guard lock(mutex_);
    depth_ = depth;
    waitSeconds_ = waitSeconds;
    if (depth_) depth_->set(static_cast<int64_t>(queue_.size()));
  }

  void push(T message) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(Item{std::move(message), Clock::now()});
      if (depth_) depth_->add(1);
    }
    available_.notify_one();
  }

  // Blocks until a message is available or the queue is closed. Returns
  // nullopt when closed and drained.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    available_.wait(lock, [this] { return !queue_.empty() || closed_; });
    return popLocked();
  }

  std::optional<T> tryPop() {
    std::lock_guard lock(mutex_);
    return popLocked();
  }

  // Wakes all blocked consumers; subsequent pops drain then return nullopt.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    available_.notify_all();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    T message;
    Clock::time_point enqueued;
  };

  std::optional<T> popLocked() {
    if (queue_.empty()) return std::nullopt;
    Item item = std::move(queue_.front());
    queue_.pop_front();
    if (depth_) depth_->add(-1);
    if (waitSeconds_)
      waitSeconds_->observe(
          std::chrono::duration<double>(Clock::now() - item.enqueued).count());
    return std::move(item.message);
  }

  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<Item> queue_;
  bool closed_ = false;
  obs::Gauge* depth_ = nullptr;
  obs::Histogram* waitSeconds_ = nullptr;
};

}  // namespace hoyan
