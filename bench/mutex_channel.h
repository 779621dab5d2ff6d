// The mutex/condvar reference channel: the baseline host_perf measures the
// SPSC ring (src/util/spsc_ring.h) against, gating ring throughput at >= 5x
// this. It is a benchmark and test fixture, not a transport; no fabric
// uses it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace lcmpi::util {

/// A bounded deque where every operation takes the lock and signals:
/// the handoff style the SPSC ring replaces, with the same FIFO and
/// deadline contract as SpscChannel's push_until/pop_until.
template <typename T>
class MutexChannel {
 public:
  explicit MutexChannel(std::size_t capacity) : capacity_(capacity) {}

  bool push_until(T& v, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_space_.wait_until(lock, deadline, [this] { return q_.size() < capacity_; }))
      return false;
    q_.push_back(std::move(v));
    cv_data_.notify_one();
    return true;
  }

  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_data_.wait_until(lock, deadline, [this] { return !q_.empty(); }))
      return std::nullopt;
    std::optional<T> v(std::move(q_.front()));
    q_.pop_front();
    cv_space_.notify_one();
    return v;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_data_;
  std::condition_variable cv_space_;
  std::deque<T> q_;
  std::size_t capacity_;
};

}  // namespace lcmpi::util
