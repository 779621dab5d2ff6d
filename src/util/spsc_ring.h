// Bounded lock-free single-producer/single-consumer ring buffer — the
// message path of the real-threads shared-memory fabric (one ring per
// directed rank pair, made on the pair's first send;
// src/fabric/shm_fabric.h).
//
// The fast path is the classic Lamport queue hardened for modern memory
// models: head and tail are monotonically increasing counters published
// with release stores and read with acquire loads, slot selection masks
// them against a power-of-two capacity, and each side keeps a *cached*
// copy of the opposite index so an uncontended push/pop touches only its
// own cache line plus the slot (the shared index is re-read only when the
// cached value says full/empty). No CAS, no fences, no syscalls.
//
// Blocking is deliberately layered *outside* the ring: ParkingLot is a
// mutex/condvar pad with an atomic "parked" flag, and SpscChannel composes
// ring + two pads into blocking push/pop with deadlines. Publishers run
// a store-buffer-safe handshake (seq_cst fence between publishing and
// reading the flag; the parker fences between raising the flag and
// re-checking the ring), and parks are additionally time-bounded, so a
// lost wakeup can delay a waiter but never deadlock it. The fabric uses
// the same pads with one consumer pad shared across all of an endpoint's
// inbound rings ("anything arrived for me"), which is why the channel's
// consumer pad is pluggable. The mutex/condvar baseline the benchmarks
// compare the ring against is bench/mutex_channel.h.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace lcmpi::util {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (>= 2) so slot selection is
  /// a mask, not a modulo.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Producer side only. False if the ring is full.
  bool try_push(T&& v) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side only. Empty if no message is available.
  std::optional<T> try_pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> v(std::move(slots_[head & mask_]));
    slots_[head & mask_] = T{};  // drop payload-owning state eagerly
    head_.store(head + 1, std::memory_order_release);
    return v;
  }

  /// Racy by nature (either side may be mid-publish); exact when the
  /// caller is the only active side.
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }
  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }
  [[nodiscard]] bool full_approx() const { return size_approx() > mask_; }

 private:
  // Producer-owned line: tail plus its cached view of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: head plus its cached view of tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
  alignas(64) std::vector<T> slots_;
  std::size_t mask_ = 0;
};

/// Mutex/condvar parking pad for one side of a lock-free structure.
///
/// Contract: the waiter calls park_until(deadline, ready) where `ready`
/// reads only atomics; the other side publishes its change (release/acq on
/// the ring indices), then calls unpark(). The seq_cst fences on both
/// sides close the store-buffer window (publisher's flag load reordered
/// before its publish × parker's re-check reordered before its flag
/// store); the bounded wait below is insurance, not the mechanism.
///
/// parked_ is a COUNTER, not a flag, so a pad stays correct with any
/// number of waiters: a flag one waiter clears on its way out would hide
/// the others from unpark(). The fabric parks one thread per pad (a
/// ring's producer, or an endpoint's owner on its shared consumer pad),
/// and the counter costs no more than a flag there.
class ParkingLot {
 public:
  /// Blocks until ready() or the deadline. Returns ready()'s final value.
  template <typename Pred>
  bool park_until(std::chrono::steady_clock::time_point deadline, Pred&& ready) {
    for (;;) {
      if (ready()) return true;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return ready();
      std::unique_lock<std::mutex> lock(mu_);
      parked_.fetch_add(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (ready()) {
        parked_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      cv_.wait_until(lock, std::min(deadline, now + kParkBound));
      parked_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Publisher side: call *after* the release-store that made ready() true.
  void unpark() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }

 private:
  // Upper bound on any single sleep: caps the cost of the (fenced-away)
  // lost-wakeup race and of waiters whose predicate involves state the
  // publisher does not know to unpark for.
  static constexpr std::chrono::milliseconds kParkBound{2};

  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<int> parked_{0};
};

/// SpscRing + parking: blocking push/pop with deadlines. The consumer pad
/// may be external and shared across several channels (one endpoint
/// parking on all its inbound rings at once).
template <typename T>
class SpscChannel {
 public:
  explicit SpscChannel(std::size_t min_capacity) : ring_(min_capacity) {}

  /// All of this channel's "data available" unparks go to `pad` instead of
  /// the internal consumer pad. Call before any traffic.
  void share_consumer_pad(ParkingLot* pad) { consumer_pad_ = pad; }

  bool try_push(T&& v) {
    if (!ring_.try_push(std::move(v))) return false;
    consumer_pad_->unpark();
    return true;
  }

  std::optional<T> try_pop() {
    std::optional<T> v = ring_.try_pop();
    if (v) producer_pad_.unpark();
    return v;
  }

  /// Blocks while the ring is full. False if the deadline passed first (v
  /// is then untouched and still owned by the caller).
  bool push_until(T& v, std::chrono::steady_clock::time_point deadline) {
    if (try_push(std::move(v))) return true;
    // Only this thread pushes (SPSC), so space observed by the predicate
    // cannot be taken by anyone else before the retry.
    for (;;) {
      if (!producer_pad_.park_until(deadline, [this] { return !ring_.full_approx(); }))
        return false;
      if (try_push(std::move(v))) return true;
    }
  }

  /// Blocks while the ring is empty; nullopt if the deadline passed first.
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline) {
    for (;;) {
      if (std::optional<T> v = try_pop()) return v;
      if (!consumer_pad_->park_until(deadline, [this] { return !ring_.empty_approx(); }))
        return try_pop();
    }
  }

  [[nodiscard]] SpscRing<T>& ring() { return ring_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::size_t size_approx() const { return ring_.size_approx(); }

 private:
  SpscRing<T> ring_;
  ParkingLot producer_pad_;
  ParkingLot own_consumer_pad_;
  ParkingLot* consumer_pad_ = &own_consumer_pad_;
};

}  // namespace lcmpi::util
