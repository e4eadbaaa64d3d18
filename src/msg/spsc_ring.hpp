// Lock-free single-producer/single-consumer ring buffer.
//
// The reactor's hot handoff (docs/TRANSPORT.md): the io thread and each
// worker lane communicate over exactly two of these rings — one carrying
// decoded frames in, one carrying completions back — so every ring has one
// writer thread and one reader thread by construction and no operation ever
// takes a lock or issues a read-modify-write.
//
// Classic sequence-counter discipline: `tail_` counts items ever pushed,
// `head_` counts items ever popped, both monotonically; `tail_ - head_` is
// the occupancy and `counter & mask` the slot.  The producer publishes a
// slot with a release store of tail_, the consumer acquires it by loading
// tail_; each side caches the other's counter and refreshes only when the
// cached value says the ring looks full/empty, so the steady-state cost is
// one relaxed load + one release store per operation with no cache-line
// ping-pong (head_ and tail_ live on separate lines).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hdsm::msg {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side.  False when the ring is full (the item is untouched).
  bool push(T&& v) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ > mask_) return false;
    }
    slots_[t & mask_] = std::move(v);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Producer side: would a push succeed right now?  Used by the io thread
  /// to check for a free slot *before* pulling a frame off an endpoint, so
  /// a full ring never strands a decoded message outside any queue.
  bool can_push() {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ <= mask_) return true;
    head_cache_ = head_.load(std::memory_order_acquire);
    return t - head_cache_ <= mask_;
  }

  /// Consumer side.  False when the ring is empty.
  bool pop(T& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return false;
    }
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Either side (approximate under concurrency, exact when quiescent).
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-owned
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer-owned
  alignas(64) std::uint64_t head_cache_ = 0;        // producer's view of head_
  alignas(64) std::uint64_t tail_cache_ = 0;        // consumer's view of tail_
};

}  // namespace hdsm::msg
