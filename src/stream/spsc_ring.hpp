// stream::SpscRing — the lock-free single-producer/single-consumer ring
// buffer under every stream::Session: the producer (a device thread, a UDP
// receiver, a CSV replayer) pushes timestamped samples without ever taking a
// lock or blocking, and the consumer (the SessionManager pump thread) peeks
// at in-place ranges and advances the read index only after a window is
// sealed — samples are not copied out per element, only once per sealed
// window (see session.hpp).
//
// Memory model: `head_` (next write slot) is written only by the producer,
// `tail_` (next read slot) only by the consumer. A push stores the slot
// first, then publishes it with a release store of head_; the consumer's
// acquire load of head_ therefore observes fully written slots (the standard
// SPSC publication pattern — TSan-verified by tests/test_stream.cpp). Both
// indices increase monotonically and are reduced mod capacity on access, so
// full/empty never ambiguate. Capacity is rounded up to a power of two.
//
// Consumes: one producer thread's push() stream. Produces: in-place
// peek(i)/pop(n) access for exactly one consumer thread. Any other
// concurrency is a contract violation, not a detected error.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace saga::stream {

template <typename T>
class SpscRing {
 public:
  /// Rounds `capacity` up to the next power of two (so index masking is one
  /// AND). Throws std::invalid_argument on zero.
  explicit SpscRing(std::size_t capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("SpscRing: capacity must be positive");
    }
    std::size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1U;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Producer side. Returns false (and writes nothing) when the ring is
  /// full — the caller counts the drop; it must never block.
  bool push(const T& value) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= slots_.size()) return false;
    slots_[static_cast<std::size_t>(head) & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Any thread: values accepted since construction. This is the head
  /// index, which each successful push() advances by exactly one and
  /// nothing else moves, so the count costs the producer nothing.
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Consumer side: number of samples available to peek right now.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_relaxed));
  }

  /// Consumer side: the i-th unconsumed sample (i < size()), in place — no
  /// copy. Valid until pop() advances past it.
  const T& peek(std::size_t i) const noexcept {
    return slots_[static_cast<std::size_t>(
                      tail_.load(std::memory_order_relaxed) + i) &
                  mask_];
  }

  /// Consumer side: releases the oldest `n` samples (n <= size()), freeing
  /// their slots for the producer.
  void pop(std::size_t n) noexcept {
    tail_.store(tail_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  // 64-bit monotonic indices never wrap in practice (2^64 samples at 1 MHz
  // is ~585k years), which keeps full/empty arithmetic overflow-free.
  std::atomic<std::uint64_t> head_{0};  // producer-owned
  std::atomic<std::uint64_t> tail_{0};  // consumer-owned
};

}  // namespace saga::stream
