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
// The producer keeps a plain copy of the last tail_ it loaded, and reloads
// tail_ (acquire, pairing with pop's release) only when that copy says the
// ring is full. A stale tail only under-counts free slots, so it can never
// let a push overwrite a slot the consumer still reads.
//
// Consumes: one producer thread's push() stream. Produces: in-place
// peek(i, n)/pop(n) access for exactly one consumer thread. Any other
// concurrency is a contract violation, not a detected error.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace saga::stream {

/// A consumer-side view of ring values [i, i + n), in place: `first` runs up
/// to the end of the slot array, `second` holds the part that wrapped to its
/// start (empty unless the range wraps).
template <typename T>
struct RingSpans {
  std::span<const T> first;
  std::span<const T> second;

  /// Value j of the range (j < first.size() + second.size()).
  const T& operator[](std::size_t j) const noexcept {
    return j < first.size() ? first[j] : second[j - first.size()];
  }

  /// Values [j, j + n) of the range, again as two spans (j + n must not
  /// pass the range's end).
  RingSpans subspan(std::size_t j, std::size_t n) const noexcept {
    if (j >= first.size()) return {second.subspan(j - first.size(), n), {}};
    const std::size_t head = std::min(n, first.size() - j);
    return {first.subspan(j, head), second.first(n - head)};
  }
};

template <typename T>
class SpscRing {
 public:
  /// Rounds `capacity` up to the next power of two (so index masking is one
  /// AND). Throws std::invalid_argument, before allocating, on zero or on a
  /// capacity past the largest power of two the slot vector can hold.
  explicit SpscRing(std::size_t capacity) {
    if (capacity == 0 || capacity > std::bit_floor(slots_.max_size())) {
      throw std::invalid_argument(
          "SpscRing: capacity must be positive and fit a power-of-two slot "
          "vector");
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
    if (head - producer_tail_ > mask_) {
      producer_tail_ = tail_.load(std::memory_order_acquire);
      if (head - producer_tail_ > mask_) return false;
    }
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

  /// Consumer side: unconsumed values [i, i + n) (i + n <= size()), in
  /// place — no copy — as at most two contiguous spans. Valid until pop()
  /// advances past them.
  RingSpans<T> peek(std::size_t i, std::size_t n) const noexcept {
    const std::size_t start =
        static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) + i) &
        mask_;
    const std::size_t first = std::min(n, slots_.size() - start);
    return {{slots_.data() + start, first}, {slots_.data(), n - first}};
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
  std::uint64_t producer_tail_ = 0;  // producer-only: tail_ at last reload
};

}  // namespace saga::stream
