// stream::SpscRing — the lock-free single-producer/single-consumer ring
// buffer under every stream::Session: the producer (a device thread, a UDP
// receiver, a CSV replayer) pushes timestamped 6-axis samples without ever
// taking a lock or blocking, and the consumer (the SessionManager pump
// thread) peeks at in-place ranges and advances the read index only after a
// window is sealed — samples are not copied out per element, only once per
// sealed window (see session.hpp).
//
// Layout: slot j's sample is stored as two columns, its timestamp at ts_[j]
// and its kStreamChannels values at values_[j × kStreamChannels, ...), so a
// consumer scans timestamps densely and copies a range of rows as one flat
// float range (at most two, when it wraps). A slot is 32 bytes either way.
//
// Memory model: `head_` (next write slot) is written only by the producer,
// `tail_` (next read slot) only by the consumer. A push stores the slot's
// timestamp and values first, then publishes both with a release store of
// head_; the consumer's acquire load of head_ therefore observes fully
// written slots (the standard SPSC publication pattern — TSan-verified by
// tests/test_stream.cpp). Both indices increase monotonically and are
// reduced mod capacity on access, so full/empty never ambiguate. Capacity is
// rounded up to a power of two.
//
// The producer keeps a plain copy of the last tail_ it loaded, and reloads
// tail_ (acquire, pairing with pop's release) only when that copy says the
// ring is full. A stale tail only under-counts free slots, so it can never
// let a push overwrite a slot the consumer still reads.
//
// Ordering: push accepts only a timestamp above the last one it accepted,
// so the ring always holds strictly increasing timestamps. That timestamp
// is still in slot head_ − 1, even once consumed: only the producer writes
// slots, and that one is not reused before head_ moves on, so the check
// reads it without synchronisation and keeps no copy of its own.
//
// Consumes: one producer thread's push() stream. Produces: in-place
// peek(i, n)/pop(n) access for exactly one consumer thread. Any other
// concurrency is a contract violation, not a detected error.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace saga::stream {

/// Fixed 6-axis channel layout (acc xyz + gyro xyz), matching the
/// Action_Detector-style `ts_us,ax,ay,az,gx,gy,gz` capture format and the
/// paper's 6-channel datasets.
inline constexpr std::int64_t kStreamChannels = 6;

/// A consumer-side view of ring values [i, i + n), in place: `first` runs up
/// to the end of the column, `second` holds the part that wrapped to its
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

/// Slots [i, i + n) of a ring, in place, one view per column: slot j's
/// timestamp is `ts[j]` and its row is `values` [j × kStreamChannels,
/// (j + 1) × kStreamChannels) — a value range is counted in floats, and
/// both views wrap at the same slot.
struct RingSlots {
  RingSpans<std::int64_t> ts;
  RingSpans<float> values;
};

class SpscRing {
 public:
  /// The largest ring: 2^25 slots, whose two columns (8 + 24 bytes a slot)
  /// take 1 GiB.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 25;

  /// Why push() rejected a sample, or that it did not.
  enum class Push { kAccepted, kOutOfOrder, kFull };

  /// Rounds `capacity` up to the next power of two (so index masking is one
  /// AND). Throws std::invalid_argument, before allocating, on zero or on a
  /// capacity above kMaxCapacity.
  explicit SpscRing(std::size_t capacity) {
    if (capacity == 0 || capacity > kMaxCapacity) {
      throw std::invalid_argument(
          "SpscRing: capacity must be in [1, 2^25] slots (1 GiB of columns)");
    }
    std::size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1U;
    ts_.resize(rounded);
    values_.resize(rounded * static_cast<std::size_t>(kStreamChannels));
    mask_ = rounded - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const noexcept { return ts_.size(); }

  /// Producer side: appends one slot, or writes nothing and says why — a
  /// timestamp not above the newest one pushed (checked first; the first
  /// push takes any), or a full ring. Never blocks; the caller counts a
  /// rejection.
  Push push(std::int64_t ts_us, const float* values) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head != 0 && ts_us <= ts_[static_cast<std::size_t>(head - 1) & mask_]) {
      return Push::kOutOfOrder;
    }
    if (head - producer_tail_ > mask_) {
      producer_tail_ = tail_.load(std::memory_order_acquire);
      if (head - producer_tail_ > mask_) return Push::kFull;
    }
    const std::size_t slot = static_cast<std::size_t>(head) & mask_;
    ts_[slot] = ts_us;
    std::memcpy(values_.data() + slot * kStreamChannels, values,
                sizeof(float) * kStreamChannels);
    head_.store(head + 1, std::memory_order_release);
    return Push::kAccepted;
  }

  /// Any thread: slots accepted since construction. This is the head
  /// index, which each accepted push() advances by exactly one and nothing
  /// else moves, so the count costs the producer nothing.
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Consumer side: number of slots available to peek right now.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(head_.load(std::memory_order_acquire) -
                                    tail_.load(std::memory_order_relaxed));
  }

  /// Consumer side: unconsumed slots [i, i + n) (i + n <= size()), in
  /// place — no copy. Valid until pop() advances past them.
  RingSlots peek(std::size_t i, std::size_t n) const noexcept {
    constexpr auto kRow = static_cast<std::size_t>(kStreamChannels);
    const std::size_t start =
        static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) + i) &
        mask_;
    const std::size_t first = std::min(n, capacity() - start);
    return {{{ts_.data() + start, first}, {ts_.data(), n - first}},
            {{values_.data() + start * kRow, first * kRow},
             {values_.data(), (n - first) * kRow}}};
  }

  /// Consumer side: releases the oldest `n` slots (n <= size()), freeing
  /// them for the producer.
  void pop(std::size_t n) noexcept {
    tail_.store(tail_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

 private:
  std::vector<std::int64_t> ts_;
  std::vector<float> values_;
  std::size_t mask_ = 0;
  // 64-bit monotonic indices never wrap in practice (2^64 samples at 1 MHz
  // is ~585k years), which keeps full/empty arithmetic overflow-free.
  std::atomic<std::uint64_t> head_{0};  // producer-owned
  std::atomic<std::uint64_t> tail_{0};  // consumer-owned
  std::uint64_t producer_tail_ = 0;  // producer-only: tail_ at last reload
};

}  // namespace saga::stream
