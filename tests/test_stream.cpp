// saga::stream tests: SPSC ring correctness under a real producer/consumer
// thread pair (run under TSan by scripts/check.sh --tsan), hop-window
// assembly bit-identical to offline slicing, ts-gap / drop / out-of-order
// accounting, the Composer's gating + hysteresis + composition FSM, the CSV
// fixtures and parser, and an end-to-end CSV-replay -> Engine -> Composer
// run that must be deterministic across two replays.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "serve/artifact.hpp"
#include "serve/engine.hpp"
#include "stream/composer.hpp"
#include "stream/manager.hpp"
#include "stream/replay.hpp"
#include "stream/session.hpp"
#include "stream/spsc_ring.hpp"

namespace saga::stream {
namespace {

// ---- SPSC ring ----------------------------------------------------------

/// The row a ring test pushes with timestamp `ts`: every value derives from
/// the timestamp, so a row read beside the wrong timestamp shows.
std::array<float, kStreamChannels> ring_row(std::int64_t ts) {
  std::array<float, kStreamChannels> row{};
  for (std::size_t c = 0; c < row.size(); ++c) {
    row[c] = static_cast<float>(ts * 8 + static_cast<std::int64_t>(c));
  }
  return row;
}

/// Whether slot j of `slots` holds timestamp `ts` and ring_row(ts).
bool slot_holds(const RingSlots& slots, std::size_t j, std::int64_t ts) {
  const auto row = ring_row(ts);
  bool same = slots.ts[j] == ts;
  for (std::size_t c = 0; c < row.size(); ++c) {
    same = same && slots.values[j * row.size() + c] == row[c];
  }
  return same;
}

TEST(SpscRing, SingleThreadPushPeekPop) {
  using Push = SpscRing::Push;
  SpscRing ring(5);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8U);
  EXPECT_EQ(ring.size(), 0U);
  for (std::int64_t t = 0; t < 8; ++t) {
    EXPECT_EQ(ring.push(t, ring_row(t).data()), Push::kAccepted);
  }
  // Full: rejected, not overwritten. A timestamp not above the newest one
  // is out of order first, full or not.
  EXPECT_EQ(ring.push(99, ring_row(99).data()), Push::kFull);
  EXPECT_EQ(ring.push(7, ring_row(7).data()), Push::kOutOfOrder);
  EXPECT_EQ(ring.size(), 8U);
  EXPECT_EQ(ring.pushed(), 8U);
  const RingSlots all = ring.peek(0, 8);
  EXPECT_EQ(all.ts.first.size(), 8U);  // nothing wrapped yet
  EXPECT_TRUE(all.ts.second.empty());
  EXPECT_EQ(all.values.first.size(), 8U * 6U);  // counted in floats
  EXPECT_TRUE(all.values.second.empty());
  EXPECT_TRUE(slot_holds(all, 0, 0));
  EXPECT_TRUE(slot_holds(all, 7, 7));
  ring.pop(3);
  EXPECT_EQ(ring.size(), 5U);
  EXPECT_TRUE(slot_holds(ring.peek(0, 1), 0, 3));  // pop advances the read side
  // Freed slots are reusable (wraparound); the out-of-order check still
  // reads the newest timestamp, now in the last slot.
  EXPECT_EQ(ring.push(7, ring_row(7).data()), Push::kOutOfOrder);
  EXPECT_EQ(ring.push(8, ring_row(8).data()), Push::kAccepted);
  // [0, 6) now runs from slot 3 to the end and wraps to slot 0, in both
  // columns at the same slot.
  const RingSlots wrapped = ring.peek(0, 6);
  ASSERT_EQ(wrapped.ts.first.size(), 5U);
  ASSERT_EQ(wrapped.ts.second.size(), 1U);
  ASSERT_EQ(wrapped.values.first.size(), 5U * 6U);
  ASSERT_EQ(wrapped.values.second.size(), 1U * 6U);
  EXPECT_EQ(wrapped.ts.first.front(), 3);
  EXPECT_EQ(wrapped.ts.second.front(), 8);
  EXPECT_EQ(wrapped.values.second.front(), ring_row(8)[0]);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_TRUE(slot_holds(wrapped, j, static_cast<std::int64_t>(j) + 3))
        << "slot " << j;
  }
  // A sub-range inside the second span, and one straddling the wrap.
  EXPECT_EQ(ring.peek(5, 1).ts.first.front(), 8);
  EXPECT_TRUE(ring.peek(5, 1).ts.second.empty());
  EXPECT_TRUE(ring.peek(5, 1).values.second.empty());
  const RingSpans<std::int64_t> straddle = wrapped.ts.subspan(3, 3);
  ASSERT_EQ(straddle.first.size(), 2U);
  ASSERT_EQ(straddle.second.size(), 1U);
  EXPECT_EQ(straddle[0], 6);
  EXPECT_EQ(straddle[2], 8);
  EXPECT_EQ(wrapped.ts.subspan(5, 1)[0], 8);
  // The same rows as floats: slots 3..5 of the range are floats 18..35.
  const RingSpans<float> rows = wrapped.values.subspan(3 * 6, 3 * 6);
  ASSERT_EQ(rows.first.size(), 2U * 6U);
  ASSERT_EQ(rows.second.size(), 1U * 6U);
  EXPECT_EQ(rows[0], ring_row(6)[0]);
  EXPECT_EQ(rows[17], ring_row(8)[5]);
  EXPECT_THROW(SpscRing(0), std::invalid_argument);
  EXPECT_THROW(SpscRing(SpscRing::kMaxCapacity + 1), std::invalid_argument);
  EXPECT_THROW(SpscRing(std::size_t{1} << 62), std::invalid_argument);
}

TEST(SpscRing, ProducerConsumerThreadsDeliverInOrder) {
  // The memory-model test: one real producer thread racing one real
  // consumer thread through a small ring. Every slot must arrive exactly
  // once, in order, with its row intact — each of its six values derives
  // from its timestamp, so a row published apart from its timestamp fails —
  // and TSan must see no race (this test is in the scripts/check.sh --tsan
  // suite for that reason).
  constexpr std::int64_t kCount = 100000;
  SpscRing ring(64);
  std::atomic<std::int64_t> produced{0};

  std::thread producer([&] {
    for (std::int64_t t = 0; t < kCount; ++t) {
      const auto row = ring_row(t);
      while (ring.push(t, row.data()) != SpscRing::Push::kAccepted) {
        // Full: yield and retry. A real producer would drop; the test must
        // not, so every slot's arrival can be asserted. (yield, not spin:
        // on a single-core host a raw spin burns whole scheduler quanta.)
        std::this_thread::yield();
      }
      produced.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::int64_t expected = 0;
  std::uint64_t mismatches = 0;
  while (expected < kCount) {
    const std::size_t available = ring.size();
    if (available == 0) {
      std::this_thread::yield();
      continue;
    }
    const RingSlots slots = ring.peek(0, available);
    for (std::size_t j = 0; j < available; ++j) {
      if (!slot_holds(slots, j, expected + static_cast<std::int64_t>(j))) {
        ++mismatches;
      }
    }
    ring.pop(available);
    expected += static_cast<std::int64_t>(available);
  }
  producer.join();

  EXPECT_EQ(mismatches, 0U);
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(produced.load(), kCount);
  EXPECT_EQ(ring.size(), 0U);
}

// ---- Session windowing --------------------------------------------------

/// A session cutting 8-sample model windows (hop 4) from a 100 Hz stream
/// targeted at 20 Hz: factor 5, raw window 40, raw hop 20.
SessionConfig small_config() {
  SessionConfig config;
  config.window_length = 8;
  config.hop = 4;
  config.source_rate_hz = 100.0;
  config.target_hz = 20.0;
  return config;
}

Sample make_sample(std::int64_t index, std::int64_t period_us = 10000) {
  Sample sample;
  sample.ts_us = index * period_us;
  for (std::size_t c = 0; c < static_cast<std::size_t>(kStreamChannels); ++c) {
    sample.v[c] =
        static_cast<float>(index) + 0.125F * static_cast<float>(c + 1);
  }
  return sample;
}

/// Window starts by the closed form: a gap-free run of `length` samples from
/// sample `first` seals floor((length - window) / hop) + 1 windows (none if
/// it is shorter than a window), starting at first, first + hop, ...
std::vector<std::int64_t> closed_form_starts(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& runs,
    std::int64_t window, std::int64_t hop) {
  std::vector<std::int64_t> starts;
  for (const auto& [first, length] : runs) {
    if (length < window) continue;
    for (std::int64_t k = 0; k < (length - window) / hop + 1; ++k) {
      starts.push_back(first + hop * k);
    }
  }
  return starts;
}

/// Expects `windows` to be the 40-sample raw windows of `stream` (the
/// accepted samples, in push order) that start at `starts`: in order, bit
/// for bit, with their seq and first and last timestamps.
void expect_windows_at(const std::vector<SealedWindow>& windows,
                       const std::vector<std::int64_t>& starts,
                       const std::vector<Sample>& stream) {
  ASSERT_EQ(windows.size(), starts.size());
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const SealedWindow& w = windows[k];
    const auto start = static_cast<std::size_t>(starts[k]);
    EXPECT_EQ(w.seq, k);
    EXPECT_EQ(w.start_ts_us, stream[start].ts_us);
    EXPECT_EQ(w.end_ts_us, stream[start + 39].ts_us);
    ASSERT_EQ(w.raw.size(), 40U * 6U);
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_EQ(std::memcmp(w.raw.data() + i * 6, stream[start + i].v.data(),
                            sizeof(Sample::v)),
                0)
          << "window " << k << " starting at sample " << start << ", row "
          << i;
    }
  }
}

TEST(Session, HopWindowsAreBitIdenticalToOfflineSlicing) {
  SessionConfig config = small_config();
  config.ring_capacity = 512;  // hold all 260 samples without a poll
  Session session("u1", config);
  EXPECT_EQ(session.factor(), 5);
  EXPECT_EQ(session.raw_window(), 40);
  EXPECT_EQ(session.raw_hop(), 20);

  constexpr std::int64_t kTotal = 260;
  std::vector<float> offline;  // the whole stream as one flat recording
  for (std::int64_t i = 0; i < kTotal; ++i) {
    const Sample sample = make_sample(i);
    EXPECT_TRUE(session.push(sample));
    offline.insert(offline.end(), sample.v.begin(), sample.v.end());
  }

  const std::vector<SealedWindow> windows = session.poll();
  // floor((260 - 40) / 20) + 1 = 12 overlapping windows.
  ASSERT_EQ(windows.size(), 12U);
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const SealedWindow& w = windows[k];
    EXPECT_EQ(w.seq, k);
    const std::int64_t start = static_cast<std::int64_t>(k) * 20;
    EXPECT_EQ(w.start_ts_us, start * 10000);
    EXPECT_EQ(w.end_ts_us, (start + 39) * 10000);
    ASSERT_EQ(w.raw.size(), 40U * 6U);
    for (std::size_t i = 0; i < w.raw.size(); ++i) {
      // Bit-identical to the offline slice: the in-ring windowing (and the
      // overlap kept in the ring between seals) must not perturb a value.
      ASSERT_EQ(w.raw[i], offline[static_cast<std::size_t>(start) * 6 + i])
          << "window " << k << " value " << i;
    }
  }
  EXPECT_EQ(session.stats().windows_sealed, 12U);
  EXPECT_EQ(session.stats().samples_accepted,
            static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(session.poll().size(), 0U);  // nothing new: nothing sealed
  // 12 hops consumed 240 samples; the assembling tail stays buffered.
  EXPECT_EQ(session.buffered(), 20U);
}

TEST(Session, WindowsAndGapsAcrossTheRingWrapAreBitIdentical) {
  // A 64-slot ring under a 40-sample raw window (hop 20), fed 7 samples at a
  // time with a poll after each, so the read index laps the ring: window k
  // starting at sample s occupies slots s % 64 .. and wraps when
  // s % 64 > 24, and the 1 s timestamp gap sits between sample 127 (slot
  // 63) and sample 128 (slot 0), the first value of a poll's second span.
  SessionConfig config = small_config();
  config.ring_capacity = 64;
  Session session("u1", config);
  ASSERT_EQ(session.raw_window(), 40);
  ASSERT_EQ(session.raw_hop(), 20);

  constexpr std::int64_t kTotal = 300;
  constexpr std::int64_t kGapAt = 128;
  constexpr std::int64_t kChunk = 7;
  std::vector<Sample> stream;
  std::vector<SealedWindow> windows;
  for (std::int64_t i = 0; i < kTotal; ++i) {
    Sample sample = make_sample(i);
    if (i >= kGapAt) sample.ts_us += 1'000'000;
    // A poll leaves under one raw window buffered, so 7 more always fit.
    ASSERT_TRUE(session.push(sample)) << "sample " << i;
    stream.push_back(sample);
    if (i % kChunk == kChunk - 1 || i == kTotal - 1) {
      for (SealedWindow& w : session.poll()) windows.push_back(std::move(w));
    }
  }

  const std::vector<std::int64_t> starts =
      closed_form_starts({{0, kGapAt}, {kGapAt, kTotal - kGapAt}}, 40, 20);
  ASSERT_EQ(starts.size(), 12U);  // 5 before the gap, 7 after
  expect_windows_at(windows, starts, stream);
  std::size_t wrapped = 0;
  for (const std::int64_t start : starts) wrapped += start % 64 > 24 ? 1 : 0;
  EXPECT_EQ(wrapped, 6U);  // starts 40, 60, 168, 188, 228 and 248
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.gaps, 1U);
  EXPECT_EQ(stats.windows_sealed, starts.size());
  EXPECT_EQ(stats.samples_accepted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.samples_dropped, 0U);
}

TEST(Session, GapAtEachOffsetOfTheBlockScanIsFound) {
  // The gap scan compares eight timestamps per step and walks one sample at
  // a time only through a block that holds a gap. Tumbling 40-sample raw
  // windows in a 64-slot ring: once the first window seals, the next starts
  // at slot 40, and a 1 s gap before its sample g (g = 1..24) takes every
  // position of the first three 8-sample blocks of the next poll's scan —
  // g = 8 and 16 are a block's first sample, compared with the previous
  // block's last; g = 7, 15 and 23 its last — and g = 24 sits in slot 0,
  // the first timestamp of the snapshot's second span.
  for (std::int64_t g = 1; g <= 24; ++g) {
    SCOPED_TRACE(g);
    SessionConfig config = small_config();
    config.hop = config.window_length;  // raw hop 40
    config.ring_capacity = 64;
    Session session("u1", config);
    std::vector<Sample> stream;
    std::vector<SealedWindow> windows;
    // A poll after samples 40 (the first window), 100 (the 60 that hold the
    // gap), 120 and 140; the ring never holds more than 60.
    for (const std::size_t end : {40U, 100U, 120U, 140U}) {
      while (stream.size() < end) {
        const auto i = static_cast<std::int64_t>(stream.size());
        Sample sample = make_sample(i);
        if (i >= 40 + g) sample.ts_us += 1'000'000;
        ASSERT_TRUE(session.push(sample)) << "sample " << i;
        stream.push_back(sample);
      }
      for (SealedWindow& w : session.poll()) windows.push_back(std::move(w));
    }
    const std::vector<std::int64_t> starts =
        closed_form_starts({{0, 40 + g}, {40 + g, 100 - g}}, 40, 40);
    ASSERT_EQ(starts.size(), g <= 20 ? 3U : 2U);
    expect_windows_at(windows, starts, stream);
    const SessionStats stats = session.stats();
    EXPECT_EQ(stats.gaps, 1U);
    EXPECT_EQ(stats.windows_sealed, starts.size());
  }
}

TEST(Session, TumblingWindowsWhenHopEqualsLength) {
  SessionConfig config = small_config();
  config.hop = config.window_length;
  Session session("u1", config);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(session.push(make_sample(i)));
  }
  const auto windows = session.poll();
  ASSERT_EQ(windows.size(), 2U);  // 100 / 40, no overlap
  EXPECT_EQ(windows[1].start_ts_us, 40 * 10000);
}

TEST(Session, TimestampGapDiscardsPartialWindow) {
  Session session("u1", small_config());
  // 30 samples, then a 1-second outage, then 40 more: the 30 pre-gap
  // samples can never join a window with the post-gap ones.
  for (std::int64_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(session.push(make_sample(i)));
  }
  for (std::int64_t i = 0; i < 40; ++i) {
    Sample sample = make_sample(100 + i);
    sample.ts_us = 1'300'000 + i * 10000;
    EXPECT_TRUE(session.push(sample));
  }
  const auto windows = session.poll();
  ASSERT_EQ(windows.size(), 1U);
  EXPECT_EQ(windows[0].start_ts_us, 1'300'000);  // post-gap assembly restart
  EXPECT_EQ(windows[0].raw[0], make_sample(100).v[0]);
  EXPECT_EQ(session.stats().gaps, 1U);
  EXPECT_EQ(session.stats().windows_sealed, 1U);
}

TEST(Session, GapWithinToleranceDoesNotReset) {
  // A 2-sample dropout (20 ms jump -> exactly 2x the period) stays under
  // the 2.5x default tolerance: window assembly continues across it.
  Session session("u1", small_config());
  std::int64_t ts = 0;
  for (std::int64_t i = 0; i < 50; ++i) {
    Sample sample = make_sample(i);
    ts += (i == 25) ? 20000 : 10000;
    sample.ts_us = ts;
    EXPECT_TRUE(session.push(sample));
  }
  EXPECT_EQ(session.poll().size(), 1U);
  EXPECT_EQ(session.stats().gaps, 0U);
}

TEST(Session, OutOfOrderTimestampsAreRejectedAtPush) {
  Session session("u1", small_config());
  std::int64_t pushed = 0;
  for (std::int64_t i = 0; i < 50; ++i) {
    Sample sample = make_sample(i);
    if (i % 10 == 5) sample.ts_us = (i - 3) * 10000;  // goes backwards
    if (session.push(sample)) ++pushed;
  }
  EXPECT_EQ(pushed, 45);
  EXPECT_EQ(session.stats().out_of_order, 5U);
  EXPECT_EQ(session.stats().samples_accepted, 45U);
  // The surviving stream is strictly ordered and its small gaps are under
  // tolerance, so it still assembles floor((45-40)/20)+1 = 1 window.
  EXPECT_EQ(session.poll().size(), 1U);
  EXPECT_EQ(session.stats().gaps, 0U);
}

TEST(Session, FullRingDropsNewestAndCounts) {
  SessionConfig config = small_config();
  config.ring_capacity = 64;
  Session session("u1", config);
  for (std::int64_t i = 0; i < 200; ++i) {
    (void)session.push(make_sample(i));  // never blocks, whatever happens
  }
  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.samples_accepted, 64U);
  EXPECT_EQ(stats.samples_dropped, 136U);
  EXPECT_EQ(session.buffered(), 64U);
  // The buffered prefix still seals normally once the consumer catches up:
  // 64 samples, raw window 40, raw hop 20 -> windows at 0 and 20.
  EXPECT_EQ(session.poll().size(), 2U);
  EXPECT_EQ(session.buffered(), 24U);
}

TEST(Session, OutOfOrderJustAfterTheHeadWrapsIsRejected) {
  // The newest timestamp is the one in slot head - 1. Once the head wraps
  // to slot 0 that is the ring's last slot, while slot 0 still holds the
  // stream's oldest timestamp: a sample between the two must be rejected.
  SessionConfig config = small_config();
  config.ring_capacity = 64;
  Session session("u1", config);
  std::vector<Sample> stream;
  for (std::int64_t i = 0; i < 64; ++i) {
    stream.push_back(make_sample(i));
    ASSERT_TRUE(session.push(stream.back()));
  }
  // Windows at 0 and 20 free slots 0..39; the next push writes slot 0.
  std::vector<SealedWindow> windows = session.poll();
  ASSERT_EQ(windows.size(), 2U);
  EXPECT_FALSE(session.push(make_sample(1)));   // above slot 0's, below 63's
  EXPECT_FALSE(session.push(make_sample(63)));  // equal to the newest
  EXPECT_EQ(session.stats().out_of_order, 2U);
  EXPECT_EQ(session.stats().samples_accepted, 64U);
  for (std::int64_t i = 64; i < 80; ++i) {
    stream.push_back(make_sample(i));
    ASSERT_TRUE(session.push(stream.back()));
  }
  // The window at 40 runs from slot 40 across the wrap to slot 15.
  for (SealedWindow& w : session.poll()) windows.push_back(std::move(w));
  expect_windows_at(windows, {0, 20, 40}, stream);
  EXPECT_EQ(session.stats().gaps, 0U);
  EXPECT_EQ(session.stats().samples_dropped, 0U);
}

TEST(Session, SampleAfterAFullRingDropIsComparedWithTheLastAccepted) {
  // A dropped sample leaves the ring's newest timestamp where it was: the
  // next sample is ordered against the last accepted one, not the dropped
  // one, and an out-of-order sample counts as such even when the ring is
  // full.
  SessionConfig config = small_config();
  config.ring_capacity = 64;
  Session session("u1", config);
  for (std::int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(session.push(make_sample(i)));
  }
  EXPECT_FALSE(session.push(make_sample(70)));  // full: dropped
  EXPECT_FALSE(session.push(make_sample(10)));  // full, but out of order
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.samples_dropped, 1U);
  EXPECT_EQ(stats.out_of_order, 1U);
  ASSERT_EQ(session.poll().size(), 2U);  // frees 40 slots
  // Sample 64 is older than the dropped 70 but newer than the accepted 63.
  EXPECT_TRUE(session.push(make_sample(64)));
  EXPECT_FALSE(session.push(make_sample(64)));  // room, but not newer
  stats = session.stats();
  EXPECT_EQ(stats.samples_accepted, 65U);
  EXPECT_EQ(stats.samples_dropped, 1U);
  EXPECT_EQ(stats.out_of_order, 2U);
}

TEST(Session, AcceptedCountIsExactUnderConcurrentStatsReads) {
  // samples_accepted is the ring's head index, not a counter of its own:
  // read from another thread while the producer runs into accepted,
  // ring-full and out-of-order pushes, it must stay monotonic and end equal
  // to the pushes that returned true (run under TSan by scripts/check.sh).
  SessionConfig config = small_config();
  config.ring_capacity = 64;
  Session session("u1", config);
  constexpr std::int64_t kPushes = 20000;
  std::atomic<bool> draining{false};
  std::atomic<bool> done{false};
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t out_of_order = 0;

  std::thread producer([&] {
    std::int64_t index = 0;
    for (std::int64_t i = 0; i < kPushes; ++i) {
      // Every 7th sample repeats timestamp 0, which the first push took.
      const bool backwards = i % 7 == 3;
      const Sample sample = backwards ? make_sample(0) : make_sample(index++);
      if (session.push(sample)) {
        ++accepted;
      } else if (backwards) {
        ++out_of_order;
      } else {
        ++dropped;
      }
      // The first 200 pushes overrun the idle ring: drops are certain.
      if (i == 200) draining.store(true, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  // The consumer: reads stats() in a loop and, once the ring has overrun,
  // also drains it so that later pushes are accepted again.
  SessionStats last{};
  bool monotonic = true;
  while (!done.load(std::memory_order_acquire)) {
    const SessionStats now = session.stats();
    monotonic = monotonic && now.samples_accepted >= last.samples_accepted &&
                now.samples_dropped >= last.samples_dropped &&
                now.out_of_order >= last.out_of_order;
    last = now;
    if (draining.load(std::memory_order_acquire)) (void)session.poll();
  }
  producer.join();

  const SessionStats stats = session.stats();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(stats.samples_accepted, accepted);
  EXPECT_EQ(stats.samples_dropped, dropped);
  EXPECT_EQ(stats.out_of_order, out_of_order);
  EXPECT_EQ(accepted + dropped + out_of_order,
            static_cast<std::uint64_t>(kPushes));
  EXPECT_GT(dropped, 0U);
  EXPECT_GT(out_of_order, 0U);
}

TEST(Session, ValidatesConfig) {
  SessionConfig config = small_config();
  config.hop = 0;
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  config = small_config();
  config.hop = config.window_length + 1;
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  config = small_config();
  config.window_length = 0;
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  config = small_config();
  config.source_rate_hz = 0.0;
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  config = small_config();
  config.gap_tolerance = 0.0;
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  // Non-finite values would make every sample a gap (no window ever seals)
  // or silently give decimation factor 1.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf}) {
    config = small_config();
    config.gap_tolerance = bad;
    EXPECT_THROW(Session("u", config), std::invalid_argument);
    config = small_config();
    config.source_rate_hz = bad;
    EXPECT_THROW(Session("u", config), std::invalid_argument);
    config = small_config();
    config.target_hz = bad;
    EXPECT_THROW(Session("u", config), std::invalid_argument);
  }
  // A gap limit past the int64 microsecond clock.
  config = small_config();
  config.gap_tolerance = 1e300;
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  config = small_config();
  config.ring_capacity = 16;  // < one raw window of 40
  EXPECT_THROW(Session("u", config), std::invalid_argument);
  // Huge finite source rates fail before anything converts or allocates.
  // With the paper's 120-sample windows at 20 Hz: at 1e300 Hz the
  // decimation factor has no int64 value; at 1e19 Hz the factor (5e17)
  // fits but the raw window does not; at 1e17, 1e15, 1e14 and 1e9 Hz the
  // raw window fits but its ring (4 raw windows, 2.4e10 slots at 1e9 Hz)
  // exceeds SpscRing::kMaxCapacity, 1 GiB of columns, as do an explicit ring
  // one slot past it and a 2^62-slot one.
  for (const double rate : {1e300, 1e19, 1e17, 1e15, 1e14, 1e9}) {
    SCOPED_TRACE(rate);
    config = SessionConfig{};
    config.source_rate_hz = rate;
    EXPECT_THROW(Session("u", config), std::invalid_argument);
  }
  for (const std::size_t capacity :
       {SpscRing::kMaxCapacity + 1, std::size_t{1} << 62}) {
    SCOPED_TRACE(capacity);
    config = SessionConfig{};
    config.ring_capacity = capacity;
    EXPECT_THROW(Session("u", config), std::invalid_argument);
  }
}

TEST(Session, StreamedWindowsPreprocessBitIdenticalToBatchPath) {
  // The full stream-vs-batch contract, through the Session: seal raw
  // windows from a live push sequence, preprocess each, and compare with
  // the batch path (downsample the whole recording, then slice) — equal to
  // the bit.
  Session session("u1", small_config());
  data::Recording recording;
  recording.channels = 6;
  recording.sample_rate_hz = 100.0;
  for (std::int64_t i = 0; i < 200; ++i) {
    const Sample sample = make_sample(i);
    ASSERT_TRUE(session.push(sample));
    recording.values.insert(recording.values.end(), sample.v.begin(),
                            sample.v.end());
  }
  data::Recording batch = data::downsample(recording, 20.0);
  data::normalize_accelerometer(batch);

  const auto windows = session.poll();
  ASSERT_EQ(windows.size(), 9U);  // floor((200-40)/20)+1
  for (const SealedWindow& w : windows) {
    const std::vector<float> streamed =
        data::preprocess_window(w.raw, kStreamChannels, 100.0, 20.0);
    ASSERT_EQ(streamed.size(), 8U * 6U);
    const std::size_t model_start = w.seq * 4U * 6U;  // hop 4 model samples
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      ASSERT_EQ(streamed[i], batch.values[model_start + i])
          << "window " << w.seq << " value " << i;
    }
  }
}

// ---- Composer -----------------------------------------------------------

/// Logits with a decisive winner (margin ~1) over `classes` classes.
std::vector<float> confident(std::int32_t label, std::size_t classes = 4) {
  std::vector<float> logits(classes, 0.0F);
  logits[static_cast<std::size_t>(label)] = 10.0F;
  return logits;
}

TEST(Composer, GateMapsLowMarginToUnknown) {
  ComposerConfig config;
  config.min_margin = 0.2;
  const Composer composer(config);
  EXPECT_EQ(composer.gate(1, confident(1)), 1);
  // A near-tie: top-1 and top-2 probabilities are ~equal, margin ~0.
  EXPECT_EQ(composer.gate(2, std::vector<float>{1.0F, 1.0F, 1.01F, 0.0F}),
            kUnknownLabel);

  ComposerConfig off;
  off.min_margin = 0.0;  // gating disabled
  const Composer ungated(off);
  EXPECT_EQ(ungated.gate(2, std::vector<float>{1.0F, 1.0F, 1.01F, 0.0F}), 2);
}

TEST(Composer, GateMapsNonFiniteLogitsToUnknown) {
  ComposerConfig config;
  config.min_margin = 0.2;
  const Composer composer(config);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // A NaN anywhere, the winner's slot included, poisons the softmax.
  for (std::size_t slot = 0; slot < 4; ++slot) {
    std::vector<float> logits = confident(1);
    logits[slot] = nan;
    EXPECT_EQ(composer.gate(1, logits), kUnknownLabel) << "NaN in " << slot;
  }
  // +Inf makes the margin Inf - Inf = NaN, even on the winning class.
  std::vector<float> plus_inf = confident(1);
  plus_inf[1] = inf;
  EXPECT_EQ(composer.gate(1, plus_inf), kUnknownLabel);
  plus_inf = confident(1);
  plus_inf[2] = inf;
  EXPECT_EQ(composer.gate(1, plus_inf), kUnknownLabel);
  // A lone -Inf logit is a valid zero probability: still confident.
  std::vector<float> minus_inf = confident(1);
  minus_inf[3] = -inf;
  EXPECT_EQ(composer.gate(1, minus_inf), 1);

  // Gating off passes every label through, as before.
  ComposerConfig off;
  off.min_margin = 0.0;
  std::vector<float> poisoned = confident(1);
  poisoned[0] = nan;
  EXPECT_EQ(Composer(off).gate(1, poisoned), 1);
}

TEST(Composer, HysteresisSuppressesSingleWindowFlicker) {
  ComposerConfig config;
  config.hysteresis = 2;
  Composer composer(config);
  std::vector<Event> events;
  auto push = [&](std::int32_t label, std::int64_t w) {
    return composer.push(label, confident(label), w * 100, w * 100 + 99);
  };
  // Bootstrap: two windows of 0 make it stable (no event yet).
  EXPECT_TRUE(push(0, 0).empty());
  EXPECT_TRUE(push(0, 1).empty());
  // One flicker window of 1, then 0 again: candidate discarded, no switch.
  EXPECT_TRUE(push(1, 2).empty());
  EXPECT_TRUE(push(0, 3).empty());
  // A real switch: two consecutive windows of 1 emit the finished 0 segment.
  EXPECT_TRUE(push(1, 4).empty());
  events = push(1, 5);
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].kind, Event::Kind::kPrimitive);
  EXPECT_EQ(events[0].label, 0);
  EXPECT_EQ(events[0].start_ts_us, 0);
  // The segment ends at the last window 0 re-confirmed (window 3); the
  // flicker window is spanned but not counted as a confirmed window.
  EXPECT_EQ(events[0].end_ts_us, 399);
  EXPECT_EQ(events[0].windows, 3);

  // Flush emits the trailing (now stable) 1 segment, started at window 4.
  events = composer.flush();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].label, 1);
  EXPECT_EQ(events[0].start_ts_us, 400);
  EXPECT_EQ(events[0].windows, 2);
}

TEST(Composer, UnconfirmedCandidateIsDiscardedAtFlush) {
  ComposerConfig config;
  config.hysteresis = 2;
  Composer composer(config);
  (void)composer.push(0, confident(0), 0, 99);
  (void)composer.push(0, confident(0), 100, 199);
  (void)composer.push(1, confident(1), 200, 299);  // one window: never stable
  const auto events = composer.flush();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].label, 0);
}

TEST(Composer, FsmAssemblesCompositeFromPrimitiveSequence) {
  ComposerConfig config;
  config.hysteresis = 2;
  config.rules.push_back({"pour-drink", {0, 1, 2}});
  Composer composer(config);
  std::int64_t w = 0;
  auto feed = [&](std::int32_t label, int windows) {
    std::vector<Event> out;
    for (int i = 0; i < windows; ++i, ++w) {
      auto events =
          composer.push(label, confident(label), w * 100, w * 100 + 99);
      out.insert(out.end(), events.begin(), events.end());
    }
    return out;
  };
  EXPECT_TRUE(feed(0, 2).empty());
  EXPECT_EQ(feed(1, 2).size(), 1U);  // primitive 0 emitted on the switch
  EXPECT_EQ(feed(2, 2).size(), 1U);  // primitive 1
  // Flush emits primitive 2, which completes the rule: the composite event
  // follows its final primitive, spanning the whole sequence.
  const auto events = composer.flush();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[0].kind, Event::Kind::kPrimitive);
  EXPECT_EQ(events[0].label, 2);
  EXPECT_EQ(events[1].kind, Event::Kind::kComposite);
  EXPECT_EQ(events[1].label, 0);  // rule index
  EXPECT_EQ(events[1].name, "pour-drink");
  EXPECT_EQ(events[1].start_ts_us, 0);
  EXPECT_EQ(events[1].end_ts_us, 599);
  EXPECT_EQ(events[1].windows, 6);
}

TEST(Composer, FsmToleratesUnknownGapsUpToLimit) {
  ComposerConfig config;
  config.hysteresis = 1;  // every window is its own segment: FSM-only test
  config.max_gap_windows = 2;
  config.rules.push_back({"ab", {0, 1}});
  Composer tolerant(config);
  std::int64_t w = 0;
  auto push_one = [&](Composer& c, std::int32_t label) {
    // min_margin 0.2 with flat logits gates to unknown; confident() passes.
    auto events = label == kUnknownLabel
                      ? c.push(0, std::vector<float>{1.0F, 1.0F, 1.0F, 1.0F},
                               w * 100, w * 100 + 99)
                      : c.push(label, confident(label), w * 100, w * 100 + 99);
    ++w;
    return events;
  };
  // 0, unknown x2 (== limit), 1: the gap is tolerated, composite completes.
  (void)push_one(tolerant, 0);
  (void)push_one(tolerant, kUnknownLabel);
  (void)push_one(tolerant, kUnknownLabel);
  (void)push_one(tolerant, kUnknownLabel);  // emits the unknown segment? no:
  // hysteresis 1 makes each *label change* a segment boundary; the three
  // unknown windows above form ONE unknown segment (3 windows > limit) only
  // when contiguous — so feed 1 now and expect NO composite from this run.
  auto events = push_one(tolerant, 1);
  for (const Event& e : events) {
    EXPECT_NE(e.kind, Event::Kind::kComposite) << "gap over limit composed";
  }
  (void)tolerant.flush();

  Composer ok(config);
  w = 0;
  (void)push_one(ok, 0);
  (void)push_one(ok, kUnknownLabel);
  (void)push_one(ok, kUnknownLabel);  // 2 unknown windows == limit: tolerated
  (void)push_one(ok, 1);              // emits unknown segment, FSM keeps index
  const auto done = ok.flush();       // emits primitive 1 -> composite
  ASSERT_EQ(done.size(), 2U);
  EXPECT_EQ(done[1].kind, Event::Kind::kComposite);
  EXPECT_EQ(done[1].name, "ab");
}

TEST(Composer, FsmRestartsWhenSequenceHeadReappears) {
  ComposerConfig config;
  config.hysteresis = 1;
  config.max_gap_windows = 10;  // gaps irrelevant to this test
  config.rules.push_back({"ab", {0, 1}});
  Composer composer(config);
  std::int64_t w = 0;
  auto push_one = [&](std::int32_t label) {
    auto events = label == kUnknownLabel
                      ? composer.push(0, std::vector<float>{1.0F, 1.0F, 1.0F,
                                                            1.0F},
                                      w * 100, w * 100 + 99)
                      : composer.push(label, confident(label), w * 100,
                                      w * 100 + 99);
    ++w;
    return events;
  };
  (void)push_one(0);              // rule at index 1
  (void)push_one(kUnknownLabel);  // tolerated gap (segment boundary)
  (void)push_one(0);              // mismatch == head: RESTART from this one
  (void)push_one(1);
  const auto events = composer.flush();
  ASSERT_EQ(events.size(), 2U);
  EXPECT_EQ(events[1].kind, Event::Kind::kComposite);
  // The composite starts at the restart segment (window 2), not window 0.
  EXPECT_EQ(events[1].start_ts_us, 200);
  EXPECT_EQ(events[1].windows, 2);
}

TEST(Composer, ValidatesConfig) {
  ComposerConfig config;
  config.min_margin = 1.5;
  EXPECT_THROW(Composer{config}, std::invalid_argument);
  config.min_margin = std::nan("");
  EXPECT_THROW(Composer{config}, std::invalid_argument);
  config = ComposerConfig{};
  config.hysteresis = 0;
  EXPECT_THROW(Composer{config}, std::invalid_argument);
  config = ComposerConfig{};
  config.rules.push_back({"empty", {}});
  EXPECT_THROW(Composer{config}, std::invalid_argument);
  config = ComposerConfig{};
  config.rules.push_back({"negative", {0, -1}});
  EXPECT_THROW(Composer{config}, std::invalid_argument);
}

// ---- synthetic traces ------------------------------------------------------

std::vector<std::uint64_t> sample_bits(const ReplayTrace& trace) {
  std::vector<std::uint64_t> bits;
  for (const Sample& s : trace.samples) {
    bits.push_back(static_cast<std::uint64_t>(s.ts_us));
    for (const float v : s.v) bits.push_back(std::bit_cast<std::uint32_t>(v));
  }
  return bits;
}

// Every argument must be positive and finite, and the trace at most 2^25
// samples (1 GiB), checked before anything is converted or allocated: a NaN
// or huge count would otherwise overflow llround and reach reserve(), and a
// NaN regime would silently become a new regime at every sample.
TEST(SyntheticTrace, RejectsNonFiniteAndOversizedArguments) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, kInf, -kInf, 0.0, -1.0}) {
    EXPECT_THROW((void)synthetic_trace("a", 1, bad, 100.0), std::invalid_argument)
        << "seconds " << bad;
    EXPECT_THROW((void)synthetic_trace("a", 1, 1.0, bad), std::invalid_argument)
        << "rate_hz " << bad;
    EXPECT_THROW((void)synthetic_trace("a", 1, 1.0, 100.0, bad),
                 std::invalid_argument)
        << "regime_seconds " << bad;
  }
  EXPECT_THROW((void)synthetic_trace("a", 1, 1e300, 100.0), std::invalid_argument);
  EXPECT_THROW((void)synthetic_trace("a", 1, 1e200, 1e200), std::invalid_argument);
  EXPECT_THROW((void)synthetic_trace("a", 1, 1e12, 100.0), std::invalid_argument);
  // One sample past 2^25.
  EXPECT_THROW((void)synthetic_trace("a", 1, 33554433.0, 1.0),
               std::invalid_argument);
  // Tiny regimes still clamp to one sample each.
  EXPECT_EQ(synthetic_trace("a", 1, 0.05, 100.0, 1e-300).samples.size(), 5U);
}

// A regime longer than the trace, however long, is one regime: the same
// samples, bit for bit, as a regime exactly as long as the trace.
TEST(SyntheticTrace, RegimeLongerThanTheTraceIsOneRegime) {
  const std::vector<std::uint64_t> one_regime =
      sample_bits(synthetic_trace("a", 5, 2.0, 100.0, 2.0));
  ASSERT_EQ(one_regime.size(), 200U * 7U);
  for (const double regime : {2.5, 1e6, 1e17, 1e300}) {
    EXPECT_EQ(sample_bits(synthetic_trace("a", 5, 2.0, 100.0, regime)),
              one_regime)
        << "regime_seconds " << regime;
  }
  EXPECT_NE(sample_bits(synthetic_trace("a", 5, 2.0, 100.0, 1.0)), one_regime);
}

// ---- CSV fixtures and parser --------------------------------------------

std::string fixture(const std::string& name) {
  return std::string(SAGA_TEST_DATA_DIR) + "/stream/" + name;
}

TEST(ReplayCsv, ParsesFixturesWithHeader) {
  const ReplayTrace clean = load_csv(fixture("clean.csv"));
  EXPECT_EQ(clean.session, "clean");
  ASSERT_EQ(clean.samples.size(), 100U);
  EXPECT_EQ(clean.samples[0].ts_us, 0);
  EXPECT_EQ(clean.samples[1].ts_us, 10000);
  // Fixture values are (i % k) * 0.5 per channel: exactly representable, so
  // text round-trips to the identical float.
  EXPECT_EQ(clean.samples[3].v[0], 1.5F);   // (3 % 7) * 0.5
  EXPECT_EQ(clean.samples[12].v[4], 0.5F);  // (12 % 11) * 0.5

  EXPECT_EQ(load_csv(fixture("gap.csv")).samples.size(), 90U);
  EXPECT_EQ(load_csv(fixture("out_of_order.csv")).samples.size(), 50U);
}

TEST(ReplayCsv, ParserRejectsMalformedRowsNamingTheLine) {
  EXPECT_TRUE(parse_csv_text("").empty());
  EXPECT_TRUE(parse_csv_text("ts_us,ax,ay,az,gx,gy,gz\n").empty());
  // Headerless numeric data is accepted too.
  EXPECT_EQ(parse_csv_text("0,1,2,3,4,5,6\n10,1,2,3,4,5,6\n").size(), 2U);
  try {
    (void)parse_csv_text("ts_us,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\nbogus\n");
    FAIL() << "malformed row must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  // Wrong arity (6 and 8 fields) and non-numeric fields are malformed.
  EXPECT_THROW((void)parse_csv_text("0,1,2,3,4,5\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv_text("0,1,2,3,4,5,6,7\n"), std::runtime_error);
  EXPECT_THROW((void)parse_csv_text("0,1,2,x,4,5,6\n"), std::runtime_error);
  EXPECT_THROW((void)load_csv(fixture("does_not_exist.csv")),
               std::runtime_error);
}

TEST(ReplayCsv, FixturesDriveSessionAccounting) {
  auto run = [](const std::string& name) {
    Session session(name, small_config());
    for (const Sample& sample : load_csv(fixture(name)).samples) {
      (void)session.push(sample);
    }
    const std::size_t windows = session.poll().size();
    return std::pair<std::size_t, SessionStats>(windows, session.stats());
  };

  auto [clean_windows, clean_stats] = run("clean.csv");
  EXPECT_EQ(clean_windows, 4U);  // floor((100-40)/20)+1
  EXPECT_EQ(clean_stats.gaps, 0U);
  EXPECT_EQ(clean_stats.out_of_order, 0U);

  // gap.csv: 50 pre-outage samples (1 window; 30-sample partial discarded
  // at the 1.01 s jump) + 40 post-outage samples (1 window).
  auto [gap_windows, gap_stats] = run("gap.csv");
  EXPECT_EQ(gap_windows, 2U);
  EXPECT_EQ(gap_stats.gaps, 1U);
  EXPECT_EQ(gap_stats.samples_accepted, 90U);

  // out_of_order.csv: every 10th-but-5 row steps backwards; 45 survive.
  auto [ooo_windows, ooo_stats] = run("out_of_order.csv");
  EXPECT_EQ(ooo_windows, 1U);
  EXPECT_EQ(ooo_stats.out_of_order, 5U);
  EXPECT_EQ(ooo_stats.samples_accepted, 45U);
}

// ---- end to end: replay -> SessionManager -> Engine -> Composer ---------

/// A tiny trained pipeline shared by the end-to-end tests (same shape as
/// test_serve's fixture: train once, copy the exported artifact around).
class StreamE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::Dataset(data::generate_dataset(data::hhar_like(48)));
    core::PipelineConfig config = core::fast_profile();
    config.backbone.hidden_dim = 24;
    config.backbone.num_blocks = 1;
    config.backbone.num_heads = 2;
    config.backbone.ff_dim = 48;
    config.classifier.gru_hidden = 16;
    config.finetune.epochs = 1;
    pipeline_ = new core::Pipeline(*dataset_, data::Task::kActivityRecognition,
                                   config);
    (void)pipeline_->run(core::Method::kNoPretrain, 0.5);
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static serve::Artifact artifact() {
    return serve::Artifact::from_pipeline(*pipeline_);
  }

  /// Streaming config matched to the artifact: 120-sample windows at 20 Hz
  /// cut from a 100 Hz source, fed with no serve deadline (nothing may be
  /// shed — the determinism comparison needs every window to survive).
  static StreamConfig stream_config() {
    StreamConfig config;
    config.session.window_length = 120;
    config.session.hop = 60;
    config.session.source_rate_hz = 100.0;
    config.session.target_hz = 20.0;
    // At speed 0 a whole 3000-sample trace is pushed faster than the pump's
    // first poll; the ring must hold it all so no sample is ever dropped.
    config.session.ring_capacity = 4096;
    config.g = 1.0;  // synthetic traces are already in g-units
    config.deadline = std::chrono::microseconds(0);
    config.max_pending_windows = 64;
    config.composer.min_margin = 0.05;
    config.composer.hysteresis = 1;
    config.composer.rules.push_back({"any-pair", {0, 1}});
    return config;
  }

  static data::Dataset* dataset_;
  static core::Pipeline* pipeline_;
};

data::Dataset* StreamE2E::dataset_ = nullptr;
core::Pipeline* StreamE2E::pipeline_ = nullptr;

TEST_F(StreamE2E, ReplayThroughEngineAndComposerIsDeterministic) {
  // Two full replays of the same traces through two fresh Engine +
  // SessionManager stacks must produce identical event streams: same
  // events, same labels, same timestamps (wall-clock emission aside).
  std::vector<ReplayTrace> traces;
  traces.push_back(synthetic_trace("alice", 7, 30.0, 100.0));
  traces.push_back(synthetic_trace("bob", 11, 30.0, 100.0));
  ASSERT_EQ(traces[0].samples.size(), 3000U);

  ReplayOptions options;
  options.speed = 0.0;  // as fast as possible: the determinism mode

  auto run_once = [&] {
    serve::Engine engine(artifact(), {.max_batch_size = 8});
    SessionManager manager(engine, stream_config());
    ReplayReport report = replay(manager, traces, options);
    manager.stop();
    return report;
  };
  const ReplayReport first = run_once();
  const ReplayReport second = run_once();

  // Every window survived: (3000 - 600) / 300 + 1 = 9 per session.
  EXPECT_TRUE(first.drained);
  EXPECT_EQ(first.manager.windows_sealed, 18U);
  EXPECT_EQ(first.manager.windows_completed, 18U);
  EXPECT_EQ(first.manager.windows_dropped, 0U);
  EXPECT_EQ(first.manager.samples_dropped, 0U);
  EXPECT_EQ(first.samples_replayed, 6000U);
  EXPECT_EQ(first.latency.latencies_ms.size(), first.manager.events);
  EXPECT_EQ(first.latency.latency_hist.count(),
            first.latency.latencies_ms.size());
  EXPECT_GT(first.manager.events, 0U);

  ASSERT_EQ(first.events.size(), second.events.size());
  for (const auto& [session, events] : first.events) {
    const auto it = second.events.find(session);
    ASSERT_NE(it, second.events.end());
    ASSERT_EQ(events.size(), it->second.size()) << "session " << session;
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].kind, it->second[i].kind);
      EXPECT_EQ(events[i].label, it->second[i].label);
      EXPECT_EQ(events[i].name, it->second[i].name);
      EXPECT_EQ(events[i].start_ts_us, it->second[i].start_ts_us);
      EXPECT_EQ(events[i].end_ts_us, it->second[i].end_ts_us);
      EXPECT_EQ(events[i].windows, it->second[i].windows);
    }
  }
}

TEST_F(StreamE2E, BackpressureDropsWindowsWithoutBlockingTheProducer) {
  // A deliberately starved engine: queue bound 1 plus a long batch window,
  // so most submissions bounce with QueueFullError. The producer must never
  // block, nothing may be lost silently, and the accounting must balance:
  // sealed == completed + dropped once drained.
  serve::Engine engine(artifact(), {.max_batch_size = 1,
                                    .batch_window_us = 50000,
                                    .max_queue_depth = 1,
                                    .deadline_admission = false});
  StreamConfig config = stream_config();
  config.max_pending_windows = 2;
  SessionManager manager(engine, config);

  std::vector<ReplayTrace> traces;
  traces.push_back(synthetic_trace("carol", 3, 30.0, 100.0));
  ReplayOptions options;
  options.speed = 0.0;
  const ReplayReport report = replay(manager, traces, options);

  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.manager.windows_sealed, 9U);
  EXPECT_GT(report.manager.windows_dropped, 0U);
  EXPECT_EQ(report.manager.windows_completed + report.manager.windows_dropped,
            report.manager.windows_sealed);
  EXPECT_EQ(report.latency.rejected, report.manager.windows_dropped);
  manager.stop();
}

TEST_F(StreamE2E, ManagerValidatesAndGuardsItsApi) {
  serve::Engine engine(artifact());
  StreamConfig bad = stream_config();
  bad.max_pending_windows = 0;
  EXPECT_THROW(SessionManager(engine, bad), std::invalid_argument);
  bad = stream_config();
  bad.session.hop = 0;
  EXPECT_THROW(SessionManager(engine, bad), std::invalid_argument);

  SessionManager manager(engine, stream_config());
  (void)manager.open("alice");
  EXPECT_THROW((void)manager.open("alice"), std::invalid_argument);
  EXPECT_THROW((void)manager.take_events("nobody"), std::out_of_range);
  EXPECT_THROW((void)manager.session_stats("nobody"), std::out_of_range);
  EXPECT_THROW(manager.finish("nobody"), std::out_of_range);
  EXPECT_EQ(manager.stats().sessions, 1U);
  manager.stop();
  EXPECT_THROW((void)manager.open("dave"), std::runtime_error);
  manager.stop();  // idempotent
}

}  // namespace
}  // namespace saga::stream
