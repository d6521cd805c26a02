// stream::Composer — the Stage-B temporal composition layer over a
// per-window label stream (the Action_Detector hierarchical-detection
// strategy, WS-IMUBench's temporal action localization framing): windows
// classified by the serve layer are atomic *primitives*; the Composer turns
// the noisy primitive stream into discrete events.
//
// Three stages, in order, all deterministic:
//   1. open-set gating   a window whose softmax margin (top-1 minus top-2
//                        probability) is below `min_margin`, or undefined
//                        because a logit is NaN or +Inf, becomes
//                        kUnknownLabel — an untrained motion must not be
//                        force-mapped onto the nearest known class.
//   2. hysteresis        a new label must win `hysteresis` consecutive
//      smoothing         windows before it replaces the current stable
//                        label, suppressing single-window flicker. When the
//                        stable label changes, the finished segment is
//                        emitted as one kPrimitive event spanning its
//                        windows.
//   3. composition FSM   each CompositeRule is a sequence of primitive
//                        labels ("pick_up" then "shake" then "put_down");
//                        every rule runs a small state machine over emitted
//                        primitive segments and yields a kComposite event
//                        when its sequence completes. Unknown segments up to
//                        max_gap_windows windows long are tolerated inside a
//                        sequence without resetting progress.
//
// Consumes: one classified window per push() (label + logits + ts range),
// in stream order. Produces: the events completed by that window. flush()
// ends the stream, emitting the trailing stable segment. A Composer is
// single-threaded (the SessionManager pump owns one per session).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace saga::stream {

/// Open-set label: the window's motion matched no known class confidently.
inline constexpr std::int32_t kUnknownLabel = -1;

/// A composite event template: `sequence` of primitive class labels that
/// must be observed as consecutive stable segments (unknown gaps tolerated).
struct CompositeRule {
  std::string name;
  std::vector<std::int32_t> sequence;
};

struct ComposerConfig {
  /// Softmax top1-top2 probability margin below which a window is gated to
  /// kUnknownLabel; 0 disables open-set gating.
  double min_margin = 0.2;
  /// Consecutive windows a label needs to become (or replace) the stable
  /// label; 1 = no smoothing.
  std::int64_t hysteresis = 2;
  /// Unknown windows tolerated inside a composite sequence before the
  /// rule's progress resets.
  std::int64_t max_gap_windows = 2;
  std::vector<CompositeRule> rules;
};

struct Event {
  enum class Kind : std::uint8_t { kPrimitive, kComposite };
  Kind kind = Kind::kPrimitive;
  /// Primitive: the stable class label (kUnknownLabel for unknown
  /// segments). Composite: the index of the completed rule.
  std::int32_t label = 0;
  /// Composite rule name; empty for primitives.
  std::string name;
  std::int64_t start_ts_us = 0;
  std::int64_t end_ts_us = 0;
  /// Windows spanned by the event.
  std::int64_t windows = 0;
  /// Wall-clock emission time, stamped by the SessionManager pump — the
  /// "event-emitted" side of the replay driver's sample-ts -> event latency.
  std::chrono::steady_clock::time_point emitted{};
};

class Composer {
 public:
  explicit Composer(ComposerConfig config);

  /// Feeds one classified window (stream order). Returns the events this
  /// window completed: zero or one primitive plus any composites it
  /// finished.
  std::vector<Event> push(std::int32_t label, std::span<const float> logits,
                          std::int64_t start_ts_us, std::int64_t end_ts_us);

  /// End of stream: emits the in-progress stable segment (if any) and the
  /// composites it completes. An unconfirmed hysteresis candidate is
  /// discarded (it never reached stability).
  std::vector<Event> flush();

  const ComposerConfig& config() const noexcept { return config_; }

  /// The gating stage alone: `label` unless the softmax margin of `logits`
  /// is below min_margin or undefined (a NaN or +Inf logit), else
  /// kUnknownLabel. Exposed for tests.
  std::int32_t gate(std::int32_t label, std::span<const float> logits) const;

 private:
  static constexpr std::int32_t kNoLabel = -2;  // "no stable segment yet"

  /// Closes the current stable segment into a primitive event and runs the
  /// composition FSM over it.
  void emit_segment(std::vector<Event>& out);
  void compose(const Event& primitive, std::vector<Event>& out);

  ComposerConfig config_;

  // Hysteresis state.
  std::int32_t stable_ = kNoLabel;
  std::int64_t segment_start_ts_ = 0;
  std::int64_t segment_end_ts_ = 0;
  std::int64_t segment_windows_ = 0;
  std::int32_t candidate_ = kNoLabel;
  std::int64_t candidate_count_ = 0;
  std::int64_t candidate_start_ts_ = 0;
  std::int64_t candidate_end_ts_ = 0;

  // Per-rule composition FSM state.
  struct RuleState {
    std::size_t index = 0;           ///< next sequence position to match
    std::int64_t start_ts_us = 0;    ///< first matched segment's start
    std::int64_t windows = 0;        ///< windows matched so far
    std::int64_t gap_windows = 0;    ///< unknown windows since last match
  };
  std::vector<RuleState> rule_states_;
};

}  // namespace saga::stream
