#include "stream/composer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace saga::stream {

namespace {

ComposerConfig checked(ComposerConfig config) {
  // Negated in-range test, so NaN (which fails every comparison) is rejected.
  if (!(config.min_margin >= 0.0 && config.min_margin <= 1.0)) {
    throw std::invalid_argument("Composer: min_margin must be in [0, 1]");
  }
  if (config.hysteresis < 1) {
    throw std::invalid_argument("Composer: hysteresis must be >= 1");
  }
  if (config.max_gap_windows < 0) {
    throw std::invalid_argument("Composer: max_gap_windows must be >= 0");
  }
  for (const CompositeRule& rule : config.rules) {
    if (rule.sequence.empty()) {
      throw std::invalid_argument("Composer: rule '" + rule.name +
                                  "' has an empty sequence");
    }
    for (const std::int32_t label : rule.sequence) {
      if (label < 0) {
        throw std::invalid_argument(
            "Composer: rule '" + rule.name +
            "' names a negative label (unknown cannot be a sequence step)");
      }
    }
  }
  return config;
}

}  // namespace

Composer::Composer(ComposerConfig config)
    : config_(checked(std::move(config))), rule_states_(config_.rules.size()) {}

std::int32_t Composer::gate(std::int32_t label,
                            std::span<const float> logits) const {
  if (config_.min_margin <= 0.0 || logits.size() < 2) return label;
  // Stable softmax of the top two logits only: the margin p1 - p2 depends
  // on the full partition, so compute it properly over all classes.
  float max_logit = logits[0];
  for (const float l : logits) max_logit = std::max(max_logit, l);
  double sum = 0.0;
  double top1 = 0.0;
  double top2 = 0.0;
  for (const float l : logits) {
    const double e = std::exp(static_cast<double>(l - max_logit));
    sum += e;
    if (e > top1) {
      top2 = top1;
      top1 = e;
    } else if (e > top2) {
      top2 = e;
    }
  }
  const double margin = (top1 - top2) / sum;
  // Negated so that a NaN margin (a NaN or +Inf logit poisons the softmax)
  // gates to unknown instead of passing as a confident label. A -Inf logit
  // is a valid zero probability and leaves the margin finite.
  return !(margin >= config_.min_margin) ? kUnknownLabel : label;
}

void Composer::compose(const Event& primitive, std::vector<Event>& out) {
  for (std::size_t r = 0; r < config_.rules.size(); ++r) {
    const CompositeRule& rule = config_.rules[r];
    RuleState& state = rule_states_[r];
    if (primitive.label == kUnknownLabel) {
      // Unknown segments are gaps: tolerated mid-sequence up to
      // max_gap_windows windows, otherwise the rule starts over.
      if (state.index > 0) {
        state.gap_windows += primitive.windows;
        if (state.gap_windows > config_.max_gap_windows) state = RuleState{};
      }
      continue;
    }
    if (primitive.label == rule.sequence[state.index]) {
      if (state.index == 0) state.start_ts_us = primitive.start_ts_us;
      state.windows += primitive.windows;
      state.gap_windows = 0;
      if (++state.index == rule.sequence.size()) {
        Event event;
        event.kind = Event::Kind::kComposite;
        event.label = static_cast<std::int32_t>(r);
        event.name = rule.name;
        event.start_ts_us = state.start_ts_us;
        event.end_ts_us = primitive.end_ts_us;
        event.windows = state.windows;
        out.push_back(std::move(event));
        state = RuleState{};
      }
    } else if (primitive.label == rule.sequence[0]) {
      // Mismatch that itself starts the sequence: restart at position 1.
      // (Only reachable mid-sequence, so sequence.size() >= 2 here and
      // index 1 is in range.)
      state = RuleState{};
      state.start_ts_us = primitive.start_ts_us;
      state.windows = primitive.windows;
      state.index = 1;
    } else {
      state = RuleState{};
    }
  }
}

void Composer::emit_segment(std::vector<Event>& out) {
  Event event;
  event.kind = Event::Kind::kPrimitive;
  event.label = stable_;
  event.start_ts_us = segment_start_ts_;
  event.end_ts_us = segment_end_ts_;
  event.windows = segment_windows_;
  // Primitive first, then any composite its arrival completes.
  out.push_back(event);
  compose(event, out);
}

std::vector<Event> Composer::push(std::int32_t label,
                                  std::span<const float> logits,
                                  std::int64_t start_ts_us,
                                  std::int64_t end_ts_us) {
  std::vector<Event> out;
  const std::int32_t gated = gate(label, logits);

  if (stable_ == kNoLabel) {
    // Bootstrapping: the first label to win `hysteresis` consecutive
    // windows becomes the initial stable segment.
    if (gated == candidate_) {
      ++candidate_count_;
      candidate_end_ts_ = end_ts_us;
    } else {
      candidate_ = gated;
      candidate_count_ = 1;
      candidate_start_ts_ = start_ts_us;
      candidate_end_ts_ = end_ts_us;
    }
    if (candidate_count_ >= config_.hysteresis) {
      stable_ = candidate_;
      segment_start_ts_ = candidate_start_ts_;
      segment_end_ts_ = candidate_end_ts_;
      segment_windows_ = candidate_count_;
      candidate_ = kNoLabel;
      candidate_count_ = 0;
    }
    return out;
  }

  if (gated == stable_) {
    // The stable label re-confirmed: extend the segment and clear any
    // half-accumulated switch candidate (flicker suppressed).
    segment_end_ts_ = end_ts_us;
    ++segment_windows_;
    candidate_ = kNoLabel;
    candidate_count_ = 0;
    return out;
  }

  // A different label: accumulate it as the switch candidate.
  if (gated == candidate_) {
    ++candidate_count_;
    candidate_end_ts_ = end_ts_us;
  } else {
    candidate_ = gated;
    candidate_count_ = 1;
    candidate_start_ts_ = start_ts_us;
    candidate_end_ts_ = end_ts_us;
  }
  if (candidate_count_ >= config_.hysteresis) {
    // Confirmed switch: the finished segment becomes a primitive event and
    // the candidate run becomes the new stable segment.
    emit_segment(out);
    stable_ = candidate_;
    segment_start_ts_ = candidate_start_ts_;
    segment_end_ts_ = candidate_end_ts_;
    segment_windows_ = candidate_count_;
    candidate_ = kNoLabel;
    candidate_count_ = 0;
  }
  return out;
}

std::vector<Event> Composer::flush() {
  std::vector<Event> out;
  if (stable_ != kNoLabel) {
    emit_segment(out);
    stable_ = kNoLabel;
    segment_windows_ = 0;
  }
  candidate_ = kNoLabel;
  candidate_count_ = 0;
  for (RuleState& state : rule_states_) state = RuleState{};
  return out;
}

}  // namespace saga::stream
