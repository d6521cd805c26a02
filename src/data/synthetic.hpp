// Synthetic IMU corpora standing in for the HHAR / Motion / Shoaib datasets
// (offline substitution: the real recordings are not bundled; see README.md).
//
// The generator is a parametric human-motion simulator constructed so that
// exactly the semantic structure Saga exploits is present in the data:
//  * period level   — each dynamic activity is a periodic signal with an
//    activity-specific cadence (walking ~1.8 Hz, jogging ~2.6 Hz, ...);
//  * sub-period level — the waveform inside one period is a harmonic stack
//    whose per-harmonic amplitudes/phases form a per-user gait signature
//    (this carries the "a particular peak identifies Bob" semantics of
//    paper Fig. 1);
//  * sensor level   — accelerometer and gyroscope axes are coupled views of
//    the same latent motion (gyro is phase-shifted and scaled), so a masked
//    axis is predictable from the others;
//  * point level    — signals are smooth/band-limited, so short masked spans
//    are predictable from context.
// Static activities (sit/stand) carry user identity in a tremor band and
// posture (gravity orientation); placements apply per-position rotation and
// attenuation; devices add noise floor, bias and gain, mirroring HHAR's
// device heterogeneity.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"

namespace saga::data {

struct SyntheticSpec {
  std::string name = "synthetic";
  std::int32_t num_activities = 6;
  std::int32_t num_users = 9;
  std::int32_t num_placements = 1;
  std::int32_t num_devices = 6;
  std::int64_t window_length = 120;  // 6 s at 20 Hz
  std::int64_t channels = 6;         // 6 = acc+gyro; 9 adds magnetometer
  double sample_rate_hz = 20.0;
  std::int64_t num_samples = 9166;
  std::uint64_t seed = 42;
};

/// HHAR-like: 9 users, 6 activities, 6 device models, acc+gyro (Table II).
SyntheticSpec hhar_like(std::int64_t num_samples = 9166);
/// Motion(Sense)-like: 24 users, 6 activities, one device, acc+gyro.
SyntheticSpec motion_like(std::int64_t num_samples = 4534);
/// Shoaib-like: 10 users, 7 activities, 5 placements, acc+gyro+mag.
SyntheticSpec shoaib_like(std::int64_t num_samples = 10500);

/// Generates a dataset; deterministic in spec.seed. Samples are synthesized
/// in parallel via util::parallel_for with per-sample seeds, so the result
/// is identical regardless of thread-pool size.
Dataset generate_dataset(const SyntheticSpec& spec);

}  // namespace saga::data
