// Mini-batch assembly: packs dataset windows into [B, T, C] tensors.
//
// Consumes: a Dataset plus a list of sample indices (typically a Split
// member or a subsample_labelled result). Produces: Batch{inputs [B, T, C],
// labels, indices} ready for the training loops in train/.
// Shuffle order is deterministic in the iterator's seed; a BatchIterator is
// single-consumer (one training loop), not shared across threads.
#pragma once

#include <vector>

#include "data/dataset.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace saga::data {

struct Batch {
  Tensor inputs;                      // [B, T, C]
  std::vector<std::int64_t> labels;   // task labels, size B
  std::vector<std::int64_t> indices;  // dataset indices, size B
};

/// Packs the given sample indices into one batch; labels come from `task`.
Batch make_batch(const Dataset& dataset, const std::vector<std::int64_t>& indices,
                 Task task);

/// Iterates `indices` in shuffled mini-batches of size `batch_size`
/// (the last partial batch is kept).
class BatchIterator {
 public:
  BatchIterator(const Dataset& dataset, std::vector<std::int64_t> indices,
                Task task, std::int64_t batch_size, std::uint64_t seed);

  /// Reshuffles and restarts; call once per epoch.
  void reset();
  /// Returns false when the epoch is exhausted.
  bool next(Batch& out);

 private:
  const Dataset* dataset_;
  std::vector<std::int64_t> indices_;
  Task task_;
  std::int64_t batch_size_;
  std::size_t cursor_ = 0;
  util::Rng rng_;
};

}  // namespace saga::data
