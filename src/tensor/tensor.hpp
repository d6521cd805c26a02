// saga::Tensor — a dense float32 tensor with reverse-mode autograd.
//
// Design: Tensor is a cheap value handle (shared_ptr to TensorImpl). Each
// operation that involves a gradient-requiring input attaches an autograd
// Node to its output; Node stores the input impls (for topological traversal)
// and a backward closure that scatters the output gradient into the inputs.
// Tensor::backward() on a scalar runs the tape in reverse topological order.
//
// Storage model: a TensorImpl is a strided view (shape + strides + offset)
// over a reference-counted Storage. Shape ops like reshape / slice /
// transpose_last2 alias the same Storage instead of copying; the gradient
// buffer also lives in Storage, so gradients written through any view land
// directly in the base buffer (grad scatter is free for views). Ops that
// need flat rows call data_ptr()/grad_ptr(), valid for contiguous tensors;
// non-contiguous views are materialized with contiguous() at op entry.
//
// This is the substrate replacing PyTorch in the paper's implementation
// (see the paper concept → module map in docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/grad_mode.hpp"
#include "tensor/shape.hpp"
#include "util/rng.hpp"

namespace saga {

struct TensorImpl;

/// Autograd graph node attached to an operation's output.
struct AutogradNode {
  /// Operation name, for debugging ("matmul", "softmax", ...).
  std::string op;
  /// Inputs of the op, in order; traversed during backward().
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  /// Scatters `out`'s gradient into the inputs' gradient buffers.
  std::function<void(const TensorImpl& out)> backward;
};

/// Reference-counted buffer shared by every view of one allocation. The
/// gradient lives here too: views of a base tensor accumulate their
/// gradients straight into the base's buffer, which is what makes view
/// backward a no-op (graph connectivity only, no data movement).
struct Storage {
  std::vector<float> data;
  std::vector<float> grad;  // lazily allocated, same size as data
};

struct TensorImpl {
  Shape shape;
  /// Per-dimension element strides into `storage`; row-major when dense.
  std::vector<std::int64_t> strides;
  /// Start of this view within `storage`, in elements.
  std::int64_t offset = 0;
  /// Cached product of `shape` (set at construction).
  std::int64_t count = 0;
  /// True when the view covers a dense row-major range [offset,
  /// offset + count) of storage — the precondition for data_ptr() row sweeps.
  bool contiguous = true;
  bool requires_grad = false;
  std::shared_ptr<Storage> storage;
  std::shared_ptr<AutogradNode> node;  // null for leaves and constants

  std::int64_t numel() const noexcept { return count; }
  bool is_contiguous() const noexcept { return contiguous; }

  /// Offset-adjusted storage pointers. Flat [0, numel) indexing off these is
  /// only meaningful for contiguous tensors.
  float* data_ptr() noexcept { return storage->data.data() + offset; }
  const float* data_ptr() const noexcept {
    return storage->data.data() + offset;
  }

  /// Returns the storage-level gradient buffer, allocating zeros on first
  /// use. Shared by all views of this storage.
  std::vector<float>& grad_buffer();
  /// Offset-adjusted gradient pointer; allocates the buffer on first use.
  float* grad_ptr() { return grad_buffer().data() + offset; }
  /// Const variant: requires the buffer to be allocated already (backward()
  /// only runs a node once its output gradient exists).
  const float* grad_ptr() const noexcept {
    return storage->grad.data() + offset;
  }

  bool grad_allocated() const noexcept {
    return storage != nullptr && storage->grad.size() == storage->data.size();
  }
};

class Tensor {
 public:
  /// Default-constructed tensors are "undefined" (no storage).
  Tensor() = default;

  // ---- factories -----------------------------------------------------
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor ones(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor scalar(float value);
  /// Takes ownership of `values`; size must equal numel(shape).
  static Tensor from_data(Shape shape, std::vector<float> values,
                          bool requires_grad = false);
  static Tensor randn(Shape shape, util::Rng& rng, float stddev = 1.0F,
                      bool requires_grad = false);
  static Tensor rand_uniform(Shape shape, util::Rng& rng, float lo, float hi,
                             bool requires_grad = false);

  // ---- inspection ----------------------------------------------------
  bool defined() const noexcept { return impl_ != nullptr; }
  const Shape& shape() const;
  std::int64_t dim() const { return static_cast<std::int64_t>(shape().size()); }
  /// Size of dimension d; negative d counts from the back.
  std::int64_t size(std::int64_t d) const;
  std::int64_t numel() const;

  /// True when the elements form one dense row-major range (views created by
  /// transpose_last2 / inner-dim slice are not; reshape views are).
  bool is_contiguous() const;

  /// Flat spans over the elements. Throws std::logic_error for
  /// non-contiguous views — materialize with contiguous() first.
  std::span<float> data();
  std::span<const float> data() const;
  /// Gradient buffer window for this view (allocated on demand); same
  /// contiguity requirement as data().
  std::span<float> grad();
  bool has_grad() const;
  void zero_grad();

  bool requires_grad() const;
  Tensor& set_requires_grad(bool value);

  /// Value of a one-element tensor.
  float item() const;
  /// Element at flat row-major logical index (bounds-checked). Honors
  /// strides/offset, so it reads through views correctly.
  float at(std::int64_t flat_index) const;

  // ---- graph ---------------------------------------------------------
  /// Deep copy (fresh storage, gathers views dense) with no autograd
  /// history.
  Tensor clone() const;
  /// Runs reverse-mode autodiff from this scalar tensor.
  void backward();

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<TensorImpl> impl_;
};

namespace detail {

/// True when gradients must flow into this impl during backward.
inline bool wants_grad(const TensorImpl& impl) noexcept {
  return impl.requires_grad;
}

/// True when a new op output over these inputs must record autograd state:
/// grad mode is enabled on this thread AND some input requires grad or
/// already carries tape history. Ops use this to decide up front whether to
/// compute/save backward-only intermediates at all.
bool tape_active(std::initializer_list<const Tensor*> inputs) noexcept;
bool tape_active(const std::vector<Tensor>& inputs) noexcept;

/// AutogradNode objects created on this thread since it started. A NoGrad
/// forward must leave this unchanged — the tape-skip contract is tested
/// against it.
std::uint64_t autograd_nodes_created() noexcept;

/// Materializing copies performed on this thread by view-eligible shape ops
/// (contiguous() on a non-contiguous view, including the reshape fallback).
/// A NoGrad backbone forward must leave this unchanged — the zero-copy view
/// contract is tested against it.
std::uint64_t materializing_copies() noexcept;
/// Internal: recorded by contiguous() when it actually copies.
void note_materializing_copy() noexcept;

/// Calls fn(flat_index, storage_index) for every logical element of the
/// given geometry, in row-major logical order. The workhorse of gather
/// (contiguous()) and scatter (its backward).
void for_each_element(const Shape& shape,
                      const std::vector<std::int64_t>& strides,
                      std::int64_t offset,
                      const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Wraps `base`'s storage in a new impl with the given geometry — the
/// construction path of every aliasing view op. Attaches a
/// connectivity-only autograd node when the tape is active: views share
/// their base's gradient storage, so backward through a view needs no data
/// movement, only a graph edge to keep the base reachable.
Tensor make_view(const Tensor& base, Shape shape,
                 std::vector<std::int64_t> strides, std::int64_t offset,
                 const char* op_name);

/// Attaches an AutogradNode (op name, parent edges, backward closure) to
/// `out` and marks it gradient-requiring. Callers must have checked
/// tape_active() first; make_result below does both.
void attach_node(Tensor& out, std::initializer_list<const Tensor*> inputs,
                 const char* op_name,
                 std::function<void(const TensorImpl&)> backward);
void attach_node(Tensor& out, const std::vector<Tensor>& inputs,
                 const char* op_name,
                 std::function<void(const TensorImpl&)> backward);

/// Creates an op output: allocates storage and, only when the tape is
/// active for `inputs`, attaches an autograd node. The backward closure is
/// built lazily — `factory` (callable returning the backward closure) runs
/// only on the tape path, so NoGrad forwards allocate no AutogradNode, no
/// parent edges, and no std::function capture state.
template <typename BackwardFactory>
Tensor make_result(Shape shape, std::vector<float> data,
                   std::initializer_list<const Tensor*> inputs,
                   const char* op_name, BackwardFactory&& factory) {
  const bool record = tape_active(inputs);
  Tensor out = Tensor::from_data(std::move(shape), std::move(data), false);
  if (record) attach_node(out, inputs, op_name, factory());
  return out;
}

/// Overload for ops with a runtime-sized input list (concat/stack).
template <typename BackwardFactory>
Tensor make_result(Shape shape, std::vector<float> data,
                   const std::vector<Tensor>& inputs, const char* op_name,
                   BackwardFactory&& factory) {
  const bool record = tape_active(inputs);
  Tensor out = Tensor::from_data(std::move(shape), std::move(data), false);
  if (record) attach_node(out, inputs, op_name, factory());
  return out;
}

}  // namespace detail

}  // namespace saga
