// Scalar GRU-cell reference arithmetic shared by both eltwise kernel TUs.
// Not part of the public API — include only from src/tensor/eltwise/*.cpp.
//
// Single definition of the fused cell's per-element forward/backward
// formulas. The float-operation ORDER here is load-bearing: it reproduces,
// expression by expression, the composed gate chain in tests/reference.hpp
// (sigmoid/tanh/mul/add over gate slices) and its reverse-topological
// backward, so the forced-scalar fused cell is bit-identical to the composed
// reference (tested in tests/test_gru_cell.cpp). The scalar kernel uses this
// for every element; the AVX2 kernel for tail elements past the last full
// vector.
#pragma once

#include <cmath>

namespace saga::eltwise::detail {

// The composed chain's sigmoid forward (tests/reference.hpp), verbatim.
inline float sigmoid_ref(float x) { return 1.0F / (1.0F + std::exp(-x)); }

/// One GRU cell element. Gate pre-activations gi_*/gh_* follow the packed
/// [r | z | n] layout; h is the previous state. Saves the gate activations
/// (backward state) into r/z/n and returns the new state
/// h' = (1 - z) * n + z * h.
inline float gru_cell_fwd_ref(float gi_r, float gi_z, float gi_n, float gh_r,
                              float gh_z, float gh_n, float h, float& r,
                              float& z, float& n) {
  r = sigmoid_ref(gi_r + gh_r);
  z = sigmoid_ref(gi_z + gh_z);
  n = std::tanh(gi_n + r * gh_n);
  const float omz = -z + 1.0F;  // composed: add_scalar(neg(z), 1)
  return omz * n + z * h;
}

/// Per-element gradients of the fused cell w.r.t. every input slot. Each
/// slot receives exactly one accumulation per step, so the caller's += order
/// across slots is free; within each expression the order matches the
/// composed chain's reverse-topological float sequence.
struct GruCellGrads {
  float dgi_r, dgi_z, dgi_n;
  float dgh_r, dgh_z, dgh_n;
  float dh;
};

inline GruCellGrads gru_cell_bwd_ref(float r, float z, float n, float gh_n,
                                     float h, float g) {
  GruCellGrads out;
  const float omz = -z + 1.0F;
  // dz gets two composed contributions: +g*h (mul(z,h)) and -(g*n)
  // (mul(omz,n) through neg); float addition is commutative, so one sum
  // reproduces both accumulation orders bit-exactly.
  const float gz = g * h + -(g * n);
  const float gn = g * omz;
  const float ga3 = gn * (1.0F - n * n);        // tanh backward
  const float gr = ga3 * gh_n;                  // mul(r, gh_n) backward
  out.dgh_n = ga3 * r;
  const float ga2 = (gz * z) * (1.0F - z);      // sigmoid backward (z)
  const float ga1 = (gr * r) * (1.0F - r);      // sigmoid backward (r)
  out.dh = g * z;
  out.dgi_r = ga1;
  out.dgh_r = ga1;
  out.dgi_z = ga2;
  out.dgh_z = ga2;
  out.dgi_n = ga3;
  return out;
}

}  // namespace saga::eltwise::detail
