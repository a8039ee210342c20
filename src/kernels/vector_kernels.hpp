// Internal: the vector kernel bodies, written once as templates over a
// per-ISA vector-ops wrapper `V` and instantiated inside each ISA's TU
// (kernels_avx2.cpp / kernels_avx512.cpp / kernels_neon.cpp) so every
// instantiation is compiled with exactly that ISA's flags.
//
// `V` provides:
//   using reg            — the vector register type (W doubles)
//   static constexpr int W
//   reg  zero()
//   reg  loadu(const double*)          — unaligned load of W doubles
//   void storeu(double*, reg)
//   reg  broadcast(double)
//   reg  fmadd(reg a, reg b, reg c)    — fused a*b + c, per lane
//   reg  add(reg, reg)
//   reg  gather(const double* base, const index_t* idx)
//                                      — {base[idx[0]], ..., base[idx[W-1]]}
//   reg  sub(reg, reg), mul(reg, reg), div(reg, reg)
//                                      — element-wise, correctly rounded
//   using mask           — a per-lane predicate
//   mask flags(const std::uint8_t* s, std::uint8_t bit)
//                                      — lane l: (s[l] & bit) != 0
//   mask gt(reg a, reg b), le(reg a, reg b)
//                                      — ordered compares (false on NaN)
//   mask both(mask, mask)              — lane-wise and
//   bool any(mask)                     — true when some lane is set
//   reg  select(mask m, reg a, reg b)  — lane l: m ? a : b
//
// Sharing one body per kernel across ISAs is what enforces the
// accumulation-order contract of simd.hpp: at width W, W partial sums
// over the full blocks (partial p owns elements ≡ p mod W), folded left
// to right, tail elements added sequentially with fused multiply-adds —
// and the batched variants replicate that order per lane, so batch lane
// q is bit-identical to the single-rhs kernel at the same level.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "kernels/simd.hpp"

namespace ls::simd::detail {

template <class V>
real_t vk_dense_row_dot(const real_t* __restrict r,
                        const real_t* __restrict w, index_t n) {
  constexpr int W = V::W;
  if (n < W) {
    // No full blocks: the W partials stay zero and fold to 0.0, so the
    // sequential tail alone is bit-identical — skip the vector setup,
    // which otherwise dominates short CSR rows.
    real_t s = 0.0;
    for (index_t j = 0; j < n; ++j) s = std::fma(r[j], w[j], s);
    return s;
  }
  typename V::reg acc = V::zero();
  index_t j = 0;
  for (; j + W <= n; j += W) {
    acc = V::fmadd(V::loadu(r + j), V::loadu(w + j), acc);
  }
  alignas(64) double t[W];
  V::storeu(t, acc);
  double s = t[0];
  for (int p = 1; p < W; ++p) s += t[p];
  for (; j < n; ++j) s = std::fma(r[j], w[j], s);
  return s;
}

template <class V>
real_t vk_sparse_row_dot(const real_t* __restrict v,
                         const index_t* __restrict c, index_t len,
                         const real_t* __restrict w) {
  constexpr int W = V::W;
  if (len < W) {
    real_t s = 0.0;
    for (index_t k = 0; k < len; ++k) s = std::fma(v[k], w[c[k]], s);
    return s;
  }
  typename V::reg acc = V::zero();
  index_t k = 0;
  for (; k + W <= len; k += W) {
    acc = V::fmadd(V::loadu(v + k), V::gather(w, c + k), acc);
  }
  alignas(64) double t[W];
  V::storeu(t, acc);
  double s = t[0];
  for (int p = 1; p < W; ++p) s += t[p];
  for (; k < len; ++k) s = std::fma(v[k], w[c[k]], s);
  return s;
}

/// Shared body of the two batched dot kernels: `col(e)` maps element e to
/// its rhs-block row (e itself for dense, c[e] for sparse).
template <class V, class ColFn>
void vk_row_batch(const real_t* __restrict x, index_t n, ColFn&& col,
                  const real_t* __restrict w, index_t b,
                  real_t* __restrict y) {
  constexpr int W = V::W;
  if (n < W) {
    // No full blocks: all blocked partials fold to zero, so zeroing y and
    // running the sequential tail is bit-identical (see vk_dense_row_dot).
    for (index_t q = 0; q < b; ++q) y[q] = 0.0;
    for (index_t j = 0; j < n; ++j) {
      const double a = x[j];
      const typename V::reg av = V::broadcast(a);
      const real_t* __restrict wj = w + static_cast<std::size_t>(col(j) * b);
      index_t t = 0;
      for (; t + W <= b; t += W) {
        V::storeu(y + t, V::fmadd(av, V::loadu(wj + t), V::loadu(y + t)));
      }
      for (; t < b; ++t) y[t] = std::fma(a, wj[t], y[t]);
    }
    return;
  }
  double acc[W][kMaxKernelBatch];
  for (int p = 0; p < W; ++p) {
    for (index_t q = 0; q < b; ++q) acc[p][q] = 0.0;
  }
  index_t j = 0;
  for (; j + W <= n; j += W) {
    for (int p = 0; p < W; ++p) {
      const double a = x[j + p];
      const typename V::reg av = V::broadcast(a);
      const real_t* __restrict wj =
          w + static_cast<std::size_t>(col(j + p) * b);
      index_t q = 0;
      for (; q + W <= b; q += W) {
        V::storeu(&acc[p][q],
                  V::fmadd(av, V::loadu(wj + q), V::loadu(&acc[p][q])));
      }
      for (; q < b; ++q) acc[p][q] = std::fma(a, wj[q], acc[p][q]);
    }
  }
  // Fold the W partials left to right (lane-wise: the same ((t0+t1)+t2)+...
  // sequence the single-rhs kernel applies to its folded scalars).
  index_t q = 0;
  for (; q + W <= b; q += W) {
    typename V::reg s = V::loadu(&acc[0][q]);
    for (int p = 1; p < W; ++p) s = V::add(s, V::loadu(&acc[p][q]));
    V::storeu(y + q, s);
  }
  for (; q < b; ++q) {
    double s = acc[0][q];
    for (int p = 1; p < W; ++p) s += acc[p][q];
    y[q] = s;
  }
  // Tail elements, sequential per lane.
  for (; j < n; ++j) {
    const double a = x[j];
    const typename V::reg av = V::broadcast(a);
    const real_t* __restrict wj = w + static_cast<std::size_t>(col(j) * b);
    index_t t = 0;
    for (; t + W <= b; t += W) {
      V::storeu(y + t, V::fmadd(av, V::loadu(wj + t), V::loadu(y + t)));
    }
    for (; t < b; ++t) y[t] = std::fma(a, wj[t], y[t]);
  }
}

template <class V>
void vk_dense_row_batch(const real_t* __restrict r, index_t n,
                        const real_t* __restrict w, index_t b,
                        real_t* __restrict y) {
  vk_row_batch<V>(r, n, [](index_t e) { return e; }, w, b, y);
}

template <class V>
void vk_sparse_row_batch(const real_t* __restrict v,
                         const index_t* __restrict c, index_t len,
                         const real_t* __restrict w, index_t b,
                         real_t* __restrict y) {
  vk_row_batch<V>(v, len, [c](index_t e) { return c[e]; }, w, b, y);
}

template <class V>
void vk_gather_axpy(const real_t* __restrict v, const index_t* __restrict c,
                    index_t len, const real_t* __restrict w,
                    real_t* __restrict y) {
  constexpr int W = V::W;
  index_t i = 0;
  for (; i + W <= len; i += W) {
    V::storeu(y + i,
              V::fmadd(V::loadu(v + i), V::gather(w, c + i), V::loadu(y + i)));
  }
  for (; i < len; ++i) y[i] = std::fma(v[i], w[c[i]], y[i]);
}

template <class V>
void vk_gather_axpy_batch(const real_t* __restrict v,
                          const index_t* __restrict c, index_t len,
                          const real_t* __restrict w, index_t b,
                          real_t* __restrict y) {
  constexpr int W = V::W;
  for (index_t i = 0; i < len; ++i) {
    const double a = v[i];
    const typename V::reg av = V::broadcast(a);
    const real_t* __restrict wj = w + static_cast<std::size_t>(c[i] * b);
    real_t* __restrict yi = y + static_cast<std::size_t>(i * b);
    index_t q = 0;
    for (; q + W <= b; q += W) {
      V::storeu(yi + q, V::fmadd(av, V::loadu(wj + q), V::loadu(yi + q)));
    }
    for (; q < b; ++q) yi[q] = std::fma(a, wj[q], yi[q]);
  }
}

// SMO working-set scans, one of them fused with the Eq. 4 update of f.
// Lane l of a W-wide scan keeps the best score it has seen (strict
// compare, so the lowest of its indices wins a tie and NaN never wins)
// with that element's index, held as a double (exact below 2^53).
// vk_fold_lanes then picks the best lane, lowest index first, and the tail
// continues the scalar loop — so every level returns exactly the scalar
// table's index. Scores and updated f values are element-wise IEEE
// expressions (the TUs build with -ffp-contract=off), never
// accumulations.

inline constexpr double kLaneIota[8] = {0, 1, 2, 3, 4, 5, 6, 7};

/// The lowest index attaining the best of W per-lane candidates; a lane
/// that never matched holds {-inf, -1} and cannot win.
template <int W>
Argmax vk_fold_lanes(const double* value, const double* index) {
  Argmax best = kNoArgmax;
  for (int l = 0; l < W; ++l) {
    const auto i = static_cast<index_t>(index[l]);
    if (value[l] > best.value || (value[l] == best.value && i < best.index)) {
      best = {value[l], i};
    }
  }
  return best;
}

/// Lane state of the fused high/low scan: the I_high side tracks min f
/// (-f > -best is f < best, so no per-element negation), the I_low side
/// max f.
template <class V>
struct HighLowLanes {
  typename V::reg high_f = V::broadcast(std::numeric_limits<double>::infinity());
  typename V::reg high_i = V::broadcast(-1.0);
  typename V::reg low_f = V::broadcast(-std::numeric_limits<double>::infinity());
  typename V::reg low_i = V::broadcast(-1.0);

  void update(typename V::reg fv, const std::uint8_t* status,
              typename V::reg idx) {
    const typename V::mask h =
        V::both(V::flags(status, kInHigh), V::gt(high_f, fv));
    const typename V::mask l =
        V::both(V::flags(status, kInLow), V::gt(fv, low_f));
    high_f = V::select(h, fv, high_f);
    high_i = V::select(h, idx, high_i);
    low_f = V::select(l, fv, low_f);
    low_i = V::select(l, idx, low_i);
  }
};

/// Shared body of the two high/low passes over i in [0, n): `block(i)`
/// yields f[i, i + W) as a register and `elem(i)` yields f[i]; each is
/// called once per element, blocks in increasing order, then the tail.
template <class V, class Block, class Elem>
void vk_high_low(const std::uint8_t* __restrict status, index_t n,
                 Argmax* out, Block&& block, Elem&& elem) {
  constexpr int W = V::W;
  index_t i = 0;
  Argmax high = kNoArgmax;
  Argmax low = kNoArgmax;
  if (n >= W) {
    // Two independent lane sets: each update is a compare-select chain on
    // its own registers, so alternating blocks between them halves the
    // loop-carried latency. Lane sets a and b own alternate W-blocks;
    // every lane still sees its indices in increasing order.
    HighLowLanes<V> a, b;
    typename V::reg idx = V::loadu(kLaneIota);
    const typename V::reg step = V::broadcast(static_cast<double>(W));
    for (; i + 2 * W <= n; i += 2 * W) {
      a.update(block(i), status + i, idx);
      idx = V::add(idx, step);
      b.update(block(i + W), status + i + W, idx);
      idx = V::add(idx, step);
    }
    if (i + W <= n) {
      a.update(block(i), status + i, idx);
      i += W;
    }
    alignas(64) double value[2 * W];
    alignas(64) double index[2 * W];
    V::storeu(value, a.high_f);
    V::storeu(value + W, b.high_f);
    V::storeu(index, a.high_i);
    V::storeu(index + W, b.high_i);
    for (int p = 0; p < 2 * W; ++p) value[p] = -value[p];
    high = vk_fold_lanes<2 * W>(value, index);
    V::storeu(value, a.low_f);
    V::storeu(value + W, b.low_f);
    V::storeu(index, a.low_i);
    V::storeu(index + W, b.low_i);
    low = vk_fold_lanes<2 * W>(value, index);
  }
  for (; i < n; ++i) {
    const real_t fi = elem(i);
    if ((status[i] & kInHigh) && -fi > high.value) high = {-fi, i};
    if ((status[i] & kInLow) && fi > low.value) low = {fi, i};
  }
  out[0] = high;
  out[1] = low;
}

template <class V>
void vk_wss_high_low(const real_t* __restrict f,
                     const std::uint8_t* __restrict status, index_t n,
                     Argmax* out) {
  vk_high_low<V>(
      status, n, out, [f](index_t i) { return V::loadu(f + i); },
      [f](index_t i) { return f[i]; });
}

template <class V>
void vk_smo_update_select(real_t* __restrict f,
                          const real_t* __restrict k_high,
                          const real_t* __restrict k_low, real_t d_hi,
                          real_t d_lo, const std::uint8_t* __restrict status,
                          index_t n, Argmax* out) {
  const typename V::reg dh = V::broadcast(d_hi);
  const typename V::reg dl = V::broadcast(d_lo);
  // The scalar expression f + (d_hi*kh + d_lo*kl), lane by lane.
  vk_high_low<V>(
      status, n, out,
      [=](index_t i) {
        const typename V::reg fv =
            V::add(V::loadu(f + i), V::add(V::mul(dh, V::loadu(k_high + i)),
                                           V::mul(dl, V::loadu(k_low + i))));
        V::storeu(f + i, fv);
        return fv;
      },
      [=](index_t i) {
        return f[i] = f[i] + (d_hi * k_high[i] + d_lo * k_low[i]);
      });
}

template <class V>
Argmax vk_wss_gain(const real_t* __restrict f,
                   const std::uint8_t* __restrict status,
                   const real_t* __restrict kdiag,
                   const real_t* __restrict k_high, index_t n, real_t b_high,
                   real_t k_hh, real_t eta_floor) {
  constexpr int W = V::W;
  index_t i = 0;
  Argmax best = kNoArgmax;
  if (n >= W) {
    const typename V::reg zero = V::zero();
    const typename V::reg two = V::broadcast(2.0);
    const typename V::reg bh = V::broadcast(b_high);
    const typename V::reg khh = V::broadcast(k_hh);
    const typename V::reg floor = V::broadcast(eta_floor);
    const typename V::reg step = V::broadcast(static_cast<double>(W));
    typename V::reg best_v =
        V::broadcast(-std::numeric_limits<double>::infinity());
    typename V::reg best_i = V::broadcast(-1.0);
    typename V::reg idx = V::loadu(kLaneIota);
    for (; i + W <= n; i += W, idx = V::add(idx, step)) {
      const typename V::reg b = V::sub(V::loadu(f + i), bh);
      const typename V::mask candidate =
          V::both(V::flags(status + i, kInLow), V::gt(b, zero));
      // A block with no candidate cannot set `take`: skip its divide.
      if (!V::any(candidate)) continue;
      typename V::reg eta = V::sub(V::add(khh, V::loadu(kdiag + i)),
                                   V::mul(two, V::loadu(k_high + i)));
      eta = V::select(V::le(eta, zero), floor, eta);
      const typename V::reg gain = V::div(V::mul(b, b), eta);
      const typename V::mask take = V::both(candidate, V::gt(gain, best_v));
      best_v = V::select(take, gain, best_v);
      best_i = V::select(take, idx, best_i);
    }
    alignas(64) double value[W];
    alignas(64) double index[W];
    V::storeu(value, best_v);
    V::storeu(index, best_i);
    best = vk_fold_lanes<W>(value, index);
  }
  for (; i < n; ++i) {
    if (!(status[i] & kInLow)) continue;
    const real_t b = f[i] - b_high;
    if (!(b > 0)) continue;
    real_t eta = k_hh + kdiag[i] - 2.0 * k_high[i];
    if (eta <= 0) eta = eta_floor;
    const real_t gain = b * b / eta;
    if (gain > best.value) best = {gain, i};
  }
  return best;
}

/// Builds the dispatch table for vector-ops wrapper V at `level`.
template <class V>
KernelTable make_vector_table(SimdLevel level) {
  return KernelTable{
      level,
      V::W,
      &vk_dense_row_dot<V>,
      &vk_sparse_row_dot<V>,
      &vk_dense_row_batch<V>,
      &vk_sparse_row_batch<V>,
      &vk_gather_axpy<V>,
      &vk_gather_axpy_batch<V>,
      &vk_wss_high_low<V>,
      &vk_wss_gain<V>,
      &vk_smo_update_select<V>,
  };
}

}  // namespace ls::simd::detail
