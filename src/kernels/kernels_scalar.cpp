// Portable reference kernels (SimdLevel::kScalar, W = 1).
//
// These are the semantic ground truth for the cross-ISA differential
// harness and the bodies the pre-dispatch format loops used verbatim, so
// the scalar level reproduces the historical results bit for bit. Every
// loop is a plain sequential accumulation; the W-blocked partial-sum
// contract of simd.hpp degenerates to exactly this at W = 1.
#include "kernels/kernel_table.hpp"

namespace ls::simd::detail {

namespace {

real_t dense_row_dot(const real_t* __restrict r, const real_t* __restrict w,
                     index_t n) {
  real_t s = 0.0;
  for (index_t j = 0; j < n; ++j) s += r[j] * w[j];
  return s;
}

real_t sparse_row_dot(const real_t* __restrict v, const index_t* __restrict c,
                      index_t len, const real_t* __restrict w) {
  real_t s = 0.0;
  for (index_t k = 0; k < len; ++k) s += v[k] * w[c[k]];
  return s;
}

void dense_row_batch(const real_t* __restrict r, index_t n,
                     const real_t* __restrict w, index_t b,
                     real_t* __restrict y) {
  for (index_t q = 0; q < b; ++q) y[q] = 0.0;
  for (index_t j = 0; j < n; ++j) {
    const real_t a = r[j];
    const real_t* __restrict wj = w + static_cast<std::size_t>(j * b);
    for (index_t q = 0; q < b; ++q) y[q] += a * wj[q];
  }
}

void sparse_row_batch(const real_t* __restrict v, const index_t* __restrict c,
                      index_t len, const real_t* __restrict w, index_t b,
                      real_t* __restrict y) {
  for (index_t q = 0; q < b; ++q) y[q] = 0.0;
  for (index_t k = 0; k < len; ++k) {
    const real_t a = v[k];
    const real_t* __restrict wj = w + static_cast<std::size_t>(c[k] * b);
    for (index_t q = 0; q < b; ++q) y[q] += a * wj[q];
  }
}

void gather_axpy(const real_t* __restrict v, const index_t* __restrict c,
                 index_t len, const real_t* __restrict w,
                 real_t* __restrict y) {
  for (index_t i = 0; i < len; ++i) y[i] += v[i] * w[c[i]];
}

void gather_axpy_batch(const real_t* __restrict v,
                       const index_t* __restrict c, index_t len,
                       const real_t* __restrict w, index_t b,
                       real_t* __restrict y) {
  for (index_t i = 0; i < len; ++i) {
    const real_t a = v[i];
    const real_t* __restrict wj = w + static_cast<std::size_t>(c[i] * b);
    real_t* __restrict yi = y + static_cast<std::size_t>(i * b);
    for (index_t q = 0; q < b; ++q) yi[q] += a * wj[q];
  }
}

void wss_high_low(const real_t* __restrict f,
                  const std::uint8_t* __restrict status, index_t n,
                  Argmax* out) {
  Argmax high = kNoArgmax;
  Argmax low = kNoArgmax;
  for (index_t i = 0; i < n; ++i) {
    if ((status[i] & kInHigh) && -f[i] > high.value) high = {-f[i], i};
    if ((status[i] & kInLow) && f[i] > low.value) low = {f[i], i};
  }
  out[0] = high;
  out[1] = low;
}

Argmax wss_gain(const real_t* __restrict f,
                const std::uint8_t* __restrict status,
                const real_t* __restrict kdiag,
                const real_t* __restrict k_high, index_t n, real_t b_high,
                real_t k_hh, real_t eta_floor) {
  Argmax best = kNoArgmax;
  for (index_t i = 0; i < n; ++i) {
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

void smo_update_select(real_t* __restrict f, const real_t* __restrict k_high,
                       const real_t* __restrict k_low, real_t d_hi,
                       real_t d_lo, const std::uint8_t* __restrict status,
                       index_t n, Argmax* out) {
  Argmax high = kNoArgmax;
  Argmax low = kNoArgmax;
  for (index_t i = 0; i < n; ++i) {
    f[i] += d_hi * k_high[i] + d_lo * k_low[i];
    if ((status[i] & kInHigh) && -f[i] > high.value) high = {-f[i], i};
    if ((status[i] & kInLow) && f[i] > low.value) low = {f[i], i};
  }
  out[0] = high;
  out[1] = low;
}

}  // namespace

const KernelTable& scalar_table() {
  static const KernelTable table = {
      SimdLevel::kScalar,
      1,
      dense_row_dot,
      sparse_row_dot,
      dense_row_batch,
      sparse_row_batch,
      gather_axpy,
      gather_axpy_batch,
      wss_high_low,
      wss_gain,
      smo_update_select,
  };
  return table;
}

}  // namespace ls::simd::detail
