// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "formats/any_matrix.hpp"
#include "formats/coo.hpp"
#include "formats/dense.hpp"
#include "kernels/simd.hpp"

namespace ls::test {

/// Runs `fn` with the OpenMP thread count set to `t`, restoring after.
/// Used both to assert thread-count invariance of deterministic code and
/// to pin wall-clock-racing tests (empirical probes) to one thread so an
/// oversubscribed OMP_NUM_THREADS run cannot skew their measurements.
template <class Fn>
auto with_threads(int t, Fn&& fn) {
  const int before = num_threads();
  set_num_threads(t);
  auto restore = [&] { set_num_threads(before); };
  try {
    auto result = fn();
    restore();
    return result;
  } catch (...) {
    restore();
    throw;
  }
}

/// Dense reference y = A * w computed from COO by brute force.
inline std::vector<real_t> reference_multiply(const CooMatrix& coo,
                                              std::span<const real_t> w) {
  std::vector<real_t> y(static_cast<std::size_t>(coo.rows()), 0.0);
  const auto rows = coo.row_indices();
  const auto cols = coo.col_indices();
  const auto vals = coo.values();
  for (std::size_t k = 0; k < vals.size(); ++k) {
    y[static_cast<std::size_t>(rows[k])] +=
        vals[k] * w[static_cast<std::size_t>(cols[k])];
  }
  return y;
}

/// Random sparse matrix with roughly `density` occupancy.
inline CooMatrix random_matrix(index_t m, index_t n, double density,
                               Rng& rng) {
  std::vector<Triplet> triplets;
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      if (rng.bernoulli(density)) {
        triplets.push_back({i, j, rng.uniform(-1.0, 1.0)});
      }
    }
  }
  return CooMatrix(m, n, std::move(triplets));
}

/// Random dense workspace vector.
inline std::vector<real_t> random_vector(index_t n, Rng& rng) {
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// EXPECT element-wise closeness of two vectors.
inline void expect_near(std::span<const real_t> a, std::span<const real_t> b,
                        double tol = 1e-10) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

/// Distance between two doubles in units in the last place. Maps the IEEE
/// bit patterns onto a monotone integer line (two's-complement trick) so
/// adjacent representable doubles are exactly 1 apart; +0 and -0 are 0
/// apart. NaN anywhere yields the maximum distance.
inline std::uint64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  auto key = [](double x) -> std::int64_t {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return ka >= kb ? static_cast<std::uint64_t>(ka) -
                        static_cast<std::uint64_t>(kb)
                  : static_cast<std::uint64_t>(kb) -
                        static_cast<std::uint64_t>(ka);
}

/// ULP-aware closeness: passes when the values are within `max_ulps`
/// representable doubles of each other OR within `abs_tol` absolutely.
/// The absolute escape hatch matters near zero, where cancellation can
/// leave two mathematically-equal sums astronomically many ULPs apart
/// (ULP size at 1e-18 is ~1e-34).
inline void expect_ulp_near(std::span<const real_t> a,
                            std::span<const real_t> b,
                            std::uint64_t max_ulps = 256,
                            double abs_tol = 1e-12) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) <= abs_tol) continue;
    EXPECT_LE(ulp_distance(a[i], b[i]), max_ulps)
        << "at index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// EXPECT bit-identical vectors (reported as values, compared as bits —
/// catches -0.0 vs +0.0 and NaN-payload drift that == would hide).
inline void expect_bit_identical(std::span<const real_t> a,
                                 std::span<const real_t> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "at index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Inputs of the SMO scan kernels (wss_high_low, wss_gain and the fused
/// smo_update_select), laid out as the solver keeps them.
struct WssScanInput {
  std::vector<real_t> f, kdiag, k_high;
  std::vector<std::uint8_t> status;
  real_t b_high = 0.0;
  real_t k_hh = 1.0;
  /// The Eq. 4 update f += d_hi * k_high + d_lo * k_low.
  std::vector<real_t> k_low;
  real_t d_hi = 0.0;
  real_t d_lo = 0.0;
};

/// Runs both scans of `kt` on [lo, hi): {high, low, gain}, indices
/// relative to lo.
inline std::array<simd::Argmax, 3> run_wss_scans(const simd::KernelTable& kt,
                                                 const WssScanInput& in,
                                                 index_t lo, index_t hi) {
  std::array<simd::Argmax, 3> r;
  const auto l = static_cast<std::size_t>(lo);
  kt.wss_high_low(in.f.data() + l, in.status.data() + l, hi - lo, r.data());
  r[2] = kt.wss_gain(in.f.data() + l, in.status.data() + l,
                     in.kdiag.data() + l, in.k_high.data() + l, hi - lo,
                     in.b_high, in.k_hh, 1e-12);
  return r;
}

/// Runs `kt.smo_update_select` on [lo, hi) of `f` (a copy of in.f):
/// {high, low}, indices relative to lo.
inline std::array<simd::Argmax, 2> run_update_select(
    const simd::KernelTable& kt, const WssScanInput& in, index_t lo,
    index_t hi, std::vector<real_t>& f) {
  std::array<simd::Argmax, 2> r;
  const auto l = static_cast<std::size_t>(lo);
  kt.smo_update_select(f.data() + l, in.k_high.data() + l,
                       in.k_low.data() + l, in.d_hi, in.d_lo,
                       in.status.data() + l, hi - lo, r.data());
  return r;
}

/// What smo_update_select must equal: the solver's Eq. 4 loop on [lo, hi)
/// of `f` (a copy of in.f), then `kt.wss_high_low` over the updated values.
inline std::array<simd::Argmax, 2> update_then_scan(
    const simd::KernelTable& kt, const WssScanInput& in, index_t lo,
    index_t hi, std::vector<real_t>& f) {
  const auto l = static_cast<std::size_t>(lo);
  for (std::size_t i = l; i < static_cast<std::size_t>(hi); ++i) {
    f[i] += in.d_hi * in.k_high[i] + in.d_lo * in.k_low[i];
  }
  std::array<simd::Argmax, 2> r;
  kt.wss_high_low(f.data() + l, in.status.data() + l, hi - lo, r.data());
  return r;
}

/// EXPECT two scan results to agree exactly: the same index and the same
/// score bits.
template <std::size_t N>
void expect_same_argmax(const std::array<simd::Argmax, N>& got,
                        const std::array<simd::Argmax, N>& want) {
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].index, want[k].index) << "scan " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].value),
              std::bit_cast<std::uint64_t>(want[k].value))
        << "scan " << k << ": " << got[k].value << " vs " << want[k].value;
  }
}

}  // namespace ls::test
