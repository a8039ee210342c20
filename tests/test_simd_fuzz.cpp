// Seeded differential fuzz for the SIMD dispatch layer.
//
// Two generators, both deterministic from a base seed (override with
// LS_FUZZ_SEED to replay a failure — every assertion carries the trial
// seed in its trace, so a red line names the exact case to re-run):
//  * matrix fuzz: random (format x density x shape x batch width) cases
//    multiplied at every supported LS_SIMD level and compared against the
//    scalar reference (ULP) plus the per-level lane bit-identity check;
//  * kernel fuzz: raw dispatch-table entry points on random lengths,
//    unaligned offsets and index patterns, including the SMO working-set
//    scans (exact index agreement on tie-heavy, inf/NaN-laced inputs).
// The suite also runs under ASan/UBSan and TSan via scripts/check.sh; a
// finding there is a failure even when the numerics agree.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "formats/any_matrix.hpp"
#include "kernels/simd.hpp"
#include "test_util.hpp"

namespace {

using namespace ls;
using simd::SimdLevel;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("LS_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xF0220808ull;
}

std::vector<SimdLevel> supported_vector_levels() {
  std::vector<SimdLevel> out;
  for (int l = 1; l < simd::kNumSimdLevels; ++l) {
    const auto level = static_cast<SimdLevel>(l);
    if (simd::level_supported(level)) out.push_back(level);
  }
  return out;
}

std::vector<real_t> lane_of(const std::vector<real_t>& y, index_t b,
                            index_t q) {
  std::vector<real_t> out(y.size() / static_cast<std::size_t>(b));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = y[i * static_cast<std::size_t>(b) + static_cast<std::size_t>(q)];
  }
  return out;
}

TEST(SimdFuzz, RandomMatricesAgreeAcrossLevels) {
  const std::vector<SimdLevel> levels = supported_vector_levels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only host: nothing to compare";
  constexpr int kTrials = 60;
  const double densities[] = {0.01, 0.05, 0.15, 0.4, 0.8, 1.0};

  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed = base_seed() + static_cast<std::uint64_t>(t);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (replay: LS_FUZZ_SEED=" + std::to_string(seed) +
                 " with kTrials>=1)");
    Rng rng(seed);
    const index_t m = rng.uniform_int(1, 48);
    const index_t n = rng.uniform_int(1, 48);
    const double density = densities[rng.uniform_int(
        0, static_cast<index_t>(std::size(densities)) - 1)];
    const Format f = kAllFormats[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<index_t>(kAllFormats.size()) - 1))];
    const index_t b = rng.uniform_int(1, kMaxSmsvBatch);
    SCOPED_TRACE(std::string(format_name(f)) + " " + std::to_string(m) + "x" +
                 std::to_string(n) + " density=" + std::to_string(density) +
                 " b=" + std::to_string(b));

    const CooMatrix coo = test::random_matrix(m, n, density, rng);
    const AnyMatrix mat = AnyMatrix::from_coo(coo, f);
    const std::vector<real_t> w = test::random_vector(n, rng);
    std::vector<real_t> wb(static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(b));
    for (auto& x : wb) x = rng.uniform(-1.0, 1.0);

    std::vector<real_t> y_scalar(static_cast<std::size_t>(m));
    std::vector<real_t> yb_scalar(static_cast<std::size_t>(m) *
                                  static_cast<std::size_t>(b));
    {
      simd::ScopedSimdLevel guard(SimdLevel::kScalar);
      mat.multiply_dense(w, y_scalar);
      mat.multiply_dense_batch(wb, b, yb_scalar);
    }

    for (SimdLevel level : levels) {
      SCOPED_TRACE(std::string(simd::level_name(level)));
      simd::ScopedSimdLevel guard(level);
      std::vector<real_t> y(static_cast<std::size_t>(m));
      std::vector<real_t> yb(y.size() * static_cast<std::size_t>(b));
      mat.multiply_dense(w, y);
      mat.multiply_dense_batch(wb, b, yb);
      test::expect_ulp_near(y, y_scalar);
      test::expect_ulp_near(yb, yb_scalar);
      // Lane bit-identity at the vector level itself: pick one lane per
      // trial instead of all b (the exhaustive sweep lives in
      // test_differential.cpp).
      const index_t q = rng.uniform_int(0, b - 1);
      std::vector<real_t> wq(static_cast<std::size_t>(n));
      for (index_t j = 0; j < n; ++j) {
        wq[static_cast<std::size_t>(j)] =
            wb[static_cast<std::size_t>(j * b + q)];
      }
      std::vector<real_t> yq(static_cast<std::size_t>(m));
      mat.multiply_dense(wq, yq);
      test::expect_bit_identical(lane_of(yb, b, q), yq);
    }
  }
}

TEST(SimdFuzz, RawKernelsAgreeAcrossLevelsOnRandomShapes) {
  const std::vector<SimdLevel> levels = supported_vector_levels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only host: nothing to compare";
  constexpr int kTrials = 150;
  constexpr index_t kMaxLen = 200;
  constexpr index_t kWorkspace = 128;

  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed =
        base_seed() ^ (0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const index_t n = rng.uniform_int(0, kMaxLen);
    const auto off = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const index_t b = rng.uniform_int(1, kMaxSmsvBatch);
    SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off) +
                 " b=" + std::to_string(b));

    AlignedBuffer<real_t> v(static_cast<std::size_t>(kMaxLen) + 8);
    AlignedBuffer<index_t> c(static_cast<std::size_t>(kMaxLen) + 8);
    for (auto& x : v) x = rng.uniform(-3.0, 3.0);
    for (auto& i : c) i = rng.uniform_int(0, kWorkspace - 1);
    // Doubles as the dense second operand (length >= n + off) and the
    // gather workspace (indices < kWorkspace).
    AlignedBuffer<real_t> w(static_cast<std::size_t>(kMaxLen) + 8);
    for (auto& x : w) x = rng.uniform(-3.0, 3.0);
    AlignedBuffer<real_t> wb(static_cast<std::size_t>(kWorkspace) *
                             static_cast<std::size_t>(b));
    for (auto& x : wb) x = rng.uniform(-1.0, 1.0);

    real_t dot_s = 0.0, sdot_s = 0.0;
    std::vector<real_t> ax_s(static_cast<std::size_t>(kMaxLen) + 8, 0.5);
    std::vector<real_t> bdot_s(static_cast<std::size_t>(b));
    {
      simd::ScopedSimdLevel guard(SimdLevel::kScalar);
      const simd::KernelTable& kt = simd::kernels();
      dot_s = kt.dense_row_dot(v.data() + off, w.data() + off % 2, n);
      sdot_s = kt.sparse_row_dot(v.data() + off, c.data() + off, n, w.data());
      kt.gather_axpy(v.data() + off, c.data() + off, n, w.data(), ax_s.data());
      kt.sparse_row_batch(v.data() + off, c.data() + off, n, wb.data(), b,
                          bdot_s.data());
    }

    for (SimdLevel level : levels) {
      SCOPED_TRACE(std::string(simd::level_name(level)));
      simd::ScopedSimdLevel guard(level);
      const simd::KernelTable& kt = simd::kernels();
      const std::vector<real_t> dot{
          kt.dense_row_dot(v.data() + off, w.data() + off % 2, n)};
      test::expect_ulp_near(dot, std::vector<real_t>{dot_s});
      const std::vector<real_t> sdot{
          kt.sparse_row_dot(v.data() + off, c.data() + off, n, w.data())};
      test::expect_ulp_near(sdot, std::vector<real_t>{sdot_s});
      std::vector<real_t> ax(ax_s.size(), 0.5);
      kt.gather_axpy(v.data() + off, c.data() + off, n, w.data(), ax.data());
      test::expect_ulp_near(ax, ax_s);
      std::vector<real_t> bdot(static_cast<std::size_t>(b));
      kt.sparse_row_batch(v.data() + off, c.data() + off, n, wb.data(), b,
                          bdot.data());
      test::expect_ulp_near(bdot, bdot_s);
    }
  }
}

TEST(SimdFuzz, WssScansAgreeAcrossLevelsOnRandomInputs) {
  // The SMO scans return an index, so every level must match the scalar
  // table exactly. Scores mix ties across lanes, +-inf, NaN and eta <= 0.
  const std::vector<SimdLevel> levels = supported_vector_levels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only host: nothing to compare";
  constexpr int kTrials = 200;
  constexpr real_t kInf = std::numeric_limits<real_t>::infinity();
  const real_t specials[] = {kInf, -kInf,
                             std::numeric_limits<real_t>::quiet_NaN()};

  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed =
        base_seed() ^ (0xC2B2AE3D27D4EB4Full + static_cast<std::uint64_t>(t));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const index_t n = rng.uniform_int(0, 300);
    const index_t off = rng.uniform_int(0, 7);
    const double p_special = rng.uniform(0.0, 0.2);
    const std::uint8_t status_mask =
        static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off));

    test::WssScanInput in;
    const auto len = static_cast<std::size_t>(n + off);
    in.f.resize(len);
    in.status.resize(len);
    in.kdiag.resize(len);
    in.k_high.resize(len);
    in.b_high = 0.25 * static_cast<real_t>(rng.uniform_int(-4, 4));
    in.k_hh = 0.5 * static_cast<real_t>(rng.uniform_int(0, 2));
    for (std::size_t i = 0; i < len; ++i) {
      // Coarse levels: equal scores recur within and across blocks.
      in.f[i] = 0.25 * static_cast<real_t>(rng.uniform_int(-6, 6));
      if (rng.bernoulli(p_special)) {
        in.f[i] = specials[rng.uniform_int(0, 2)];
      }
      in.status[i] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 3) & status_mask);
      in.kdiag[i] = 0.5 * static_cast<real_t>(rng.uniform_int(0, 2));
      in.k_high[i] = 0.5 * static_cast<real_t>(rng.uniform_int(-1, 2));
    }

    std::array<simd::Argmax, 3> want;
    {
      simd::ScopedSimdLevel guard(SimdLevel::kScalar);
      want = test::run_wss_scans(simd::kernels(), in, off, off + n);
    }
    for (SimdLevel level : levels) {
      SCOPED_TRACE(std::string(simd::level_name(level)));
      simd::ScopedSimdLevel guard(level);
      test::expect_same_argmax(
          test::run_wss_scans(simd::kernels(), in, off, off + n), want);
    }
  }
}

TEST(SimdFuzz, SmoUpdateSelectAgreesAcrossLevelsOnRandomInputs) {
  // The fused Eq. 4 update + high/low pass against the scalar loop and the
  // scalar pass: random lengths and offsets, +-inf and NaN f, coarse
  // values (ties, +-0.0 products), inexact products (where a fused
  // multiply-add would round differently) and random status bytes.
  const std::vector<SimdLevel> levels = supported_vector_levels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only host: nothing to compare";
  constexpr int kTrials = 200;
  constexpr real_t kInf = std::numeric_limits<real_t>::infinity();
  const real_t specials[] = {kInf, -kInf,
                             std::numeric_limits<real_t>::quiet_NaN()};

  for (int t = 0; t < kTrials; ++t) {
    const std::uint64_t seed =
        base_seed() ^ (0x165667B19E3779F9ull + static_cast<std::uint64_t>(t));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    const index_t n = rng.uniform_int(0, 300);
    const index_t off = rng.uniform_int(0, 7);
    const double p_special = rng.uniform(0.0, 0.2);
    SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off));

    test::WssScanInput in;
    const auto len = static_cast<std::size_t>(n + off);
    in.f.resize(len);
    in.k_high.resize(len);
    in.k_low.resize(len);
    in.status.resize(len);
    // Coarse half the time, else an arbitrary double.
    const auto draw = [&](real_t step, index_t range) {
      return rng.bernoulli(0.5)
                 ? step * static_cast<real_t>(rng.uniform_int(-range, range))
                 : rng.uniform(-1.0, 1.0);
    };
    in.d_hi = draw(0.25, 4);
    in.d_lo = draw(0.25, 4);
    for (std::size_t i = 0; i < len; ++i) {
      in.f[i] = 0.25 * static_cast<real_t>(rng.uniform_int(-6, 6));
      // Specials only in f, so no NaN meets another NaN in an add.
      if (rng.bernoulli(p_special)) {
        in.f[i] = specials[rng.uniform_int(0, 2)];
      }
      in.k_high[i] = draw(0.5, 2);
      in.k_low[i] = draw(0.5, 2);
      in.status[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }

    std::vector<real_t> want_f = in.f;
    std::array<simd::Argmax, 2> want;
    {
      simd::ScopedSimdLevel guard(SimdLevel::kScalar);
      want = test::update_then_scan(simd::kernels(), in, off, off + n, want_f);
    }
    for (SimdLevel level : levels) {
      SCOPED_TRACE(std::string(simd::level_name(level)));
      simd::ScopedSimdLevel guard(level);
      std::vector<real_t> f = in.f;
      test::expect_same_argmax(
          test::run_update_select(simd::kernels(), in, off, off + n, f), want);
      test::expect_bit_identical(f, want_f);
    }
  }
}

}  // namespace
