// Thread-count invariance tests.
//
// The deterministic-parallelism contract: for a fixed seed, the scheduler
// decision and the trained SVM model are BIT-identical at any
// OMP_NUM_THREADS. The primitives that make that possible are
// parallel_reduce / parallel_reduce_blocks (chunk-ordered folds, the
// latter carrying the SMO working-set scans above their serial cutoff)
// plus elementwise parallel_for updates. The SMO scans must also give the same model at
// every SIMD level. The empirical autotuner is exempt by design — it races
// wall-clock timings — so the invariance tests pin the heuristic policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "kernels/simd.hpp"
#include "sched/scheduler.hpp"
#include "svm/trainer.hpp"
#include "test_util.hpp"

namespace {

using namespace ls;

using test::with_threads;

std::vector<int> thread_counts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return {1, 4, hw > 0 ? hw : 2};
}

// ---------------------------------------------------------------------------
// Deterministic parallel primitives.

TEST(Invariance, ParallelReduceAssociativeFoldThreadInvariant) {
  // Integer sum and max are associative, so the chunked fold must give the
  // serial answer at every thread count (n > 4096 to cross the parallel
  // threshold).
  const index_t n = 10000;
  Rng rng(0x41u);
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform_int(-1000, 1000);
  std::int64_t serial_sum = 0;
  for (auto x : v) serial_sum += x;

  for (int t : thread_counts()) {
    const std::int64_t sum = with_threads(t, [&] {
      return parallel_reduce(
          n, std::int64_t{0},
          [&](index_t i) { return v[static_cast<std::size_t>(i)]; },
          [](std::int64_t a, std::int64_t b) { return a + b; });
    });
    EXPECT_EQ(sum, serial_sum) << "threads=" << t;
  }
}

TEST(Invariance, ParallelReduceSerialBelowThreshold) {
  // Small n must take the exact serial fold regardless of thread count —
  // even a non-associative (floating-point) fold is then bit-stable.
  const index_t n = 1000;
  Rng rng(0x42u);
  std::vector<real_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  real_t serial = 0.0;
  for (auto x : v) serial += x;

  const real_t folded = with_threads(4, [&] {
    return parallel_reduce(
        n, real_t{0.0},
        [&](index_t i) { return v[static_cast<std::size_t>(i)]; },
        [](real_t a, real_t b) { return a + b; });
  });
  EXPECT_EQ(folded, serial);
}

TEST(Invariance, BatchKernelThreadInvariant) {
  Rng rng(0x44u);
  const CooMatrix coo = test::random_matrix(300, 80, 0.2, rng);
  const std::vector<real_t> lane_a = test::random_vector(80, rng);
  const std::vector<real_t> lane_b = test::random_vector(80, rng);
  std::vector<real_t> w(80 * 2);
  for (std::size_t j = 0; j < 80; ++j) {
    w[j * 2] = lane_a[j];
    w[j * 2 + 1] = lane_b[j];
  }
  for (Format f : {Format::kCSR, Format::kDEN, Format::kELL}) {
    const AnyMatrix mat = AnyMatrix::from_coo(coo, f);
    std::vector<real_t> y1(300 * 2), y4(300 * 2);
    with_threads(1, [&] {
      mat.multiply_dense_batch(w, 2, y1);
      return 0;
    });
    with_threads(4, [&] {
      mat.multiply_dense_batch(w, 2, y4);
      return 0;
    });
    test::expect_bit_identical(y1, y4);
  }
}

// ---------------------------------------------------------------------------
// Scheduler and solver invariance.

TEST(Invariance, HeuristicDecisionThreadInvariant) {
  Rng rng(0x45u);
  const CooMatrix coo = make_banded(600, 600, {0, 1, -1, 3, -3}, 1.0, rng);
  const MatrixFeatures base_feat = extract_features(coo);
  const CostCalibration cal = CostCalibration::uniform();
  const ScheduleDecision base = HeuristicSelector(cal).choose(base_feat);

  for (int t : thread_counts()) {
    const ScheduleDecision d = with_threads(t, [&] {
      return HeuristicSelector(cal).choose(extract_features(coo));
    });
    EXPECT_EQ(d.format, base.format) << "threads=" << t;
    test::expect_bit_identical(
        std::span<const real_t>(d.score_seconds),
        std::span<const real_t>(base.score_seconds));
  }
}

TEST(Invariance, FeatureExtractionThreadInvariant) {
  Rng rng(0x46u);
  const CooMatrix coo = test::random_matrix(500, 120, 0.08, rng);
  const std::string base = extract_features(coo).to_string();
  for (int t : thread_counts()) {
    const std::string got =
        with_threads(t, [&] { return extract_features(coo).to_string(); });
    EXPECT_EQ(got, base) << "threads=" << t;
  }
}

/// Deterministic training run: fixed CSR layout (no timing in the loop),
/// capped iterations so the test is fast whether or not it converges.
TrainResult train_deterministic(const Dataset& ds) {
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.25;
  params.c = 1.0;
  params.max_iterations = 150;
  return train_fixed_format(ds, params, Format::kCSR);
}

/// `rows` random sparse samples with planted labels.
Dataset invariance_dataset(index_t rows) {
  Rng rng(0x47u);
  Dataset ds;
  ds.name = "invariance";
  std::vector<index_t> lens(static_cast<std::size_t>(rows), 6);
  ds.X = make_random_sparse(rows, 48, lens, rng);
  ds.y = plant_labels(ds.X, 0.1, 7);
  return ds;
}

void expect_same_model(const TrainResult& a, const TrainResult& b,
                       int context) {
  EXPECT_EQ(a.stats.iterations, b.stats.iterations) << context;
  EXPECT_EQ(a.stats.converged, b.stats.converged) << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.model.rho),
            std::bit_cast<std::uint64_t>(b.model.rho))
      << context;
  ASSERT_EQ(a.model.coef.size(), b.model.coef.size()) << context;
  test::expect_bit_identical(a.model.coef, b.model.coef);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stats.b_high),
            std::bit_cast<std::uint64_t>(b.stats.b_high))
      << context;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.stats.b_low),
            std::bit_cast<std::uint64_t>(b.stats.b_low))
      << context;
}

TEST(Invariance, SvmModelBitIdenticalAcrossThreadCounts) {
  // 4500 samples run the working-set scans as one kernel call; the second
  // case is big enough that they split across the team and fold blocks.
  static_assert(SmoSolver::kSerialScanMax >= 4500);
  for (index_t rows : {index_t{4500}, SmoSolver::kSerialScanMax + 3001}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const Dataset ds = invariance_dataset(rows);
    const TrainResult base =
        with_threads(1, [&] { return train_deterministic(ds); });
    EXPECT_GT(base.stats.iterations, 0);
    for (int t : thread_counts()) {
      const TrainResult got =
          with_threads(t, [&] { return train_deterministic(ds); });
      expect_same_model(base, got, t);
    }
  }
}

TEST(Invariance, LibsvmBaselineModelBitIdenticalAcrossSimdLevels) {
  // The baseline's merge-join kernel rows do not depend on the SIMD level,
  // so only the working-set scans run level-specific code: every level
  // must select the same pairs and give a bit-identical model.
  Rng rng(0x48u);
  Dataset ds;
  ds.name = "simd-levels";
  ds.X = test::random_matrix(700, 24, 0.3, rng);
  ds.y = plant_labels(ds.X, 0.1, 9);
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.5;
  TrainResult base;
  {
    simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    base = train_libsvm_baseline(ds, params);
  }
  ASSERT_TRUE(base.stats.converged);
  for (int l = 1; l < simd::kNumSimdLevels; ++l) {
    const auto level = static_cast<simd::SimdLevel>(l);
    if (!simd::level_supported(level)) continue;
    simd::ScopedSimdLevel guard(level);
    const TrainResult got = train_libsvm_baseline(ds, params);
    SCOPED_TRACE(std::string(simd::level_name(level)));
    expect_same_model(base, got, l);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.stats.objective),
              std::bit_cast<std::uint64_t>(base.stats.objective));
  }
}

}  // namespace
