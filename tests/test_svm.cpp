// Tests for the SVM library: kernel functions (Table I), kernel-row
// engines, the LRU cache, the SMO solver's analytic solutions and KKT
// conditions, model extraction/prediction, the trainers, multiclass and the
// SMO convergence trace hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "svm/cache.hpp"
#include "svm/kernel.hpp"
#include "svm/kernel_engine.hpp"
#include "svm/model.hpp"
#include "svm/multiclass.hpp"
#include "svm/smo.hpp"
#include "svm/trainer.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

// ------------------------------------------------------------- kernels

TEST(Kernel, TableIFormulas) {
  KernelParams p;
  const real_t dot = 0.5, nu = 2.0, nv = 3.0;

  p.type = KernelType::kLinear;
  EXPECT_DOUBLE_EQ(kernel_from_dot(p, dot, nu, nv), 0.5);

  p.type = KernelType::kPolynomial;
  p.gamma = 2.0;
  p.coef0 = 1.0;
  p.degree = 3;
  EXPECT_DOUBLE_EQ(kernel_from_dot(p, dot, nu, nv), std::pow(2.0, 3));

  p.type = KernelType::kGaussian;
  p.gamma = 0.25;
  // ||u - v||^2 = 2 + 3 - 1 = 4.
  EXPECT_DOUBLE_EQ(kernel_from_dot(p, dot, nu, nv), std::exp(-1.0));

  p.type = KernelType::kSigmoid;
  p.gamma = 1.0;
  p.coef0 = 0.5;
  EXPECT_DOUBLE_EQ(kernel_from_dot(p, dot, nu, nv), std::tanh(1.0));
}

TEST(Kernel, GaussianSelfSimilarityIsOne) {
  KernelParams p;
  p.type = KernelType::kGaussian;
  p.gamma = 3.7;
  EXPECT_DOUBLE_EQ(kernel_from_dot(p, 5.0, 5.0, 5.0), 1.0);
}

TEST(Kernel, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_kernel("linear"), KernelType::kLinear);
  EXPECT_EQ(parse_kernel("rbf"), KernelType::kGaussian);
  EXPECT_EQ(parse_kernel("poly"), KernelType::kPolynomial);
  EXPECT_EQ(parse_kernel("sigmoid"), KernelType::kSigmoid);
  EXPECT_THROW(parse_kernel("quantum"), Error);
  EXPECT_STREQ(kernel_name(KernelType::kGaussian), "gaussian");
}

// -------------------------------------------------------- kernel engines

class EngineAgreement : public ::testing::TestWithParam<KernelType> {};

TEST_P(EngineAgreement, FormatEngineMatchesLibsvmEngine) {
  Rng rng(31);
  const CooMatrix coo = test::random_matrix(40, 25, 0.3, rng);
  KernelParams params;
  params.type = GetParam();
  params.gamma = 0.5;
  params.coef0 = 1.0;
  params.degree = 2;

  LibsvmKernelEngine baseline(coo, params);
  std::vector<real_t> expected(40), got(40);

  for (Format f : kAllFormats) {
    const AnyMatrix mat = AnyMatrix::from_coo(coo, f);
    FormatKernelEngine engine(mat, params);
    for (index_t i : {index_t{0}, index_t{17}, index_t{39}}) {
      baseline.compute_row(i, expected);
      engine.compute_row(i, got);
      test::expect_near(got, expected, 1e-9);
      EXPECT_NEAR(engine.diagonal(i), baseline.diagonal(i), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EngineAgreement,
                         ::testing::Values(KernelType::kLinear,
                                           KernelType::kPolynomial,
                                           KernelType::kGaussian,
                                           KernelType::kSigmoid),
                         [](const auto& info) {
                           return kernel_name(info.param);
                         });

TEST(FormatKernelEngine, WorkspaceStaysCleanAcrossRows) {
  // Consecutive rows with different patterns: stale scatter residue would
  // corrupt the second row's dots.
  CooMatrix coo(3, 6,
                {{0, 0, 1.0}, {0, 5, 2.0}, {1, 2, 3.0}, {2, 0, 4.0},
                 {2, 2, 5.0}});
  KernelParams params;  // linear
  const AnyMatrix mat = AnyMatrix::from_coo(coo, Format::kCSR);
  FormatKernelEngine engine(mat, params);
  std::vector<real_t> row(3);
  engine.compute_row(0, row);
  engine.compute_row(1, row);
  // K(X_1, X_2) = 3 * 5 = 15 (columns 2 overlap only).
  EXPECT_DOUBLE_EQ(row[2], 15.0);
  EXPECT_DOUBLE_EQ(row[0], 0.0);  // rows 0 and 1 share no columns
}

TEST(KernelEngines, RowsComputedCounterIncrements) {
  Rng rng(32);
  const CooMatrix coo = test::random_matrix(10, 10, 0.5, rng);
  KernelParams params;
  const AnyMatrix mat = AnyMatrix::from_coo(coo, Format::kCSR);
  FormatKernelEngine engine(mat, params);
  std::vector<real_t> row(10);
  engine.compute_row(0, row);
  engine.compute_row(1, row);
  EXPECT_EQ(engine.rows_computed(), 2);
}

// ----------------------------------------------------------------- cache

TEST(KernelCache, HitAvoidsRecomputation) {
  Rng rng(33);
  const CooMatrix coo = test::random_matrix(20, 10, 0.4, rng);
  KernelParams params;
  const AnyMatrix mat = AnyMatrix::from_coo(coo, Format::kCSR);
  FormatKernelEngine engine(mat, params);
  KernelCache cache(engine, 1 << 20);

  const auto row_a = cache.get_row(3);
  const real_t v = row_a[5];
  cache.get_row(3);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(engine.rows_computed(), 1);
  EXPECT_DOUBLE_EQ(cache.get_row(3)[5], v);
}

TEST(KernelCache, EvictsLeastRecentlyUsed) {
  Rng rng(34);
  const CooMatrix coo = test::random_matrix(8, 8, 0.6, rng);
  KernelParams params;
  const AnyMatrix mat = AnyMatrix::from_coo(coo, Format::kCSR);
  FormatKernelEngine engine(mat, params);
  // Budget of exactly 2 rows (8 doubles each).
  KernelCache cache(engine, 2 * 8 * sizeof(real_t));

  cache.get_row(0);
  cache.get_row(1);
  cache.get_row(0);  // 0 is now MRU
  cache.get_row(2);  // evicts 1
  EXPECT_EQ(cache.resident_rows(), 2u);
  cache.get_row(0);  // still a hit
  EXPECT_EQ(cache.hits(), 2);
  cache.get_row(1);  // miss again
  EXPECT_EQ(engine.rows_computed(), 4);
}

TEST(KernelCache, StatsSnapshotSafeDuringGetRowTraffic) {
  // The serving engine's stats endpoint reads cache counters from a thread
  // other than the solver's. The accessors are acquire loads over release
  // increments, so an off-thread reader must observe monotone values
  // without racing (TSan validates the absence of data races in the
  // sanitizer build).
  Rng rng(36);
  const CooMatrix coo = test::random_matrix(64, 32, 0.4, rng);
  KernelParams params;
  const AnyMatrix mat = AnyMatrix::from_coo(coo, Format::kCSR);
  FormatKernelEngine engine(mat, params);
  KernelCache cache(engine, 16 << 10);  // 32 of the 64 rows fit

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::int64_t last_requests = 0;
    std::int64_t last_computed = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::int64_t total = cache.hits() + cache.misses();
      EXPECT_GE(total, last_requests);
      last_requests = total;
      const std::int64_t computed = engine.rows_computed();
      EXPECT_GE(computed, last_computed);
      last_computed = computed;
      EXPECT_LE(cache.resident_rows(), 32u);
    }
  });

  for (index_t pass = 0; pass < 8; ++pass) {
    for (index_t i = 0; i < 32; ++i) {
      cache.get_row((pass * 11 + i * 3) % 64);
    }
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(cache.hits() + cache.misses(), 8 * 32);
  EXPECT_GT(cache.hits(), 0);
  EXPECT_EQ(engine.rows_computed(), cache.misses());
}

TEST(KernelCache, PairwiseSpansRemainValid) {
  // The SMO usage pattern: hold two rows at once under a tiny budget.
  Rng rng(35);
  const CooMatrix coo = test::random_matrix(6, 6, 0.8, rng);
  KernelParams params;
  const AnyMatrix mat = AnyMatrix::from_coo(coo, Format::kDEN);
  FormatKernelEngine engine(mat, params);
  KernelCache cache(engine, 1);  // forces the 2-row minimum

  for (index_t a = 0; a < 6; ++a) {
    for (index_t b = 0; b < 6; ++b) {
      const auto row_a = cache.get_row(a);
      const real_t expect_ab = row_a[static_cast<std::size_t>(b)];
      const auto row_b = cache.get_row(b);
      // row_a's span must still hold valid data (symmetry check).
      EXPECT_DOUBLE_EQ(row_a[static_cast<std::size_t>(b)], expect_ab);
      EXPECT_NEAR(row_b[static_cast<std::size_t>(a)], expect_ab, 1e-12);
    }
  }
}

// ------------------------------------------------------------------- SMO

/// Builds a dataset directly from dense rows.
Dataset tiny_dataset(const std::vector<std::vector<real_t>>& rows,
                     std::vector<real_t> y) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != 0.0) {
        t.push_back({static_cast<index_t>(i), static_cast<index_t>(j),
                     rows[i][j]});
      }
    }
  }
  Dataset ds;
  ds.name = "tiny";
  ds.X = CooMatrix(static_cast<index_t>(rows.size()),
                   static_cast<index_t>(rows[0].size()), std::move(t));
  ds.y = std::move(y);
  return ds;
}

TEST(Smo, TwoPointAnalyticSolution) {
  // x1 = +1 (y=+1), x2 = -1 (y=-1): optimum alpha1 = alpha2 = 0.5, rho = 0.
  const Dataset ds = tiny_dataset({{1.0}, {-1.0}}, {1.0, -1.0});
  SvmParams params;
  params.c = 10.0;
  const TrainResult r = train_fixed_format(ds, params, Format::kDEN);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_EQ(r.stats.support_vectors, 2);
  EXPECT_NEAR(r.model.rho, 0.0, 1e-3);
  ASSERT_EQ(r.model.coef.size(), 2u);
  EXPECT_NEAR(r.model.coef[0], 0.5, 1e-6);
  EXPECT_NEAR(r.model.coef[1], -0.5, 1e-6);
  // Dual objective of the analytic solution: F = 1 - 0.5 * 1 = 0.5.
  EXPECT_NEAR(r.stats.objective, 0.5, 1e-6);
}

TEST(Smo, BoxConstraintClipsAtC) {
  // Overlapping points force alpha to the C bound.
  const Dataset ds =
      tiny_dataset({{1.0}, {0.9}, {-1.0}, {-0.9}}, {1.0, -1.0, -1.0, 1.0});
  SvmParams params;
  params.c = 0.5;
  const TrainResult r = train_fixed_format(ds, params, Format::kDEN);
  for (real_t a : r.model.coef) {
    EXPECT_LE(std::abs(a), 0.5 + 1e-9);
  }
}

TEST(Smo, XorSolvableWithGaussianKernel) {
  const Dataset ds = tiny_dataset(
      {{0.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}, {1.0, 0.0}},
      {1.0, 1.0, -1.0, -1.0});
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 2.0;
  params.c = 100.0;
  const TrainResult r = train_fixed_format(ds, params, Format::kDEN);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_DOUBLE_EQ(r.model.accuracy(ds), 1.0);
}

/// Checks final KKT conditions on a solved problem.
void check_kkt(const Dataset& ds, const SvmParams& params, Format fmt) {
  const AnyMatrix x = AnyMatrix::from_coo(ds.X, fmt);
  FormatKernelEngine engine(x, params.kernel);
  KernelCache cache(engine, 16 << 20);
  SmoSolver solver(cache, ds.y, params);
  const SolveStats stats = solver.solve();
  ASSERT_TRUE(stats.converged);

  // Constraint (2): sum alpha_i y_i = 0 and 0 <= alpha_i <= C.
  real_t balance = 0.0;
  for (index_t i = 0; i < ds.rows(); ++i) {
    const real_t a = solver.alpha()[static_cast<std::size_t>(i)];
    EXPECT_GE(a, -1e-12);
    EXPECT_LE(a, params.c + 1e-12);
    balance += a * ds.y[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(balance, 0.0, 1e-9);
  // Optimality gap closed to tolerance.
  EXPECT_LE(stats.b_low, stats.b_high + 2 * params.tolerance + 1e-12);
}

TEST(Smo, KktConditionsHoldOnRandomProblem) {
  Rng rng(36);
  Dataset ds;
  ds.name = "kkt";
  ds.X = test::random_matrix(60, 12, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.05, 9);
  SvmParams params;
  params.c = 1.0;
  check_kkt(ds, params, Format::kCSR);
}

TEST(Smo, KktHoldsWithGaussianKernelToo) {
  Rng rng(37);
  Dataset ds;
  ds.name = "kkt_rbf";
  ds.X = test::random_matrix(50, 8, 0.6, rng);
  ds.y = plant_labels(ds.X, 0.1, 10);
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.5;
  params.c = 2.0;
  check_kkt(ds, params, Format::kELL);
}

TEST(Smo, AllFormatsReachTheSameObjective) {
  Rng rng(38);
  Dataset ds;
  ds.name = "formats";
  ds.X = test::random_matrix(45, 10, 0.4, rng);
  ds.y = plant_labels(ds.X, 0.1, 11);
  SvmParams params;
  params.c = 1.0;

  double reference = 0.0;
  bool first = true;
  for (Format f : kAllFormats) {
    const TrainResult r = train_fixed_format(ds, params, f);
    ASSERT_TRUE(r.stats.converged) << format_name(f);
    if (first) {
      reference = r.stats.objective;
      first = false;
    } else {
      // Same QP, same solver: objectives agree to solver tolerance.
      EXPECT_NEAR(r.stats.objective, reference,
                  1e-3 * std::abs(reference) + 1e-6)
          << format_name(f);
    }
  }
}

TEST(Smo, FirstAndSecondOrderSelectionAgreeOnObjective) {
  Rng rng(39);
  Dataset ds;
  ds.name = "wss";
  ds.X = test::random_matrix(50, 10, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.1, 12);
  SvmParams p1;
  p1.wss = WssPolicy::kFirstOrder;
  SvmParams p2;
  p2.wss = WssPolicy::kSecondOrder;
  const TrainResult r1 = train_fixed_format(ds, p1, Format::kCSR);
  const TrainResult r2 = train_fixed_format(ds, p2, Format::kCSR);
  ASSERT_TRUE(r1.stats.converged);
  ASSERT_TRUE(r2.stats.converged);
  EXPECT_NEAR(r1.stats.objective, r2.stats.objective,
              1e-2 * std::abs(r1.stats.objective) + 1e-6);
}

TEST(Smo, RejectsNonBinaryLabels) {
  Dataset ds = tiny_dataset({{1.0}, {2.0}}, {1.0, 3.0});
  SvmParams params;
  EXPECT_THROW(train_fixed_format(ds, params, Format::kDEN), Error);
}

TEST(Smo, IterationCapStopsDivergentRuns) {
  Rng rng(41);
  Dataset ds;
  ds.name = "cap";
  ds.X = test::random_matrix(40, 8, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.3, 14);
  SvmParams params;
  params.max_iterations = 3;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  EXPECT_LE(r.stats.iterations, 3);
}

// ----------------------------------------------------- model & trainers

TEST(Model, DecisionIsKernelExpansion) {
  const Dataset ds = tiny_dataset({{2.0}, {-2.0}}, {1.0, -1.0});
  SvmParams params;
  params.c = 10.0;
  const TrainResult r = train_fixed_format(ds, params, Format::kDEN);
  SparseVector probe({0}, {3.0});
  // w = sum coef_i x_i; with alpha = 0.125 each: w = 0.5 -> decision 1.5.
  EXPECT_NEAR(r.model.decision(probe), 1.5, 1e-3);
  EXPECT_EQ(r.model.predict(probe), 1.0);
}

TEST(Trainer, AdaptiveBeatsRandomGuessOnPlantedData) {
  const DatasetProfile& profile = profile_by_name("adult");
  Dataset ds = profile.generate(21);
  // Shrink for test speed.
  std::vector<index_t> ids;
  for (index_t i = 0; i < 400; ++i) ids.push_back(i);
  ds = ds.subset(ids, ".small");
  const auto [train, test] = ds.split(0.8, 3);

  SvmParams params;
  params.c = 1.0;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kHeuristic;
  const TrainResult r = train_adaptive(train, params, sched);
  EXPECT_TRUE(r.stats.converged);
  // Planted labels with 10% noise: anything near 0.5 would mean failure.
  EXPECT_GT(r.model.accuracy(test), 0.7);
  EXPECT_GT(r.stats.support_vectors, 0);
}

TEST(Trainer, BaselineAndAdaptiveAgreeOnAccuracy) {
  Rng rng(42);
  Dataset ds;
  ds.name = "agree";
  ds.X = test::random_matrix(120, 15, 0.3, rng);
  ds.y = plant_labels(ds.X, 0.05, 15);
  SvmParams params;

  const TrainResult ours = train_fixed_format(ds, params, Format::kCSR);
  const TrainResult libsvm = train_libsvm_baseline(ds, params);
  ASSERT_TRUE(ours.stats.converged);
  ASSERT_TRUE(libsvm.stats.converged);
  EXPECT_NEAR(ours.stats.objective, libsvm.stats.objective,
              1e-3 * std::abs(ours.stats.objective) + 1e-6);
  EXPECT_NEAR(ours.model.accuracy(ds), libsvm.model.accuracy(ds), 0.03);
}

TEST(Multiclass, OneVsOneSeparatesThreeBlobs) {
  // Three well-separated 2-D blobs.
  Rng rng(44);
  std::vector<Triplet> t;
  std::vector<real_t> y;
  const real_t centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (index_t i = 0; i < 90; ++i) {
    const int k = static_cast<int>(i % 3);
    t.push_back({i, 0, centers[k][0] + rng.normal(0, 0.5)});
    t.push_back({i, 1, centers[k][1] + rng.normal(0, 0.5)});
    y.push_back(static_cast<real_t>(k + 1));
  }
  Dataset ds{"blobs", CooMatrix(90, 2, std::move(t)), std::move(y)};

  SvmParams params;
  params.c = 10.0;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kHeuristic;
  const MulticlassResult r = train_one_vs_one(ds, params, sched);
  EXPECT_EQ(r.model.machines.size(), 3u);  // 3 choose 2
  EXPECT_EQ(r.chosen_formats.size(), 3u);
  EXPECT_GT(r.model.accuracy(ds), 0.95);
}

TEST(Multiclass, OneVsRestMatchesOneVsOneOnSeparableBlobs) {
  Rng rng(45);
  std::vector<Triplet> t;
  std::vector<real_t> y;
  const real_t centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (index_t i = 0; i < 90; ++i) {
    const int k = static_cast<int>(i % 3);
    t.push_back({i, 0, centers[k][0] + rng.normal(0, 0.5)});
    t.push_back({i, 1, centers[k][1] + rng.normal(0, 0.5)});
    y.push_back(static_cast<real_t>(k + 1));
  }
  Dataset ds{"blobs_ovr", CooMatrix(90, 2, std::move(t)), std::move(y)};

  SvmParams params;
  params.c = 10.0;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kHeuristic;
  const OvrResult ovr = train_one_vs_rest(ds, params, sched);
  EXPECT_EQ(ovr.model.machines.size(), 3u);  // one per class
  EXPECT_GT(ovr.model.accuracy(ds), 0.95);
  // The shared cache across machines must produce real cross-machine hits
  // (machine 0 already computed many of the rows machines 1-2 need).
  EXPECT_GT(ovr.cache_hit_rate, 0.3);
}

TEST(Multiclass, OneVsRestSharedLayoutDecision) {
  Rng rng(46);
  Dataset ds;
  ds.name = "ovr_layout";
  ds.X = test::random_matrix(60, 20, 0.2, rng);
  ds.y.resize(60);
  for (index_t i = 0; i < 60; ++i) {
    ds.y[static_cast<std::size_t>(i)] = static_cast<real_t>(i % 3);
  }
  SvmParams params;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kFixed;
  sched.fixed_format = Format::kELL;
  const OvrResult r = train_one_vs_rest(ds, params, sched);
  EXPECT_EQ(r.layout, Format::kELL);
  EXPECT_GT(r.total_iterations, 0);
}

TEST(Multiclass, RequiresAtLeastTwoClasses) {
  Dataset ds{"one", CooMatrix(2, 1, {{0, 0, 1.0}, {1, 0, 2.0}}), {1.0, 1.0}};
  SvmParams params;
  EXPECT_THROW(train_one_vs_one(ds, params), Error);
}

// ---------------------------------------------------------- SMO trace

TEST(SmoTrace, GapShrinksAndObjectiveGrows) {
  Rng rng(0xA8);
  Dataset ds;
  ds.name = "trace";
  ds.X = test::random_matrix(60, 8, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.05, 50);

  std::vector<IterationTrace> traces;
  SvmParams params;
  params.on_trace = [&](const IterationTrace& t) { traces.push_back(t); };
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  ASSERT_TRUE(r.stats.converged);
  ASSERT_GE(traces.size(), 3u);

  // Dual objective is non-decreasing (each analytic step improves it).
  for (std::size_t k = 1; k < traces.size(); ++k) {
    EXPECT_GE(traces[k].objective, traces[k - 1].objective - 1e-9);
  }
  // The optimality gap ends below the start and under 2 * tolerance + eps.
  EXPECT_LT(traces.back().gap(), traces.front().gap());
  // Iterations are labelled 1..N.
  EXPECT_EQ(traces.front().iteration, 1);
  EXPECT_EQ(traces.back().iteration,
            static_cast<index_t>(traces.size()));
}

TEST(SmoTrace, IntervalThinsTheTrace) {
  Rng rng(0xA9);
  Dataset ds;
  ds.name = "thin";
  ds.X = test::random_matrix(50, 6, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.05, 51);
  index_t calls = 0;
  SvmParams params;
  params.on_trace = [&](const IterationTrace&) { ++calls; };
  params.trace_interval = 10;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  EXPECT_LE(calls, r.stats.iterations / 10 + 1);
}

}  // namespace
}  // namespace ls
