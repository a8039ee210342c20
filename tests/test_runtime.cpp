// Tests for the runtime extensions: batch prediction, SVR serialisation,
// linear weights, heuristic sanity and ROC AUC.
#include <gtest/gtest.h>

#include <sstream>

#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "common/timer.hpp"
#include "data/features.hpp"
#include "sched/selector.hpp"
#include "svm/batch_predict.hpp"
#include "svm/kernel_engine.hpp"
#include "svm/serialize.hpp"
#include "svm/trainer.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

// ------------------------------------------------------ batch predictor

Dataset planted(index_t rows, index_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds;
  ds.name = "bp";
  ds.X = test::random_matrix(rows, cols, 0.4, rng);
  ds.y = plant_labels(ds.X, 0.05, seed ^ 0xAB);
  return ds;
}

class BatchPredictKernels : public ::testing::TestWithParam<KernelType> {};

TEST_P(BatchPredictKernels, MatchesPerRowPrediction) {
  const Dataset ds = planted(80, 12, 60);
  const auto [train, test] = ds.split(0.7, 5);
  SvmParams params;
  params.kernel.type = GetParam();
  params.kernel.gamma = 0.4;
  params.kernel.coef0 = 1.0;
  const TrainResult r = train_fixed_format(train, params, Format::kCSR);
  ASSERT_TRUE(r.stats.converged);

  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kHeuristic;
  const BatchPredictor batch(r.model, sched);

  SparseVector row;
  const std::vector<real_t> values = batch.decision_values(test);
  for (index_t i = 0; i < test.rows(); ++i) {
    test.X.gather_row(i, row);
    EXPECT_NEAR(values[static_cast<std::size_t>(i)], r.model.decision(row),
                1e-9)
        << "row " << i;
  }
  EXPECT_NEAR(batch.accuracy(test), r.model.accuracy(test), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, BatchPredictKernels,
                         ::testing::Values(KernelType::kLinear,
                                           KernelType::kGaussian,
                                           KernelType::kPolynomial),
                         [](const auto& info) {
                           return kernel_name(info.param);
                         });

TEST(BatchPredictor, SchedulesTheSupportVectorMatrix) {
  const Dataset ds = planted(100, 10, 61);
  SvmParams params;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kEmpirical;
  sched.autotune.sample_rows = 0;
  const BatchPredictor batch(r.model, sched);
  // A layout was chosen (any of the basic five).
  bool known = false;
  for (Format f : kAllFormats) known |= batch.layout() == f;
  EXPECT_TRUE(known);
}

TEST(BatchPredictor, RejectsEmptyModelsAndWideData) {
  SvmModel empty;
  empty.num_features = 4;
  EXPECT_THROW(BatchPredictor{empty}, Error);

  const Dataset ds = planted(30, 6, 62);
  SvmParams params;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kFixed;
  const BatchPredictor batch(r.model, sched);
  Dataset wide = planted(5, 9, 63);  // more features than the model
  EXPECT_THROW(batch.decision_values(wide), Error);
}

// --------------------------------------------------- SVR serialization

TEST(SvrSerialize, RoundTripPreservesPredictions) {
  // Fit sin-like targets, save, reload, compare predictions exactly.
  Dataset ds;
  ds.name = "svr_ser";
  std::vector<Triplet> t;
  std::vector<real_t> y;
  for (index_t i = 0; i < 40; ++i) {
    const real_t x = 0.1 * static_cast<real_t>(i + 1);
    t.push_back({i, 0, x});
    y.push_back(std::sin(x));
  }
  ds.X = CooMatrix(40, 1, std::move(t));
  ds.y = std::move(y);

  SvrParams params;
  params.epsilon = 0.02;
  params.svm.c = 20.0;
  params.svm.kernel.type = KernelType::kGaussian;
  params.svm.kernel.gamma = 2.0;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kHeuristic;
  const SvrResult r = train_svr(ds, params, sched);
  ASSERT_FALSE(r.model.support_vectors.empty());

  std::stringstream buffer;
  save_svr(buffer, r.model);
  const SvrModel back = load_svr(buffer);
  for (real_t x : {0.15, 1.3, 2.7, 3.9}) {
    SparseVector probe({0}, {x});
    EXPECT_DOUBLE_EQ(back.predict(probe), r.model.predict(probe));
  }
  // An SVR stream must not load as a classification model and vice versa.
  std::stringstream again;
  save_svr(again, r.model);
  EXPECT_THROW(load_model(again), Error);
}

// ------------------------------------------------------ linear weights

TEST(LinearWeights, PrimalFormMatchesTheKernelExpansion) {
  const Dataset ds = planted(70, 9, 71);
  SvmParams params;  // linear kernel
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  const std::vector<real_t> w = r.model.linear_weights();
  ASSERT_EQ(w.size(), 9u);

  SparseVector row;
  for (index_t i = 0; i < ds.rows(); i += 7) {
    ds.X.gather_row(i, row);
    const real_t primal = row.dot_dense(w) - r.model.rho;
    EXPECT_NEAR(primal, r.model.decision(row), 1e-9) << "row " << i;
  }
}

TEST(LinearWeights, RejectsNonlinearKernels) {
  SvmModel model;
  model.kernel.type = KernelType::kGaussian;
  model.num_features = 3;
  EXPECT_THROW(model.linear_weights(), Error);
}

// -------------------------------------------- heuristic sanity property

TEST(HeuristicSanity, NeverPicksACatastrophicFormat) {
  // On every evaluated profile, the heuristic's pick must measure within
  // 5x of the best format (it routinely lands within ~1.2x; the loose
  // bound keeps the test robust to timing noise while still catching a
  // broken cost model, which would err by 10-300x).
  KernelParams kernel;
  for (const DatasetProfile& profile : evaluated_profiles()) {
    const Dataset ds = profile.generate();
    const ScheduleDecision d =
        HeuristicSelector().choose(extract_features(ds.X));
    double best = 1e300;
    double picked = 0.0;
    for (Format f : kAllFormats) {
      const AnyMatrix mat = AnyMatrix::from_coo(ds.X, f);
      FormatKernelEngine engine(mat, kernel);
      std::vector<real_t> row(static_cast<std::size_t>(ds.rows()));
      const double s = time_best([&] { engine.compute_row(7, row); }, 3,
                                 0.002);
      best = std::min(best, s);
      if (f == d.format) picked = s;
    }
    EXPECT_LT(picked, 5.0 * best) << profile.name << " picked "
                                  << format_name(d.format);
  }
}

// ----------------------------------------------------------------- AUC

TEST(RocAuc, PerfectAndRandomRankings) {
  const Dataset ds = planted(120, 10, 70);
  SvmParams params;
  params.c = 10.0;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  const double auc = roc_auc(r.model, ds);
  // Planted labels with 5% noise: the ranking should be far above chance.
  EXPECT_GT(auc, 0.85);
  EXPECT_LE(auc, 1.0);
}

TEST(RocAuc, HandComputedTies) {
  // A model with one SV so decision = coef * K - rho is monotone in the
  // single feature; craft a dataset with a tie.
  SvmModel model;
  model.num_features = 1;
  model.support_vectors.push_back(SparseVector({0}, {1.0}));
  model.coef = {1.0};
  model.rho = 0.0;  // decision(x) = x

  Dataset ds;
  ds.name = "auc";
  // Scores: -1 (neg), 1 (pos), 1 (neg), 2 (pos)  => pairs: (pos>neg):
  // 1>-1 ok, 1 vs 1 tie (0.5), 2>-1 ok, 2>1 ok => AUC = 3.5/4.
  ds.X = CooMatrix(4, 1,
                   {{0, 0, -1.0}, {1, 0, 1.0}, {2, 0, 1.0}, {3, 0, 2.0}});
  ds.y = {-1.0, 1.0, -1.0, 1.0};
  EXPECT_NEAR(roc_auc(model, ds), 3.5 / 4.0, 1e-12);

  // Single-class input throws.
  ds.y = {1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(roc_auc(model, ds), Error);
}

}  // namespace
}  // namespace ls
