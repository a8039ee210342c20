// Tests for the runtime extensions: batch prediction and heuristic sanity.
#include <gtest/gtest.h>

#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "common/timer.hpp"
#include "data/features.hpp"
#include "sched/selector.hpp"
#include "svm/batch_predict.hpp"
#include "svm/kernel_engine.hpp"
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

}  // namespace
}  // namespace ls
