// Stress and failure-injection tests: adversarial matrix structures
// through every format and degenerate solver inputs.
#include <gtest/gtest.h>

#include <cmath>

#include "data/profiles.hpp"
#include "data/features.hpp"
#include "data/scaling.hpp"
#include "svm/trainer.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

// ----------------------------------------------- adversarial structures

/// Builds a named adversarial matrix.
CooMatrix adversarial_matrix(const std::string& kind) {
  if (kind == "single_full_row") {
    std::vector<Triplet> t;
    for (index_t j = 0; j < 64; ++j) t.push_back({3, j, 1.0 + j});
    return CooMatrix(16, 64, std::move(t));
  }
  if (kind == "single_full_col") {
    std::vector<Triplet> t;
    for (index_t i = 0; i < 64; ++i) t.push_back({i, 5, 2.0 + i});
    return CooMatrix(64, 16, std::move(t));
  }
  if (kind == "main_diagonal_only") {
    std::vector<Triplet> t;
    for (index_t i = 0; i < 32; ++i) t.push_back({i, i, 1.0});
    return CooMatrix(32, 32, std::move(t));
  }
  if (kind == "anti_diagonal") {
    std::vector<Triplet> t;
    for (index_t i = 0; i < 32; ++i) t.push_back({i, 31 - i, 1.0});
    return CooMatrix(32, 32, std::move(t));
  }
  if (kind == "checkerboard") {
    std::vector<Triplet> t;
    for (index_t i = 0; i < 24; ++i) {
      for (index_t j = (i % 2); j < 24; j += 2) t.push_back({i, j, 0.5});
    }
    return CooMatrix(24, 24, std::move(t));
  }
  if (kind == "first_and_last_corner") {
    return CooMatrix(100, 100, {{0, 0, 1.0}, {99, 99, 2.0}});
  }
  if (kind == "one_by_wide") {
    std::vector<Triplet> t;
    for (index_t j = 0; j < 200; j += 3) t.push_back({0, j, 1.0});
    return CooMatrix(1, 200, std::move(t));
  }
  if (kind == "tall_by_one") {
    std::vector<Triplet> t;
    for (index_t i = 0; i < 200; i += 3) t.push_back({i, 0, 1.0});
    return CooMatrix(200, 1, std::move(t));
  }
  throw Error("unknown adversarial kind " + kind);
}

struct AdversarialParam {
  std::string kind;
  Format format;
};

class AdversarialSweep : public ::testing::TestWithParam<AdversarialParam> {};

TEST_P(AdversarialSweep, MultiplyGatherRoundTripAllCorrect) {
  const auto& p = GetParam();
  const CooMatrix coo = adversarial_matrix(p.kind);
  const AnyMatrix mat = AnyMatrix::from_coo(coo, p.format);

  // Multiply against the brute-force reference.
  Rng rng(0xADE5 + static_cast<std::uint64_t>(p.format));
  const auto w = test::random_vector(coo.cols(), rng);
  std::vector<real_t> y(static_cast<std::size_t>(coo.rows()), -7.0);
  mat.multiply_dense(w, y);
  test::expect_near(y, test::reference_multiply(coo, w));

  // Round trip.
  EXPECT_EQ(mat.to_coo().nnz(), coo.nnz());

  // Gather every row.
  SparseVector expect, got;
  for (index_t i = 0; i < coo.rows(); ++i) {
    coo.gather_row(i, expect);
    mat.gather_row(i, got);
    ASSERT_EQ(got.nnz(), expect.nnz()) << p.kind << " row " << i;
  }
}

std::vector<AdversarialParam> adversarial_params() {
  std::vector<AdversarialParam> params;
  for (const char* kind :
       {"single_full_row", "single_full_col", "main_diagonal_only",
        "anti_diagonal", "checkerboard", "first_and_last_corner",
        "one_by_wide", "tall_by_one"}) {
    for (Format f : kExtendedFormats) {
      params.push_back({kind, f});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllFormats, AdversarialSweep,
    ::testing::ValuesIn(adversarial_params()), [](const auto& info) {
      return info.param.kind + "_" +
             std::string(format_name(info.param.format));
    });

// ------------------------------------------------ degenerate SVM inputs

TEST(DegenerateSvm, TwoIdenticalPointsOppositeLabels) {
  // Unsatisfiable separation: the solver must still terminate with alpha
  // at the box bound.
  Dataset ds;
  ds.name = "conflict";
  ds.X = CooMatrix(2, 1, {{0, 0, 1.0}, {1, 0, 1.0}});
  ds.y = {1.0, -1.0};
  SvmParams params;
  params.c = 1.0;
  const TrainResult r = train_fixed_format(ds, params, Format::kDEN);
  EXPECT_LE(r.stats.iterations, params.max_iterations == 0
                                    ? 200 * 2 + 20000
                                    : params.max_iterations);
  for (real_t a : r.model.coef) EXPECT_LE(std::abs(a), 1.0 + 1e-9);
}

TEST(DegenerateSvm, AllZeroFeatureMatrix) {
  Dataset ds;
  ds.name = "zeros";
  ds.X = CooMatrix(6, 4, {});
  ds.y = {1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  SvmParams params;
  for (Format f : kAllFormats) {
    const TrainResult r = train_fixed_format(ds, params, f);
    // With K = 0 everywhere the problem degenerates; the solver must not
    // crash and must respect the box.
    for (real_t a : r.model.coef) {
      EXPECT_LE(std::abs(a), params.c + 1e-9) << format_name(f);
    }
  }
}

TEST(DegenerateSvm, HeavilyImbalancedClasses) {
  Rng rng(0x1B);
  Dataset ds;
  ds.name = "imbalanced";
  ds.X = test::random_matrix(50, 8, 0.5, rng);
  ds.y.assign(50, 1.0);
  ds.y[49] = -1.0;  // one negative sample
  SvmParams params;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_GE(r.model.accuracy(ds), 0.9);  // majority class at minimum
}

TEST(DegenerateSvm, SingleFeatureDataset) {
  Dataset ds;
  ds.name = "one_dim";
  std::vector<Triplet> t;
  std::vector<real_t> y;
  for (index_t i = 0; i < 20; ++i) {
    t.push_back({i, 0, static_cast<real_t>(i) - 9.5});
    y.push_back(i < 10 ? -1.0 : 1.0);
  }
  ds.X = CooMatrix(20, 1, std::move(t));
  ds.y = std::move(y);
  SvmParams params;
  params.c = 100.0;
  const TrainResult r = train_fixed_format(ds, params, Format::kDIA);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_DOUBLE_EQ(r.model.accuracy(ds), 1.0);
}

// ---------------------------------------------------- class weights

TEST(ClassWeights, MinorityWeightShiftsTheBoundary) {
  // 1-D overlapping classes with a 9:1 imbalance. With equal weights the
  // cheapest solution sacrifices minority samples; upweighting the
  // minority class must recover more of them.
  Rng rng(0x71);
  std::vector<Triplet> t;
  std::vector<real_t> y;
  index_t row = 0;
  for (index_t i = 0; i < 45; ++i) {  // majority (+1) around +1.0
    t.push_back({row, 0, 1.0 + rng.normal(0.0, 0.8)});
    y.push_back(1.0);
    ++row;
  }
  for (index_t i = 0; i < 5; ++i) {  // minority (-1) around -1.0
    t.push_back({row, 0, -1.0 + rng.normal(0.0, 0.8)});
    y.push_back(-1.0);
    ++row;
  }
  Dataset ds{"imb", CooMatrix(row, 1, std::move(t)), std::move(y)};

  auto minority_recall = [&](const SvmParams& params) {
    const TrainResult r = train_fixed_format(ds, params, Format::kDEN);
    index_t hit = 0, total = 0;
    SparseVector probe;
    for (index_t i = 0; i < ds.rows(); ++i) {
      if (ds.y[static_cast<std::size_t>(i)] > 0) continue;
      ++total;
      ds.X.gather_row(i, probe);
      hit += r.model.predict(probe) < 0;
    }
    return static_cast<double>(hit) / static_cast<double>(total);
  };

  SvmParams flat;
  flat.c = 0.05;
  SvmParams weighted = flat;
  weighted.weight_negative = 9.0;  // balance the 9:1 ratio
  EXPECT_GE(minority_recall(weighted), minority_recall(flat));
  EXPECT_GT(minority_recall(weighted), 0.5);
}

TEST(ClassWeights, BoxRespectsPerClassC) {
  Rng rng(0x72);
  Dataset ds;
  ds.name = "wbox";
  ds.X = test::random_matrix(40, 6, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.2, 40);
  SvmParams params;
  params.c = 1.0;
  params.weight_positive = 3.0;
  params.weight_negative = 0.5;
  const TrainResult r = train_fixed_format(ds, params, Format::kCSR);
  // alpha_i <= C * w(y_i): verified through the extracted coefficients
  // (coef = alpha * y, so |coef| <= C_i).
  for (std::size_t k = 0; k < r.model.coef.size(); ++k) {
    const real_t bound = r.model.coef[k] > 0 ? 3.0 : 0.5;
    EXPECT_LE(std::abs(r.model.coef[k]), bound + 1e-9);
  }
}

TEST(ClassWeights, RejectsNonPositiveWeights) {
  Dataset ds{"w", CooMatrix(2, 1, {{0, 0, 1.0}, {1, 0, -1.0}}),
             {1.0, -1.0}};
  SvmParams params;
  params.weight_positive = 0.0;
  EXPECT_THROW(train_fixed_format(ds, params, Format::kDEN), Error);
}

// -------------------------------------------------------- feature scaling

TEST(Scaling, MapsExplicitEntriesIntoTargetRange) {
  Dataset ds;
  ds.name = "sc";
  ds.X = CooMatrix(3, 2, {{0, 0, -10.0}, {1, 0, 0.0}, {2, 0, 30.0},
                          {0, 1, 5.0}, {2, 1, 5.0}});
  // Note: the (1,0) explicit zero is dropped by COO canonicalisation.
  ds.y = {1.0, -1.0, 1.0};
  const ScalingParams params = fit_scaling(ds, 0.0, 1.0);
  const Dataset scaled = apply_scaling(ds, params);

  SparseVector row;
  scaled.X.gather_row(0, row);  // col 0: -10 -> 0.0 ... dropped if zero
  // Column 0 spans [-10, 30]: -10 -> 0 (dropped as implicit zero), 30 -> 1.
  scaled.X.gather_row(2, row);
  EXPECT_DOUBLE_EQ(row.values()[0], 1.0);
  // Column 1 is constant (5, 5): maps to lo = 0 -> entries dropped.
  const MatrixFeatures f = extract_features(scaled.X);
  EXPECT_LE(f.nnz, ds.X.nnz());
}

TEST(Scaling, FitOnTrainApplyOnTestIsConsistent) {
  Rng rng(0x73);
  Dataset ds;
  ds.name = "tt";
  ds.X = test::random_matrix(60, 8, 0.5, rng);
  ds.y = plant_labels(ds.X, 0.0, 41);
  const auto [train, test] = ds.split(0.75, 9);
  const ScalingParams params = fit_scaling(train, 0.0, 1.0);
  const Dataset strain = apply_scaling(train, params);
  const Dataset stest = apply_scaling(test, params);

  // Training entries land inside [0, 1]; test entries may exceed slightly
  // (values outside the training range), which is correct behaviour.
  for (real_t v : strain.X.values()) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
  EXPECT_EQ(stest.rows(), test.rows());
  // Training an SVM on scaled data still works end to end.
  SvmParams svm;
  const TrainResult r = train_fixed_format(strain, svm, Format::kCSR);
  EXPECT_TRUE(r.stats.converged);
}

TEST(Scaling, CustomRangeAndUnseenColumns) {
  Dataset ds;
  ds.name = "rng";
  ds.X = CooMatrix(2, 3, {{0, 0, 2.0}, {1, 0, 4.0}});
  ds.y = {1.0, -1.0};
  const ScalingParams params = fit_scaling(ds, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(params.scale_value(0, 2.0), -1.0);
  EXPECT_DOUBLE_EQ(params.scale_value(0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(params.scale_value(0, 3.0), 0.0);
  // Column index beyond the fitted width passes through unchanged.
  EXPECT_DOUBLE_EQ(params.scale_value(99, 7.0), 7.0);
  EXPECT_THROW(fit_scaling(ds, 1.0, 1.0), Error);
}

}  // namespace
}  // namespace ls
