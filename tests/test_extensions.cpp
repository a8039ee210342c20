// Tests for the extension modules: model serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "svm/serialize.hpp"
#include "svm/trainer.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

// ------------------------------------------------------- serialization

SvmModel trained_tiny_model() {
  Rng rng(76);
  Dataset ds;
  ds.name = "ser";
  ds.X = test::random_matrix(40, 12, 0.4, rng);
  ds.y = plant_labels(ds.X, 0.05, 20);
  SvmParams params;
  params.kernel.type = KernelType::kGaussian;
  params.kernel.gamma = 0.37;
  return train_fixed_format(ds, params, Format::kCSR).model;
}

TEST(Serialize, ModelRoundTripsExactly) {
  const SvmModel model = trained_tiny_model();
  std::stringstream buffer;
  save_model(buffer, model);
  const SvmModel back = load_model(buffer);

  EXPECT_EQ(back.kernel.type, model.kernel.type);
  EXPECT_DOUBLE_EQ(back.kernel.gamma, model.kernel.gamma);
  EXPECT_DOUBLE_EQ(back.rho, model.rho);
  EXPECT_EQ(back.num_features, model.num_features);
  ASSERT_EQ(back.coef.size(), model.coef.size());
  for (std::size_t k = 0; k < model.coef.size(); ++k) {
    EXPECT_DOUBLE_EQ(back.coef[k], model.coef[k]);
    EXPECT_EQ(back.support_vectors[k].nnz(), model.support_vectors[k].nnz());
  }

  // Identical decisions on fresh probes.
  Rng rng(77);
  for (int t = 0; t < 10; ++t) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t j = 0; j < 12; ++j) {
      if (rng.bernoulli(0.4)) {
        idx.push_back(j);
        val.push_back(rng.uniform(-1.0, 1.0));
      }
    }
    SparseVector probe(idx, val);
    EXPECT_DOUBLE_EQ(back.decision(probe), model.decision(probe));
  }
}

TEST(Serialize, RejectsCorruptedStreams) {
  {
    std::stringstream buffer("not a model\n");
    EXPECT_THROW(load_model(buffer), Error);
  }
  {
    const SvmModel model = trained_tiny_model();
    std::stringstream buffer;
    save_model(buffer, model);
    std::string text = buffer.str();
    text.resize(text.size() / 2);  // truncate mid-stream
    std::stringstream cut(text);
    EXPECT_THROW(load_model(cut), Error);
  }
  {
    std::stringstream buffer("ls_svm_model v1\nkernel warp\n");
    EXPECT_THROW(load_model(buffer), Error);
  }
}

TEST(Serialize, MulticlassRoundTrip) {
  Rng rng(78);
  std::vector<Triplet> t;
  std::vector<real_t> y;
  const real_t centers[3][2] = {{0, 0}, {8, 0}, {0, 8}};
  for (index_t i = 0; i < 60; ++i) {
    const int k = static_cast<int>(i % 3);
    t.push_back({i, 0, centers[k][0] + rng.normal(0, 0.4)});
    t.push_back({i, 1, centers[k][1] + rng.normal(0, 0.4)});
    y.push_back(static_cast<real_t>(k));
  }
  Dataset ds{"tri", CooMatrix(60, 2, std::move(t)), std::move(y)};
  SvmParams params;
  params.c = 10.0;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kHeuristic;
  const MulticlassResult trained = train_one_vs_one(ds, params, sched);

  std::stringstream buffer;
  save_multiclass(buffer, trained.model);
  const MulticlassModel back = load_multiclass(buffer);
  ASSERT_EQ(back.machines.size(), trained.model.machines.size());
  EXPECT_EQ(back.classes, trained.model.classes);
  EXPECT_DOUBLE_EQ(back.accuracy(ds), trained.model.accuracy(ds));
}

TEST(Serialize, FileRoundTrip) {
  const SvmModel model = trained_tiny_model();
  const std::string path = ::testing::TempDir() + "/ls_model.txt";
  save_model_file(path, model);
  const SvmModel back = load_model_file(path);
  EXPECT_EQ(back.support_vectors.size(), model.support_vectors.size());
  std::remove(path.c_str());
  EXPECT_THROW(load_model_file(path), Error);
}

}  // namespace
}  // namespace ls
