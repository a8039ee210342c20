// Tests for the DNN substrate: tensor indexing, finite-difference gradient
// checks for every layer, the SGD+momentum update rule (Eqs. 8-9), and real
// training on synthetic data.
#include <gtest/gtest.h>

#include <cmath>

#include "dnn/cifar.hpp"
#include "dnn/conv_gemm.hpp"
#include "dnn/net.hpp"
#include "dnn/sgd.hpp"
#include "dnn/trainer.hpp"

namespace ls {
namespace {

TEST(Tensor, IndexingIsNchwRowMajor) {
  Tensor t(2, 3, 4, 5);
  EXPECT_EQ(t.size(), 2 * 3 * 4 * 5);
  EXPECT_EQ(t.sample_size(), 60);
  t.at(1, 2, 3, 4) = 7.0;
  EXPECT_EQ(t[t.size() - 1], 7.0);
  t.at(0, 0, 0, 1) = 3.0;
  EXPECT_EQ(t[1], 3.0);
}

TEST(Tensor, FillAndShapeComparison) {
  Tensor a(1, 2, 2, 2), b(1, 2, 2, 2), c(2, 2, 2, 1);
  a.fill(5.0);
  for (index_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 5.0);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

// ---------------------------------------------------------- grad checks

/// Numerically checks dLoss/dInput and dLoss/dParams of a layer using a
/// random quadratic loss L = 0.5 * sum_i c_i * out_i^2.
void gradient_check(Layer& layer, Tensor in, double tol = 1e-5) {
  Rng rng(0x6ead);
  for (index_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);

  Tensor out = layer.make_output(in);
  std::vector<real_t> c(static_cast<std::size_t>(out.size()));
  for (auto& x : c) x = rng.uniform(-1.0, 1.0);

  auto loss_of = [&](const Tensor& input) {
    Tensor o = layer.make_output(input);
    layer.forward(input, o);
    double loss = 0.0;
    for (index_t i = 0; i < o.size(); ++i) {
      loss += 0.5 * c[static_cast<std::size_t>(i)] * o[i] * o[i];
    }
    return loss;
  };

  // Analytic gradients.
  layer.forward(in, out);
  Tensor grad_out = layer.make_output(in);
  for (index_t i = 0; i < out.size(); ++i) {
    grad_out[i] = c[static_cast<std::size_t>(i)] * out[i];
  }
  Tensor grad_in(in.n(), in.c(), in.h(), in.w());
  for (ParamBlob* p : layer.params()) p->zero_grad();
  layer.backward(in, grad_out, grad_in);

  const double eps = 1e-6;
  // Input gradient at a sample of positions.
  for (index_t i = 0; i < in.size(); i += std::max<index_t>(1, in.size() / 17)) {
    const real_t saved = in[i];
    in[i] = saved + eps;
    const double up = loss_of(in);
    in[i] = saved - eps;
    const double down = loss_of(in);
    in[i] = saved;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(grad_in[i], numeric, tol * (1.0 + std::abs(numeric)))
        << "input grad at " << i;
  }

  // Parameter gradients at a sample of positions.
  for (ParamBlob* p : layer.params()) {
    const index_t n = static_cast<index_t>(p->value.size());
    for (index_t i = 0; i < n; i += std::max<index_t>(1, n / 13)) {
      const auto iu = static_cast<std::size_t>(i);
      const real_t saved = p->value[iu];
      p->value[iu] = saved + eps;
      const double up = loss_of(in);
      p->value[iu] = saved - eps;
      const double down = loss_of(in);
      p->value[iu] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad[iu], numeric, tol * (1.0 + std::abs(numeric)))
          << "param grad at " << i;
    }
  }
}

TEST(GradCheck, Conv2d) {
  Rng rng(51);
  Conv2d conv(2, 3, 3, 1, rng);
  gradient_check(conv, Tensor(2, 2, 5, 5));
}

TEST(GradCheck, Conv2dNoPadding) {
  Rng rng(52);
  Conv2d conv(1, 2, 3, 0, rng);
  gradient_check(conv, Tensor(1, 1, 6, 6));
}

TEST(GradCheck, Linear) {
  Rng rng(53);
  Linear fc(12, 5, rng);
  gradient_check(fc, Tensor(3, 3, 2, 2));
}

TEST(GradCheck, AvgPool) {
  AvgPool2d pool(2, 2);
  gradient_check(pool, Tensor(2, 2, 4, 4));
}

TEST(GradCheck, MaxPool) {
  MaxPool2d pool(2, 2);
  // Looser tolerance: max-pool is piecewise linear (kinks at ties).
  gradient_check(pool, Tensor(2, 2, 4, 4), 1e-4);
}

TEST(GradCheck, ReLU) {
  ReLU relu;
  gradient_check(relu, Tensor(2, 3, 3, 3), 1e-4);
}

TEST(GradCheck, Conv2dGemm) {
  Rng rng(0x6C);
  Conv2dGemm conv(2, 3, 3, 1, rng);
  gradient_check(conv, Tensor(2, 2, 5, 5));
}

TEST(ConvGemm, MatchesNaiveConvolutionExactly) {
  // Same seed -> identical weight initialisation order; outputs and
  // gradients must agree to float round-off.
  Rng rng_a(0x6D), rng_b(0x6D);
  Conv2d naive(3, 4, 5, 2, rng_a);
  Conv2dGemm gemm(3, 4, 5, 2, rng_b);

  Rng data_rng(0x6E);
  Tensor in(2, 3, 8, 8);
  for (index_t i = 0; i < in.size(); ++i) in[i] = data_rng.uniform(-1, 1);

  Tensor out_a = naive.make_output(in);
  Tensor out_b = gemm.make_output(in);
  ASSERT_TRUE(out_a.same_shape(out_b));
  naive.forward(in, out_a);
  gemm.forward(in, out_b);
  for (index_t i = 0; i < out_a.size(); ++i) {
    ASSERT_NEAR(out_a[i], out_b[i], 1e-10) << "forward at " << i;
  }

  // Backward: same upstream gradient -> same input and weight gradients.
  Tensor grad_out = out_a;
  for (index_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] = data_rng.uniform(-1, 1);
  }
  Tensor gin_a(2, 3, 8, 8), gin_b(2, 3, 8, 8);
  for (ParamBlob* p : naive.params()) p->zero_grad();
  for (ParamBlob* p : gemm.params()) p->zero_grad();
  naive.backward(in, grad_out, gin_a);
  gemm.backward(in, grad_out, gin_b);
  for (index_t i = 0; i < gin_a.size(); ++i) {
    ASSERT_NEAR(gin_a[i], gin_b[i], 1e-10) << "grad_in at " << i;
  }
  const auto pa = naive.params();
  const auto pb = gemm.params();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    ASSERT_EQ(pa[k]->grad.size(), pb[k]->grad.size());
    for (std::size_t i = 0; i < pa[k]->grad.size(); ++i) {
      ASSERT_NEAR(pa[k]->grad[i], pb[k]->grad[i], 1e-10)
          << "param " << k << " grad at " << i;
    }
  }
}

TEST(SoftmaxCrossEntropy, LossAndGradientAgainstHandValues) {
  SoftmaxCrossEntropy head;
  Tensor logits(1, 2, 1, 1);
  logits[0] = 0.0;
  logits[1] = 0.0;
  Tensor probs(1, 2, 1, 1);
  const real_t loss = head.forward(logits, {0}, probs);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(probs[0], 0.5, 1e-12);

  Tensor grad(1, 2, 1, 1);
  head.backward(probs, {0}, grad);
  EXPECT_NEAR(grad[0], -0.5, 1e-12);  // p - 1
  EXPECT_NEAR(grad[1], 0.5, 1e-12);
}

TEST(SoftmaxCrossEntropy, NumericallyStableForLargeLogits) {
  SoftmaxCrossEntropy head;
  Tensor logits(1, 3, 1, 1);
  logits[0] = 1000.0;
  logits[1] = 999.0;
  logits[2] = -1000.0;
  Tensor probs(1, 3, 1, 1);
  const real_t loss = head.forward(logits, {0}, probs);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(probs[0], probs[1]);
  EXPECT_NEAR(probs[2], 0.0, 1e-12);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerSample) {
  SoftmaxCrossEntropy head;
  Rng rng(54);
  Tensor logits(4, 5, 1, 1);
  for (index_t i = 0; i < logits.size(); ++i) logits[i] = rng.normal();
  Tensor probs(4, 5, 1, 1), grad(4, 5, 1, 1);
  head.forward(logits, {0, 1, 2, 3}, probs);
  head.backward(probs, {0, 1, 2, 3}, grad);
  for (index_t n = 0; n < 4; ++n) {
    real_t sum = 0.0;
    for (index_t k = 0; k < 5; ++k) sum += grad[n * 5 + k];
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
}

// ------------------------------------------------------------------- SGD

TEST(Sgd, ZeroMomentumIsPlainSgd) {
  ParamBlob p;
  p.value = {1.0, 2.0};
  p.grad = {0.5, -1.0};
  SgdOptimizer opt({&p}, 0.1, 0.0);
  opt.step();
  EXPECT_NEAR(p.value[0], 1.0 - 0.1 * 0.5, 1e-15);
  EXPECT_NEAR(p.value[1], 2.0 + 0.1, 1e-15);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  // Two steps with constant gradient g: V1 = -eta g; V2 = mu V1 - eta g.
  ParamBlob p;
  p.value = {0.0};
  p.grad = {1.0};
  SgdOptimizer opt({&p}, 0.1, 0.9);
  opt.step();
  EXPECT_NEAR(p.value[0], -0.1, 1e-15);
  opt.step();  // V2 = -0.09 - 0.1 = -0.19; W = -0.1 - 0.19 = -0.29
  EXPECT_NEAR(p.value[0], -0.29, 1e-15);
}

TEST(Sgd, RejectsInvalidHyperParameters) {
  ParamBlob p;
  p.value = {0.0};
  p.grad = {0.0};
  EXPECT_THROW(SgdOptimizer({&p}, -1.0, 0.5), Error);
  EXPECT_THROW(SgdOptimizer({&p}, 0.1, 1.0), Error);
}

// ------------------------------------------------------------------ nets

TEST(Net, PredictReturnsArgmaxClass) {
  Rng rng(56);
  Net net = make_cifar10_small(4, 1, 8, rng);
  const Tensor in(3, 1, 8, 8);
  net.forward(in);
  const auto pred = net.predict();
  ASSERT_EQ(pred.size(), 3u);
  for (index_t p : pred) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 4);
  }
}

TEST(Net, EndToEndGradientCheck) {
  // Full net (small) gradient check through softmax loss.
  Rng rng(57);
  Net net = make_cifar10_small(3, 1, 8, rng);
  Tensor in(2, 1, 8, 8);
  for (index_t i = 0; i < in.size(); ++i) in[i] = rng.uniform(-1.0, 1.0);
  const std::vector<index_t> labels = {1, 2};

  net.forward(in);
  net.loss(labels);
  net.zero_grad();
  net.backward(in, labels);

  // Spot-check a handful of parameter gradients numerically.
  const double eps = 1e-5;
  auto params = net.params();
  ASSERT_FALSE(params.empty());
  for (ParamBlob* blob : {params.front(), params.back()}) {
    const index_t n = static_cast<index_t>(blob->value.size());
    for (index_t i = 0; i < n; i += std::max<index_t>(1, n / 5)) {
      const auto iu = static_cast<std::size_t>(i);
      const real_t saved = blob->value[iu];
      blob->value[iu] = saved + eps;
      net.forward(in);
      const double up = net.loss(labels);
      blob->value[iu] = saved - eps;
      net.forward(in);
      const double down = net.loss(labels);
      blob->value[iu] = saved;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(blob->grad[iu], numeric, 1e-4 * (1.0 + std::abs(numeric)));
    }
  }
}

// ------------------------------------------------------- real training

TEST(Training, SmallNetLearnsSyntheticImages) {
  CifarConfig cfg;
  cfg.classes = 4;
  cfg.dim = 8;
  cfg.train_size = 256;
  cfg.test_size = 128;
  cfg.noise = 0.4;
  cfg.seed = 5;
  const CifarData data = make_synthetic_cifar(cfg);

  Rng rng(58);
  Net net = make_cifar10_small(cfg.classes, cfg.channels, cfg.dim, rng);
  const double before = evaluate(net, data.test);

  DnnTrainConfig train_cfg;
  train_cfg.batch_size = 32;
  train_cfg.learning_rate = 0.05;
  train_cfg.momentum = 0.9;
  train_cfg.max_epochs = 6;
  const DnnTrainResult r = train_dnn(net, data, train_cfg);

  EXPECT_EQ(r.epochs_completed, 6);
  EXPECT_EQ(r.iterations, 6 * (256 / 32));
  EXPECT_GT(r.test_accuracy, before + 0.2);
  EXPECT_GT(r.test_accuracy, 0.6);
}

TEST(GemmNetFactory, TrainsLikeTheNaiveVariant) {
  CifarConfig cfg;
  cfg.classes = 2;
  cfg.dim = 8;
  cfg.train_size = 64;
  cfg.test_size = 32;
  cfg.noise = 0.3;
  const CifarData data = make_synthetic_cifar(cfg);
  DnnTrainConfig tc;
  tc.batch_size = 16;
  tc.learning_rate = 0.05;
  tc.max_epochs = 3;

  // make_cifar10_small's stack built by hand from GEMM-lowered conv layers,
  // in the factory's order so both nets draw identical initial weights.
  Rng rng_a(0xAA), rng_b(0xAA);
  Net naive = make_cifar10_small(2, 3, 8, rng_a);
  Net gemm;
  gemm.add(std::make_unique<Conv2dGemm>(3, 8, 5, 2, rng_b));
  gemm.add(std::make_unique<MaxPool2d>(2, 2));
  gemm.add(std::make_unique<ReLU>());
  gemm.add(std::make_unique<Conv2dGemm>(8, 8, 5, 2, rng_b));
  gemm.add(std::make_unique<ReLU>());
  gemm.add(std::make_unique<AvgPool2d>(2, 2));
  gemm.add(std::make_unique<Conv2dGemm>(8, 16, 5, 2, rng_b));
  gemm.add(std::make_unique<ReLU>());
  gemm.add(std::make_unique<AvgPool2d>(2, 2));
  gemm.add(std::make_unique<Linear>(16, 2, rng_b));
  const DnnTrainResult ra = train_dnn(naive, data, tc);
  const DnnTrainResult rb = train_dnn(gemm, data, tc);
  // Identical math, identical shuffling: identical trajectories.
  EXPECT_NEAR(ra.final_train_loss, rb.final_train_loss, 1e-6);
  EXPECT_DOUBLE_EQ(ra.test_accuracy, rb.test_accuracy);
}

TEST(Cifar, GeneratorShapesAndDeterminism) {
  CifarConfig cfg;
  cfg.train_size = 20;
  cfg.test_size = 10;
  cfg.dim = 16;
  const CifarData a = make_synthetic_cifar(cfg);
  const CifarData b = make_synthetic_cifar(cfg);
  EXPECT_EQ(a.train.size(), 20);
  EXPECT_EQ(a.test.size(), 10);
  EXPECT_EQ(a.train.images.c(), 3);
  EXPECT_EQ(a.train.images.h(), 16);
  for (index_t i = 0; i < a.train.images.size(); ++i) {
    ASSERT_EQ(a.train.images[i], b.train.images[i]);
  }
  for (index_t label : a.train.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 10);
  }
}

TEST(Cifar, BatchExtractionCopiesCorrectSlice) {
  CifarConfig cfg;
  cfg.train_size = 10;
  cfg.test_size = 5;
  cfg.dim = 8;
  const CifarData data = make_synthetic_cifar(cfg);
  Tensor batch;
  std::vector<index_t> labels;
  data.train.batch(4, 3, batch, labels);
  EXPECT_EQ(batch.n(), 3);
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_EQ(batch[0], data.train.images[4 * data.train.images.sample_size()]);
  EXPECT_EQ(labels[0], data.train.labels[4]);
  EXPECT_THROW(data.train.batch(9, 3, batch, labels), Error);
}

}  // namespace
}  // namespace ls
