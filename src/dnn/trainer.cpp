#include "dnn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dnn/sgd.hpp"

namespace ls {

double evaluate(Net& net, const ImageDataset& ds, index_t batch) {
  LS_CHECK(ds.size() > 0, "cannot evaluate on an empty dataset");
  index_t correct = 0;
  Tensor in;
  std::vector<index_t> labels;
  for (index_t begin = 0; begin < ds.size(); begin += batch) {
    const index_t count = std::min(batch, ds.size() - begin);
    ds.batch(begin, count, in, labels);
    net.forward(in);
    const std::vector<index_t> pred = net.predict();
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (pred[i] == labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(ds.size());
}

namespace {

/// Seed of the batch shuffle stream; fixed, so a run is reproducible.
constexpr std::uint64_t kShuffleSeed = 99;

}  // namespace

DnnTrainResult train_dnn(Net& net, const CifarData& data,
                         const DnnTrainConfig& config) {
  LS_CHECK(config.batch_size >= 1, "batch size must be positive");
  const ImageDataset& train = data.train;
  LS_CHECK(train.size() >= config.batch_size,
           "training set smaller than one batch");

  Timer timer;
  SgdOptimizer opt(net.params(), config.learning_rate, config.momentum);
  Rng rng(kShuffleSeed);

  std::vector<index_t> order(static_cast<std::size_t>(train.size()));
  std::iota(order.begin(), order.end(), index_t{0});

  DnnTrainResult result;
  Tensor batch(config.batch_size, train.images.c(), train.images.h(),
               train.images.w());
  std::vector<index_t> labels(static_cast<std::size_t>(config.batch_size));
  const index_t per_sample = train.images.sample_size();
  const index_t batches_per_epoch = train.size() / config.batch_size;

  for (index_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    shuffle(order.begin(), order.end(), rng);
    Timer epoch_timer;  // training portion only (excludes evaluation)
    const double epoch_start_us = trace::enabled() ? trace::now_us() : 0.0;
    double loss_acc = 0.0;
    for (index_t b = 0; b < batches_per_epoch; ++b) {
      // Gather the shuffled batch.
      for (index_t i = 0; i < config.batch_size; ++i) {
        const index_t src = order[static_cast<std::size_t>(
            b * config.batch_size + i)];
        std::copy(train.images.data() + src * per_sample,
                  train.images.data() + (src + 1) * per_sample,
                  batch.data() + i * per_sample);
        labels[static_cast<std::size_t>(i)] =
            train.labels[static_cast<std::size_t>(src)];
      }
      net.zero_grad();
      net.forward(batch);
      loss_acc += net.loss(labels);
      net.backward(batch, labels);
      opt.step();
      ++result.iterations;
    }
    const double epoch_seconds = epoch_timer.seconds();
    result.epochs_completed = epoch + 1;
    result.final_train_loss =
        loss_acc / static_cast<double>(batches_per_epoch);
    result.test_accuracy = evaluate(net, data.test);

    if (metrics::enabled()) {
      const double images =
          static_cast<double>(batches_per_epoch * config.batch_size);
      metrics::timer_record("dnn.epoch_seconds", epoch_seconds);
      metrics::counter_add("dnn.images_total",
                           batches_per_epoch * config.batch_size);
      if (epoch_seconds > 0.0) {
        metrics::gauge_set("dnn.images_per_second", images / epoch_seconds);
      }
      metrics::gauge_set("dnn.train_loss", result.final_train_loss);
      metrics::gauge_set("dnn.test_accuracy", result.test_accuracy);
    }
    if (trace::enabled()) {
      trace::emit_complete(
          "epoch:" + std::to_string(epoch + 1), "dnn", epoch_start_us,
          trace::now_us() - epoch_start_us,
          {{"train_loss", std::to_string(result.final_train_loss)},
           {"test_accuracy", std::to_string(result.test_accuracy)}});
      trace::emit_counter("dnn.train_loss", result.final_train_loss);
      trace::emit_counter("dnn.test_accuracy", result.test_accuracy);
    }
  }
  result.seconds = timer.seconds();
  if (metrics::enabled()) {
    metrics::timer_record("dnn.train_seconds", result.seconds);
    metrics::gauge_set("dnn.iterations",
                       static_cast<double>(result.iterations));
    metrics::gauge_set("dnn.epochs_completed",
                       static_cast<double>(result.epochs_completed));
  }
  return result;
}

}  // namespace ls
