// Mini-batch DNN training loop: momentum SGD (the paper's Eqs. 8-9) over a
// shuffled training set, evaluated against the test split after every
// epoch. The paper's data-parallel scheme (Section IV-B) is modelled, not
// run: hw/multigpu.* prices its allreduce.
#pragma once

#include "common/types.hpp"
#include "dnn/cifar.hpp"
#include "dnn/net.hpp"

namespace ls {

/// Training hyper-parameters: the paper's B, eta and mu, and an epoch
/// budget.
struct DnnTrainConfig {
  index_t batch_size = 100;
  real_t learning_rate = 0.001;
  real_t momentum = 0.9;
  index_t max_epochs = 10;
};

/// Outcome of a training run.
struct DnnTrainResult {
  index_t iterations = 0;
  index_t epochs_completed = 0;
  double final_train_loss = 0.0;
  double test_accuracy = 0.0;
  double seconds = 0.0;
};

/// Classification accuracy of `net` on `ds` (batched evaluation).
double evaluate(Net& net, const ImageDataset& ds, index_t batch = 256);

/// Trains `net` on `data.train` for `config.max_epochs` epochs, evaluating
/// against `data.test` after each.
DnnTrainResult train_dnn(Net& net, const CifarData& data,
                         const DnnTrainConfig& config);

}  // namespace ls
