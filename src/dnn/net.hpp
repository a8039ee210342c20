// Sequential network container plus a reduced `cifar10_full` factory (the
// Caffe model the paper's Section IV trains on CIFAR-10).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "dnn/layers.hpp"

namespace ls {

/// Sequential feed-forward network with a softmax-cross-entropy head.
class Net {
 public:
  /// Appends a layer; returns *this for chaining.
  Net& add(std::unique_ptr<Layer> layer);

  /// Forward pass; returns the logits tensor.
  const Tensor& forward(const Tensor& input);

  /// Mean loss of the last forward pass against `labels` (also prepares the
  /// softmax probabilities needed by backward).
  real_t loss(const std::vector<index_t>& labels);

  /// Backpropagates through all layers, accumulating parameter gradients.
  void backward(const Tensor& input, const std::vector<index_t>& labels);

  /// All trainable parameter blobs, in layer order.
  std::vector<ParamBlob*> params();

  /// Zeroes every parameter gradient.
  void zero_grad();

  /// Predicted class per sample of the last forward pass.
  std::vector<index_t> predict() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> activations_;  // activations_[i] = output of layer i
  Tensor probs_;
  SoftmaxCrossEntropy head_;
  bool activations_ready_ = false;
  index_t cached_batch_ = -1;
};

/// A reduced cifar10_full for fast real training: the layer stack of
/// Caffe's examples/cifar10/cifar10_full_train_test.prototxt (three
/// conv5x5(pad 2) + pool + ReLU stages and a fully connected classifier)
/// with 8/8/16 filters instead of 32/32/64 and no LRN layers, for
/// `classes` classes on inputs of shape (channels, dim, dim).
Net make_cifar10_small(index_t classes, index_t channels, index_t dim,
                       Rng& rng);

}  // namespace ls
