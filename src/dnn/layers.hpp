// Neural-network layers: the subset of Caffe that the mini cifar10 net in
// net.hpp uses (convolution, pooling, ReLU, fully connected, softmax loss).
//
// Every layer implements forward and backward with explicit loops (no BLAS
// dependency); gradients are verified against finite differences in the
// test suite. Parameterised layers expose weights/gradients for the SGD
// optimiser through the Layer::params() interface.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dnn/tensor.hpp"

namespace ls {

/// One trainable parameter blob with its gradient accumulator.
struct ParamBlob {
  std::vector<real_t> value;
  std::vector<real_t> grad;

  void zero_grad() { std::fill(grad.begin(), grad.end(), 0.0); }
};

/// Abstract layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Output shape for a given input shape (batch-size preserving).
  virtual Tensor make_output(const Tensor& in) const = 0;

  /// out must have the shape make_output(in) returns.
  virtual void forward(const Tensor& in, Tensor& out) = 0;

  /// grad_in must be shaped like `in`; parameter gradients are accumulated
  /// into params()[k].grad (caller zeroes them per batch).
  virtual void backward(const Tensor& in, const Tensor& grad_out,
                        Tensor& grad_in) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamBlob*> params() { return {}; }
};

/// 2-D convolution, stride 1, symmetric zero padding.
class Conv2d : public Layer {
 public:
  Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
         index_t pad, Rng& rng);

  Tensor make_output(const Tensor& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;
  std::vector<ParamBlob*> params() override { return {&weight_, &bias_}; }

 private:
  real_t w_at(index_t oc, index_t ic, index_t kh, index_t kw) const {
    return weight_.value[static_cast<std::size_t>(
        ((oc * in_c_ + ic) * k_ + kh) * k_ + kw)];
  }
  real_t& wgrad_at(index_t oc, index_t ic, index_t kh, index_t kw) {
    return weight_.grad[static_cast<std::size_t>(
        ((oc * in_c_ + ic) * k_ + kh) * k_ + kw)];
  }

  index_t in_c_, out_c_, k_, pad_;
  ParamBlob weight_;  // [out_c, in_c, k, k]
  ParamBlob bias_;    // [out_c]
};

/// Max pooling with square window and stride = window (Caffe pool1 style
/// uses stride 2 window 3; we support independent stride).
class MaxPool2d : public Layer {
 public:
  MaxPool2d(index_t window, index_t stride) : win_(window), stride_(stride) {}

  Tensor make_output(const Tensor& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

 private:
  index_t out_dim(index_t in) const { return (in - win_) / stride_ + 1; }
  index_t win_, stride_;
  std::vector<index_t> argmax_;  // winner index per output element
};

/// Average pooling (used by cifar10_full's pool2 / pool3).
class AvgPool2d : public Layer {
 public:
  AvgPool2d(index_t window, index_t stride) : win_(window), stride_(stride) {}

  Tensor make_output(const Tensor& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;

 private:
  index_t out_dim(index_t in) const { return (in - win_) / stride_ + 1; }
  index_t win_, stride_;
};

/// Elementwise rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor make_output(const Tensor& in) const override {
    return Tensor(in.n(), in.c(), in.h(), in.w());
  }
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;
};

/// Fully connected layer: flattens (C, H, W) and applies W x + b.
class Linear : public Layer {
 public:
  Linear(index_t in_features, index_t out_features, Rng& rng);

  Tensor make_output(const Tensor& in) const override {
    return Tensor(in.n(), out_f_, 1, 1);
  }
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;
  std::vector<ParamBlob*> params() override { return {&weight_, &bias_}; }

 private:
  index_t in_f_, out_f_;
  ParamBlob weight_;  // [out_f, in_f]
  ParamBlob bias_;    // [out_f]
};

/// Softmax + cross-entropy loss head (combined for numerical stability).
class SoftmaxCrossEntropy {
 public:
  /// Returns mean loss over the batch; fills `probs` (shape of logits).
  real_t forward(const Tensor& logits, const std::vector<index_t>& labels,
                 Tensor& probs) const;

  /// grad_logits = (probs - onehot(labels)) / batch.
  void backward(const Tensor& probs, const std::vector<index_t>& labels,
                Tensor& grad_logits) const;
};

}  // namespace ls
