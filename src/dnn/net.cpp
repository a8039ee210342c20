#include "dnn/net.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ls {

Net& Net::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  activations_ready_ = false;
  return *this;
}

const Tensor& Net::forward(const Tensor& input) {
  LS_CHECK(!layers_.empty(), "empty network");
  if (!activations_ready_ || cached_batch_ != input.n()) {
    activations_.clear();
    const Tensor* cur = &input;
    for (auto& layer : layers_) {
      activations_.push_back(layer->make_output(*cur));
      cur = &activations_.back();
    }
    probs_ = activations_.back();
    activations_ready_ = true;
    cached_batch_ = input.n();
  }

  const Tensor* cur = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*cur, activations_[i]);
    cur = &activations_[i];
  }
  return activations_.back();
}

real_t Net::loss(const std::vector<index_t>& labels) {
  LS_CHECK(activations_ready_, "loss() requires a prior forward()");
  return head_.forward(activations_.back(), labels, probs_);
}

void Net::backward(const Tensor& input, const std::vector<index_t>& labels) {
  LS_CHECK(activations_ready_, "backward() requires a prior forward()");
  // grad w.r.t. logits.
  Tensor grad = activations_.back();
  head_.backward(probs_, labels, grad);

  // Walk layers in reverse; grad_in of layer i is shaped like its input.
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const Tensor& layer_in = (i == 0) ? input : activations_[i - 1];
    Tensor grad_in(layer_in.n(), layer_in.c(), layer_in.h(), layer_in.w());
    layers_[i]->backward(layer_in, grad, grad_in);
    grad = std::move(grad_in);
  }
}

std::vector<ParamBlob*> Net::params() {
  std::vector<ParamBlob*> out;
  for (auto& layer : layers_) {
    for (ParamBlob* p : layer->params()) out.push_back(p);
  }
  return out;
}

void Net::zero_grad() {
  for (ParamBlob* p : params()) p->zero_grad();
}

std::vector<index_t> Net::predict() const {
  LS_CHECK(activations_ready_, "predict() requires a prior forward()");
  const Tensor& logits = activations_.back();
  const index_t classes = logits.sample_size();
  std::vector<index_t> labels(static_cast<std::size_t>(logits.n()));
  for (index_t n = 0; n < logits.n(); ++n) {
    const real_t* z = logits.data() + n * classes;
    labels[static_cast<std::size_t>(n)] = static_cast<index_t>(
        std::max_element(z, z + classes) - z);
  }
  return labels;
}

Net make_cifar10_small(index_t classes, index_t channels, index_t dim,
                       Rng& rng) {
  Net net;
  net.add(std::make_unique<Conv2d>(channels, 8, 5, 2, rng));
  net.add(std::make_unique<MaxPool2d>(2, 2));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Conv2d>(8, 8, 5, 2, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<AvgPool2d>(2, 2));
  net.add(std::make_unique<Conv2d>(8, 16, 5, 2, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<AvgPool2d>(2, 2));
  const index_t spatial = dim / 8;
  net.add(std::make_unique<Linear>(16 * spatial * spatial, classes, rng));
  return net;
}

}  // namespace ls
