// Minimal 4-D tensor (N, C, H, W) for the DNN substrate.
//
// The DNN thread of the paper (Section IV) trains Caffe's `cifar10_full`
// model; this tensor plus the layers in layers.hpp reimplement the needed
// subset of such a framework from scratch: NCHW storage, value semantics,
// no views (every layer owns its output buffer).
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ls {

/// Dense NCHW tensor of real_t.
class Tensor {
 public:
  Tensor() = default;

  Tensor(index_t n, index_t c, index_t h, index_t w)
      : n_(n), c_(c), h_(h), w_(w),
        data_(static_cast<std::size_t>(n * c * h * w), 0.0) {
    LS_CHECK(n >= 0 && c >= 0 && h >= 0 && w >= 0, "negative tensor dims");
  }

  index_t n() const { return n_; }
  index_t c() const { return c_; }
  index_t h() const { return h_; }
  index_t w() const { return w_; }
  index_t size() const { return static_cast<index_t>(data_.size()); }

  /// Elements per sample (C * H * W).
  index_t sample_size() const { return c_ * h_ * w_; }

  real_t& at(index_t n, index_t c, index_t h, index_t w) {
    return data_[offset(n, c, h, w)];
  }
  real_t at(index_t n, index_t c, index_t h, index_t w) const {
    return data_[offset(n, c, h, w)];
  }

  real_t& operator[](index_t i) { return data_[static_cast<std::size_t>(i)]; }
  real_t operator[](index_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  void fill(real_t v) { std::fill(data_.begin(), data_.end(), v); }

  bool same_shape(const Tensor& o) const {
    return n_ == o.n_ && c_ == o.c_ && h_ == o.h_ && w_ == o.w_;
  }

 private:
  std::size_t offset(index_t n, index_t c, index_t h, index_t w) const {
    LS_ASSERT(n >= 0 && n < n_ && c >= 0 && c < c_ && h >= 0 && h < h_ &&
                  w >= 0 && w < w_,
              "tensor index out of range");
    return static_cast<std::size_t>(((n * c_ + c) * h_ + h) * w_ + w);
  }

  index_t n_ = 0, c_ = 0, h_ = 0, w_ = 0;
  std::vector<real_t> data_;
};

}  // namespace ls
