#include "dnn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ls {

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(index_t in_channels, index_t out_channels, index_t kernel,
               index_t pad, Rng& rng)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), pad_(pad) {
  LS_CHECK(in_c_ > 0 && out_c_ > 0 && k_ > 0 && pad_ >= 0,
           "bad conv configuration");
  const std::size_t wsize =
      static_cast<std::size_t>(out_c_ * in_c_ * k_ * k_);
  weight_.value.resize(wsize);
  weight_.grad.assign(wsize, 0.0);
  // He/MSRA initialisation (what Caffe's cifar10_full uses for conv).
  const double stddev =
      std::sqrt(2.0 / static_cast<double>(in_c_ * k_ * k_));
  for (auto& w : weight_.value) w = rng.normal(0.0, stddev);
  bias_.value.assign(static_cast<std::size_t>(out_c_), 0.0);
  bias_.grad.assign(static_cast<std::size_t>(out_c_), 0.0);
}

Tensor Conv2d::make_output(const Tensor& in) const {
  LS_CHECK(in.c() == in_c_, "conv input channel mismatch");
  const index_t oh = in.h() + 2 * pad_ - k_ + 1;
  const index_t ow = in.w() + 2 * pad_ - k_ + 1;
  LS_CHECK(oh > 0 && ow > 0, "conv output collapses to zero size");
  return Tensor(in.n(), out_c_, oh, ow);
}

void Conv2d::forward(const Tensor& in, Tensor& out) {
  const index_t oh = out.h(), ow = out.w();
  parallel_for(in.n(), [&](index_t n) {
    for (index_t oc = 0; oc < out_c_; ++oc) {
      const real_t b = bias_.value[static_cast<std::size_t>(oc)];
      for (index_t y = 0; y < oh; ++y) {
        for (index_t x = 0; x < ow; ++x) {
          real_t acc = b;
          for (index_t ic = 0; ic < in_c_; ++ic) {
            for (index_t kh = 0; kh < k_; ++kh) {
              const index_t iy = y + kh - pad_;
              if (iy < 0 || iy >= in.h()) continue;
              for (index_t kw = 0; kw < k_; ++kw) {
                const index_t ix = x + kw - pad_;
                if (ix < 0 || ix >= in.w()) continue;
                acc += w_at(oc, ic, kh, kw) * in.at(n, ic, iy, ix);
              }
            }
          }
          out.at(n, oc, y, x) = acc;
        }
      }
    }
  });
}

void Conv2d::backward(const Tensor& in, const Tensor& grad_out,
                      Tensor& grad_in) {
  grad_in.fill(0.0);
  const index_t oh = grad_out.h(), ow = grad_out.w();
  // Serial over batch for deterministic gradient accumulation into the
  // shared weight blob.
  for (index_t n = 0; n < in.n(); ++n) {
    for (index_t oc = 0; oc < out_c_; ++oc) {
      real_t bias_acc = 0.0;
      for (index_t y = 0; y < oh; ++y) {
        for (index_t x = 0; x < ow; ++x) {
          const real_t g = grad_out.at(n, oc, y, x);
          if (g == 0.0) continue;
          bias_acc += g;
          for (index_t ic = 0; ic < in_c_; ++ic) {
            for (index_t kh = 0; kh < k_; ++kh) {
              const index_t iy = y + kh - pad_;
              if (iy < 0 || iy >= in.h()) continue;
              for (index_t kw = 0; kw < k_; ++kw) {
                const index_t ix = x + kw - pad_;
                if (ix < 0 || ix >= in.w()) continue;
                wgrad_at(oc, ic, kh, kw) += g * in.at(n, ic, iy, ix);
                grad_in.at(n, ic, iy, ix) += g * w_at(oc, ic, kh, kw);
              }
            }
          }
        }
      }
      bias_.grad[static_cast<std::size_t>(oc)] += bias_acc;
    }
  }
}

// -------------------------------------------------------------- MaxPool2d

Tensor MaxPool2d::make_output(const Tensor& in) const {
  LS_CHECK(in.h() >= win_ && in.w() >= win_, "pool window exceeds input");
  return Tensor(in.n(), in.c(), out_dim(in.h()), out_dim(in.w()));
}

void MaxPool2d::forward(const Tensor& in, Tensor& out) {
  argmax_.assign(static_cast<std::size_t>(out.size()), 0);
  const index_t oh = out.h(), ow = out.w();
  index_t flat = 0;
  for (index_t n = 0; n < in.n(); ++n) {
    for (index_t c = 0; c < in.c(); ++c) {
      for (index_t y = 0; y < oh; ++y) {
        for (index_t x = 0; x < ow; ++x, ++flat) {
          real_t best = -std::numeric_limits<real_t>::infinity();
          index_t best_idx = 0;
          for (index_t dy = 0; dy < win_; ++dy) {
            for (index_t dx = 0; dx < win_; ++dx) {
              const index_t iy = y * stride_ + dy;
              const index_t ix = x * stride_ + dx;
              const real_t v = in.at(n, c, iy, ix);
              if (v > best) {
                best = v;
                best_idx = ((n * in.c() + c) * in.h() + iy) * in.w() + ix;
              }
            }
          }
          out.at(n, c, y, x) = best;
          argmax_[static_cast<std::size_t>(flat)] = best_idx;
        }
      }
    }
  }
}

void MaxPool2d::backward(const Tensor& in, const Tensor& grad_out,
                         Tensor& grad_in) {
  (void)in;
  grad_in.fill(0.0);
  for (index_t i = 0; i < grad_out.size(); ++i) {
    grad_in[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  }
}

// -------------------------------------------------------------- AvgPool2d

Tensor AvgPool2d::make_output(const Tensor& in) const {
  LS_CHECK(in.h() >= win_ && in.w() >= win_, "pool window exceeds input");
  return Tensor(in.n(), in.c(), out_dim(in.h()), out_dim(in.w()));
}

void AvgPool2d::forward(const Tensor& in, Tensor& out) {
  const real_t inv = 1.0 / static_cast<real_t>(win_ * win_);
  for (index_t n = 0; n < in.n(); ++n) {
    for (index_t c = 0; c < in.c(); ++c) {
      for (index_t y = 0; y < out.h(); ++y) {
        for (index_t x = 0; x < out.w(); ++x) {
          real_t acc = 0.0;
          for (index_t dy = 0; dy < win_; ++dy) {
            for (index_t dx = 0; dx < win_; ++dx) {
              acc += in.at(n, c, y * stride_ + dy, x * stride_ + dx);
            }
          }
          out.at(n, c, y, x) = acc * inv;
        }
      }
    }
  }
}

void AvgPool2d::backward(const Tensor& in, const Tensor& grad_out,
                         Tensor& grad_in) {
  (void)in;
  grad_in.fill(0.0);
  const real_t inv = 1.0 / static_cast<real_t>(win_ * win_);
  for (index_t n = 0; n < grad_out.n(); ++n) {
    for (index_t c = 0; c < grad_out.c(); ++c) {
      for (index_t y = 0; y < grad_out.h(); ++y) {
        for (index_t x = 0; x < grad_out.w(); ++x) {
          const real_t g = grad_out.at(n, c, y, x) * inv;
          for (index_t dy = 0; dy < win_; ++dy) {
            for (index_t dx = 0; dx < win_; ++dx) {
              grad_in.at(n, c, y * stride_ + dy, x * stride_ + dx) += g;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------ ReLU

void ReLU::forward(const Tensor& in, Tensor& out) {
  for (index_t i = 0; i < in.size(); ++i) {
    out[i] = in[i] > 0 ? in[i] : 0.0;
  }
}

void ReLU::backward(const Tensor& in, const Tensor& grad_out,
                    Tensor& grad_in) {
  for (index_t i = 0; i < in.size(); ++i) {
    grad_in[i] = in[i] > 0 ? grad_out[i] : 0.0;
  }
}

// ---------------------------------------------------------------- Linear

Linear::Linear(index_t in_features, index_t out_features, Rng& rng)
    : in_f_(in_features), out_f_(out_features) {
  LS_CHECK(in_f_ > 0 && out_f_ > 0, "bad linear configuration");
  const std::size_t wsize = static_cast<std::size_t>(in_f_ * out_f_);
  weight_.value.resize(wsize);
  weight_.grad.assign(wsize, 0.0);
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_f_));
  for (auto& w : weight_.value) w = rng.normal(0.0, stddev);
  bias_.value.assign(static_cast<std::size_t>(out_f_), 0.0);
  bias_.grad.assign(static_cast<std::size_t>(out_f_), 0.0);
}

void Linear::forward(const Tensor& in, Tensor& out) {
  LS_CHECK(in.sample_size() == in_f_, "linear input size mismatch");
  parallel_for(in.n(), [&](index_t n) {
    const real_t* x = in.data() + n * in_f_;
    for (index_t o = 0; o < out_f_; ++o) {
      const real_t* w = weight_.value.data() + o * in_f_;
      real_t acc = bias_.value[static_cast<std::size_t>(o)];
      for (index_t i = 0; i < in_f_; ++i) acc += w[i] * x[i];
      out[n * out_f_ + o] = acc;
    }
  });
}

void Linear::backward(const Tensor& in, const Tensor& grad_out,
                      Tensor& grad_in) {
  grad_in.fill(0.0);
  for (index_t n = 0; n < in.n(); ++n) {
    const real_t* x = in.data() + n * in_f_;
    real_t* gx = grad_in.data() + n * in_f_;
    for (index_t o = 0; o < out_f_; ++o) {
      const real_t g = grad_out[n * out_f_ + o];
      if (g == 0.0) continue;
      const real_t* w = weight_.value.data() + o * in_f_;
      real_t* gw = weight_.grad.data() + o * in_f_;
      for (index_t i = 0; i < in_f_; ++i) {
        gw[i] += g * x[i];
        gx[i] += g * w[i];
      }
      bias_.grad[static_cast<std::size_t>(o)] += g;
    }
  }
}

// ------------------------------------------------- SoftmaxCrossEntropy

real_t SoftmaxCrossEntropy::forward(const Tensor& logits,
                                    const std::vector<index_t>& labels,
                                    Tensor& probs) const {
  LS_CHECK(static_cast<index_t>(labels.size()) == logits.n(),
           "label count != batch size");
  const index_t classes = logits.sample_size();
  real_t loss = 0.0;
  for (index_t n = 0; n < logits.n(); ++n) {
    const real_t* z = logits.data() + n * classes;
    real_t* p = probs.data() + n * classes;
    real_t zmax = z[0];
    for (index_t k = 1; k < classes; ++k) zmax = std::max(zmax, z[k]);
    real_t sum = 0.0;
    for (index_t k = 0; k < classes; ++k) {
      p[k] = std::exp(z[k] - zmax);
      sum += p[k];
    }
    for (index_t k = 0; k < classes; ++k) p[k] /= sum;
    const index_t label = labels[static_cast<std::size_t>(n)];
    LS_CHECK(label >= 0 && label < classes, "label out of range");
    loss -= std::log(std::max<real_t>(p[label], 1e-300));
  }
  return loss / static_cast<real_t>(logits.n());
}

void SoftmaxCrossEntropy::backward(const Tensor& probs,
                                   const std::vector<index_t>& labels,
                                   Tensor& grad_logits) const {
  const index_t classes = probs.sample_size();
  const real_t inv_batch = 1.0 / static_cast<real_t>(probs.n());
  for (index_t n = 0; n < probs.n(); ++n) {
    const real_t* p = probs.data() + n * classes;
    real_t* g = grad_logits.data() + n * classes;
    for (index_t k = 0; k < classes; ++k) {
      g[k] = p[k] * inv_batch;
    }
    g[labels[static_cast<std::size_t>(n)]] -= inv_batch;
  }
}

}  // namespace ls
