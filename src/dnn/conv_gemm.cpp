#include "dnn/conv_gemm.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ls {

Conv2dGemm::Conv2dGemm(index_t in_channels, index_t out_channels,
                       index_t kernel, index_t pad, Rng& rng)
    : in_c_(in_channels), out_c_(out_channels), k_(kernel), pad_(pad) {
  LS_CHECK(in_c_ > 0 && out_c_ > 0 && k_ > 0 && pad_ >= 0,
           "bad conv configuration");
  const std::size_t wsize =
      static_cast<std::size_t>(out_c_) * static_cast<std::size_t>(patch_size());
  weight_.value.resize(wsize);
  weight_.grad.assign(wsize, 0.0);
  const double stddev = std::sqrt(2.0 / static_cast<double>(patch_size()));
  for (auto& w : weight_.value) w = rng.normal(0.0, stddev);
  bias_.value.assign(static_cast<std::size_t>(out_c_), 0.0);
  bias_.grad.assign(static_cast<std::size_t>(out_c_), 0.0);
}

Tensor Conv2dGemm::make_output(const Tensor& in) const {
  LS_CHECK(in.c() == in_c_, "conv input channel mismatch");
  const index_t oh = in.h() + 2 * pad_ - k_ + 1;
  const index_t ow = in.w() + 2 * pad_ - k_ + 1;
  LS_CHECK(oh > 0 && ow > 0, "conv output collapses to zero size");
  return Tensor(in.n(), out_c_, oh, ow);
}

void Conv2dGemm::im2col(const Tensor& in, index_t n, index_t oh,
                        index_t ow) {
  const index_t cols = oh * ow;
  col_.assign(static_cast<std::size_t>(patch_size() * cols), 0.0);
  // Row p of the column matrix = (channel ic, kernel offset kh, kw).
  index_t p = 0;
  for (index_t ic = 0; ic < in_c_; ++ic) {
    for (index_t kh = 0; kh < k_; ++kh) {
      for (index_t kw = 0; kw < k_; ++kw, ++p) {
        real_t* dst = col_.data() + p * cols;
        for (index_t y = 0; y < oh; ++y) {
          const index_t iy = y + kh - pad_;
          if (iy < 0 || iy >= in.h()) continue;  // padded rows stay zero
          for (index_t x = 0; x < ow; ++x) {
            const index_t ix = x + kw - pad_;
            if (ix < 0 || ix >= in.w()) continue;
            dst[y * ow + x] = in.at(n, ic, iy, ix);
          }
        }
      }
    }
  }
}

void Conv2dGemm::col2im(Tensor& grad_in, index_t n, index_t oh,
                        index_t ow) const {
  const index_t cols = oh * ow;
  index_t p = 0;
  for (index_t ic = 0; ic < in_c_; ++ic) {
    for (index_t kh = 0; kh < k_; ++kh) {
      for (index_t kw = 0; kw < k_; ++kw, ++p) {
        const real_t* src = col_.data() + p * cols;
        for (index_t y = 0; y < oh; ++y) {
          const index_t iy = y + kh - pad_;
          if (iy < 0 || iy >= grad_in.h()) continue;
          for (index_t x = 0; x < ow; ++x) {
            const index_t ix = x + kw - pad_;
            if (ix < 0 || ix >= grad_in.w()) continue;
            grad_in.at(n, ic, iy, ix) += src[y * ow + x];
          }
        }
      }
    }
  }
}

void Conv2dGemm::forward(const Tensor& in, Tensor& out) {
  const index_t oh = out.h(), ow = out.w();
  const index_t cols = oh * ow;
  const index_t ps = patch_size();
  for (index_t n = 0; n < in.n(); ++n) {
    im2col(in, n, oh, ow);
    // GEMM: out[n] (out_c x cols) = W (out_c x ps) * col (ps x cols).
    parallel_for(out_c_, [&](index_t oc) {
      real_t* dst = out.data() +
                    ((n * out_c_ + oc) * oh) * ow;
      const real_t b = bias_.value[static_cast<std::size_t>(oc)];
      for (index_t j = 0; j < cols; ++j) dst[j] = b;
      const real_t* wrow = weight_.value.data() + oc * ps;
      for (index_t p = 0; p < ps; ++p) {
        const real_t w = wrow[p];
        if (w == 0.0) continue;
        const real_t* src = col_.data() + p * cols;
        for (index_t j = 0; j < cols; ++j) {
          dst[j] += w * src[j];
        }
      }
    });
  }
}

void Conv2dGemm::backward(const Tensor& in, const Tensor& grad_out,
                          Tensor& grad_in) {
  grad_in.fill(0.0);
  const index_t oh = grad_out.h(), ow = grad_out.w();
  const index_t cols = oh * ow;
  const index_t ps = patch_size();
  std::vector<real_t> col_grad(static_cast<std::size_t>(ps * cols));

  for (index_t n = 0; n < in.n(); ++n) {
    im2col(in, n, oh, ow);
    const real_t* g = grad_out.data() + (n * out_c_ * oh) * ow;

    // dW += G (out_c x cols) * col' (cols x ps);  db += row sums of G.
    for (index_t oc = 0; oc < out_c_; ++oc) {
      const real_t* grow = g + oc * cols;
      real_t* wgrad = weight_.grad.data() + oc * ps;
      real_t bias_acc = 0.0;
      for (index_t j = 0; j < cols; ++j) bias_acc += grow[j];
      bias_.grad[static_cast<std::size_t>(oc)] += bias_acc;
      for (index_t p = 0; p < ps; ++p) {
        const real_t* src = col_.data() + p * cols;
        real_t acc = 0.0;
        for (index_t j = 0; j < cols; ++j) acc += grow[j] * src[j];
        wgrad[p] += acc;
      }
    }

    // dcol = W' (ps x out_c) * G (out_c x cols), then col2im scatter.
    std::fill(col_grad.begin(), col_grad.end(), 0.0);
    for (index_t oc = 0; oc < out_c_; ++oc) {
      const real_t* grow = g + oc * cols;
      const real_t* wrow = weight_.value.data() + oc * ps;
      for (index_t p = 0; p < ps; ++p) {
        const real_t w = wrow[p];
        if (w == 0.0) continue;
        real_t* dst = col_grad.data() + p * cols;
        for (index_t j = 0; j < cols; ++j) {
          dst[j] += w * grow[j];
        }
      }
    }
    col_.swap(col_grad);
    col2im(grad_in, n, oh, ow);
    col_.swap(col_grad);
  }
}

}  // namespace ls
