// im2col + GEMM convolution — the kernel structure the paper's Section
// IV-C reasons about: "the computational kernels of deep learning are
// mainly matrix-matrix multiply ... a larger matrix often can improve the
// processors' throughput". Caffe lowers every convolution to exactly this
// form.
//
// Conv2dGemm computes the same function as Conv2d (asserted by tests) but
// restructures the work: the input patch tensor is unrolled into a
// (in_c * k * k) x (out_h * out_w) column matrix once per sample, then one
// GEMM of the (out_c) x (in_c * k * k) weight matrix against it produces
// all output channels. Larger batches amortise the unroll and keep the
// GEMM inner loops hot — bench/ablation_conv_gemm measures the throughput
// curve that motivates batch-size tuning.
#pragma once

#include "dnn/layers.hpp"

namespace ls {

/// GEMM-lowered 2-D convolution, stride 1, symmetric zero padding.
/// Drop-in replacement for Conv2d (same parameters, same outputs). The nets
/// build Conv2d; this layer is bench/ablation_conv_gemm's subject.
class Conv2dGemm : public Layer {
 public:
  Conv2dGemm(index_t in_channels, index_t out_channels, index_t kernel,
             index_t pad, Rng& rng);

  Tensor make_output(const Tensor& in) const override;
  void forward(const Tensor& in, Tensor& out) override;
  void backward(const Tensor& in, const Tensor& grad_out,
                Tensor& grad_in) override;
  std::vector<ParamBlob*> params() override { return {&weight_, &bias_}; }

 private:
  index_t patch_size() const { return in_c_ * k_ * k_; }

  /// Unrolls sample n of `in` into col_ (patch_size x out_h*out_w).
  void im2col(const Tensor& in, index_t n, index_t oh, index_t ow);

  /// Scatters col-shaped gradients back into grad_in for sample n.
  void col2im(Tensor& grad_in, index_t n, index_t oh, index_t ow) const;

  index_t in_c_, out_c_, k_, pad_;
  ParamBlob weight_;  // [out_c, in_c * k * k] row-major
  ParamBlob bias_;    // [out_c]
  std::vector<real_t> col_;  // im2col scratch, patch_size x (oh * ow)
};

}  // namespace ls
