#include "svm/kernel_engine.hpp"

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ls {

namespace {

/// Squared norm of every row, via gather (works for any format).
std::vector<real_t> row_norms(const AnyMatrix& x) {
  std::vector<real_t> norms(static_cast<std::size_t>(x.rows()));
  SparseVector row;
  for (index_t i = 0; i < x.rows(); ++i) {
    x.gather_row(i, row);
    norms[static_cast<std::size_t>(i)] = row.squared_norm();
  }
  return norms;
}

}  // namespace

FormatKernelEngine::FormatKernelEngine(const AnyMatrix& x,
                                       const KernelParams& params)
    : x_(&x), params_(params), norms_(row_norms(x)) {
  diag_.resize(norms_.size());
  for (std::size_t i = 0; i < norms_.size(); ++i) {
    diag_[i] = kernel_from_dot(params_, norms_[i], norms_[i], norms_[i]);
  }
  workspace_.assign(static_cast<std::size_t>(x.cols()), 0.0);
  dots_.assign(static_cast<std::size_t>(x.rows()), 0.0);
}

void FormatKernelEngine::compute_row(index_t i, std::span<real_t> out) {
  LS_CHECK(out.size() == static_cast<std::size_t>(x_->rows()),
           "kernel row buffer size mismatch");
  rows_computed_.fetch_add(1, std::memory_order_release);

  // Gather + scatter: workspace becomes the dense image of row i.
  x_->gather_row(i, row_);
  row_.scatter(workspace_);

  // The SMSV — the operation whose cost the layout scheduler minimises.
  x_->multiply_dense(workspace_, dots_);

  // Map dot products through the kernel function.
  const real_t norm_i = norms_[static_cast<std::size_t>(i)];
  const real_t* __restrict dots = dots_.data();
  const real_t* __restrict norms = norms_.data();
  const index_t m = x_->rows();
  for (index_t j = 0; j < m; ++j) {
    out[static_cast<std::size_t>(j)] = kernel_from_dot(
        params_, dots[j], norm_i, norms[j]);
  }

  // O(nnz_row) cleanup keeps the workspace all-zero for the next call.
  row_.unscatter(workspace_);
}

LibsvmKernelEngine::LibsvmKernelEngine(const CooMatrix& x,
                                       const KernelParams& params)
    : x_(x), params_(params) {
  norms_.resize(static_cast<std::size_t>(x_.rows()));
  for (index_t i = 0; i < x_.rows(); ++i) {
    const auto vals = x_.row_values(i);
    real_t s = 0.0;
    for (real_t v : vals) s += v * v;
    norms_[static_cast<std::size_t>(i)] = s;
  }
  diag_.resize(norms_.size());
  for (std::size_t i = 0; i < norms_.size(); ++i) {
    diag_[i] = kernel_from_dot(params_, norms_[i], norms_[i], norms_[i]);
  }
}

real_t LibsvmKernelEngine::dot_rows(index_t i, index_t j) const {
  // Verbatim port of LIBSVM's Kernel::dot: two cursors, branch per step.
  const auto ci = x_.row_cols(i);
  const auto vi = x_.row_values(i);
  const auto cj = x_.row_cols(j);
  const auto vj = x_.row_values(j);
  real_t sum = 0.0;
  std::size_t a = 0, b = 0;
  while (a < ci.size() && b < cj.size()) {
    if (ci[a] == cj[b]) {
      sum += vi[a] * vj[b];
      ++a;
      ++b;
    } else if (ci[a] < cj[b]) {
      ++a;
    } else {
      ++b;
    }
  }
  return sum;
}

void LibsvmKernelEngine::compute_row(index_t i, std::span<real_t> out) {
  LS_CHECK(out.size() == static_cast<std::size_t>(x_.rows()),
           "kernel row buffer size mismatch");
  rows_computed_.fetch_add(1, std::memory_order_release);
  const real_t norm_i = norms_[static_cast<std::size_t>(i)];
  const index_t m = x_.rows();
  // "Parallel LIBSVM": the row loop is parallelised (as OpenMP-patched
  // LIBSVM builds do), but each pair still pays the merge-join.
  parallel_for(m, [&](index_t j) {
    out[static_cast<std::size_t>(j)] =
        kernel_from_dot(params_, dot_rows(i, j), norm_i,
                        norms_[static_cast<std::size_t>(j)]);
  });
}

}  // namespace ls
