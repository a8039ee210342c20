// Kernel-row computation engines.
//
// Each SMO iteration needs two rows of the n x n kernel matrix (K_high and
// K_low). Both engines compute a row from the data matrix; they differ in
// *how*, which is exactly the paper's performance story:
//
//  * FormatKernelEngine (ours): gather the selected row, scatter it into a
//    dense workspace, run one format-specific SMSV (y = X * w), and map the
//    dot products through the kernel function. The SMSV is where the layout
//    scheduling pays off.
//
//  * LibsvmKernelEngine (baseline): LIBSVM's approach — a merge-join
//    sparse-sparse dot per pair (i, j) over CSR rows, no dense workspace.
//    The paper reports its own CSR being ~1.3x faster than LIBSVM's; the
//    merge join's branchy inner loop is the difference.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "formats/any_matrix.hpp"
#include "formats/csr.hpp"
#include "formats/sparse_vector.hpp"
#include "svm/kernel.hpp"

namespace ls {

/// Abstract source of kernel-matrix rows.
class RowKernelSource {
 public:
  virtual ~RowKernelSource() = default;

  /// Number of training samples (kernel matrix is rows() x rows()).
  virtual index_t num_rows() const = 0;

  /// Computes kernel row i: out[j] = K(X_i, X_j) for all j.
  virtual void compute_row(index_t i, std::span<real_t> out) = 0;

  /// K(X_i, X_i) — needed by the second-order working-set selection.
  virtual real_t diagonal(index_t i) const = 0;

  /// Number of kernel rows computed so far (cache misses only). Updates are
  /// release stores and this read an acquire load, so the counter can be
  /// snapshotted from any thread (e.g. a stats endpoint) while the solver
  /// runs.
  std::int64_t rows_computed() const {
    return rows_computed_.load(std::memory_order_acquire);
  }

 protected:
  std::atomic<std::int64_t> rows_computed_{0};
};

/// SMSV-based engine over an arbitrary-format matrix (the adaptive path).
class FormatKernelEngine : public RowKernelSource {
 public:
  /// `x` must outlive the engine.
  FormatKernelEngine(const AnyMatrix& x, const KernelParams& params);

  index_t num_rows() const override { return x_->rows(); }
  void compute_row(index_t i, std::span<real_t> out) override;

  real_t diagonal(index_t i) const override {
    return diag_[static_cast<std::size_t>(i)];
  }

 private:
  const AnyMatrix* x_;
  KernelParams params_;
  std::vector<real_t> norms_;      // ||X_i||^2 per row
  std::vector<real_t> diag_;       // K(X_i, X_i)
  std::vector<real_t> workspace_;  // dense scatter target, size cols
  std::vector<real_t> dots_;       // SMSV output, size rows
  SparseVector row_;               // gathered selected row
};

/// LIBSVM-style engine: fixed CSR, per-pair merge-join dot products.
class LibsvmKernelEngine : public RowKernelSource {
 public:
  /// Builds its own CSR copy (LIBSVM always converts input to its row list).
  LibsvmKernelEngine(const CooMatrix& x, const KernelParams& params);

  index_t num_rows() const override { return x_.rows(); }
  void compute_row(index_t i, std::span<real_t> out) override;
  real_t diagonal(index_t i) const override {
    return diag_[static_cast<std::size_t>(i)];
  }

 private:
  /// Merge-join dot of rows i and j (LIBSVM Kernel::dot equivalent).
  real_t dot_rows(index_t i, index_t j) const;

  CsrMatrix x_;
  KernelParams params_;
  std::vector<real_t> norms_;
  std::vector<real_t> diag_;
};

}  // namespace ls
