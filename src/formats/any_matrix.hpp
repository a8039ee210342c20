// Runtime-polymorphic matrix: the object the layout scheduler actually
// hands to the SVM solver. A std::variant over the five concrete formats
// keeps dispatch branch-predictable (no virtual calls in the SMSV loop —
// one visit per multiply, not per element).
#pragma once

#include <span>
#include <variant>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/types.hpp"
#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/dia.hpp"
#include "formats/ell.hpp"
#include "formats/format.hpp"
#include "formats/sparse_vector.hpp"

namespace ls {

/// A matrix stored in any supported format, with a uniform API.
class AnyMatrix {
 public:
  AnyMatrix() = default;
  AnyMatrix(DenseMatrix m) : m_(std::move(m)) {}
  AnyMatrix(CsrMatrix m) : m_(std::move(m)) {}
  AnyMatrix(CooMatrix m) : m_(std::move(m)) {}
  AnyMatrix(EllMatrix m) : m_(std::move(m)) {}
  AnyMatrix(DiaMatrix m) : m_(std::move(m)) {}

  /// Materialises `coo` in the requested storage format.
  static AnyMatrix from_coo(const CooMatrix& coo, Format f) {
    switch (f) {
      case Format::kDEN: return AnyMatrix(DenseMatrix(coo));
      case Format::kCSR: return AnyMatrix(CsrMatrix(coo));
      case Format::kCOO: return AnyMatrix(coo);
      case Format::kELL: return AnyMatrix(EllMatrix(coo));
      case Format::kDIA: return AnyMatrix(DiaMatrix(coo));
    }
    throw Error("from_coo: invalid format");
  }

  Format format() const {
    return std::visit([](const auto& m) { return m.format(); }, m_);
  }

  index_t rows() const {
    return std::visit([](const auto& m) { return m.rows(); }, m_);
  }
  index_t cols() const {
    return std::visit([](const auto& m) { return m.cols(); }, m_);
  }
  index_t nnz() const {
    return std::visit([](const auto& m) { return m.nnz(); }, m_);
  }
  index_t stored_elements() const {
    return std::visit([](const auto& m) { return m.stored_elements(); }, m_);
  }
  std::size_t storage_bytes() const {
    return std::visit([](const auto& m) { return m.storage_bytes(); }, m_);
  }
  index_t work_flops() const {
    return std::visit([](const auto& m) { return m.work_flops(); }, m_);
  }

  /// y = A * w (dense workspace w of size cols; y of size rows).
  void multiply_dense(std::span<const real_t> w, std::span<real_t> y) const {
    std::visit([&](const auto& m) { m.multiply_dense(w, y); }, m_);
  }

  /// Batched SMSV: Y = A * W for `b` interleaved right-hand sides
  /// (W[j*b + k] = entry j of rhs k, Y[i*b + k] likewise). One traversal of
  /// the stored matrix serves all b vectors; each output element accumulates
  /// in the same order as multiply_dense, so each lane is bit-identical to
  /// the single-rhs product. A block of one runs multiply_dense itself:
  /// the single-rhs kernels are 1.1-10x faster than the batched ones at
  /// b = 1 (adult, 4 vCPUs), and serving's blocks mostly hold one row.
  void multiply_dense_batch(std::span<const real_t> w, index_t b,
                            std::span<real_t> y) const {
    LS_CHECK(b >= 1 && b <= kMaxSmsvBatch,
             "multiply_dense_batch: batch size " << b << " out of range [1, "
                                                 << kMaxSmsvBatch << "]");
    LS_CHECK(w.size() == static_cast<std::size_t>(cols()) *
                             static_cast<std::size_t>(b),
             "multiply_dense_batch: w has " << w.size() << " entries, want "
                                            << cols() << " x " << b);
    LS_CHECK(y.size() == static_cast<std::size_t>(rows()) *
                             static_cast<std::size_t>(b),
             "multiply_dense_batch: y has " << y.size() << " entries, want "
                                            << rows() << " x " << b);
    if (b == 1) {
      multiply_dense(w, y);
      return;
    }
    std::visit([&](const auto& m) { m.multiply_dense_batch(w, b, y); }, m_);
  }

  /// Extracts row i as a SparseVector.
  void gather_row(index_t i, SparseVector& out) const {
    std::visit([&](const auto& m) { m.gather_row(i, out); }, m_);
  }

  /// Gathers rows[k] into out[k] for every k, dispatching the format visit
  /// once and parallelising across rows (each SparseVector is private to
  /// its index, so the loop is race-free).
  void gather_rows_batch(std::span<const index_t> rows,
                         std::span<SparseVector> out) const {
    LS_CHECK(rows.size() == out.size(),
             "gather_rows_batch: " << rows.size() << " row indices but "
                                   << out.size() << " outputs");
    std::visit(
        [&](const auto& m) {
          parallel_for(static_cast<index_t>(rows.size()), [&](index_t k) {
            m.gather_row(rows[static_cast<std::size_t>(k)],
                         out[static_cast<std::size_t>(k)]);
          });
        },
        m_);
  }

  /// Lowers to canonical COO regardless of current format.
  CooMatrix to_coo() const {
    if (const auto* coo = std::get_if<CooMatrix>(&m_)) return *coo;
    return std::visit(
        [](const auto& m) -> CooMatrix {
          if constexpr (std::is_same_v<std::decay_t<decltype(m)>, CooMatrix>) {
            return m;
          } else {
            return m.to_coo();
          }
        },
        m_);
  }

  /// Direct access to a concrete format (throws std::bad_variant_access if
  /// the matrix is stored differently).
  template <class M>
  const M& as() const {
    return std::get<M>(m_);
  }

 private:
  std::variant<DenseMatrix, CsrMatrix, CooMatrix, EllMatrix, DiaMatrix> m_;
};

}  // namespace ls
