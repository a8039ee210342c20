// Analytic storage model (the paper's Table II).
//
// All quantities are *element words* (one stored value or one stored index
// counts as one word), matching the paper's accounting. The measured
// storage_bytes() of each concrete matrix class is validated against these
// formulas in the test suite.
#pragma once

#include <algorithm>

#include "common/types.hpp"
#include "formats/format.hpp"

namespace ls {

/// Shape summary needed by the storage formulas.
struct StorageShape {
  index_t rows = 0;     // M
  index_t cols = 0;     // N
  index_t nnz = 0;      // number of nonzeros
  index_t ndig = 0;     // occupied diagonals (DIA)
  index_t mdim = 0;     // maximum row nnz (ELL)
};

/// Exact stored words for a concrete matrix of this shape.
inline index_t storage_words(Format f, const StorageShape& s) {
  switch (f) {
    case Format::kDEN:
      return s.rows * s.cols;
    case Format::kCSR:
      // data + column indices + row pointer.
      return 2 * s.nnz + s.rows + 1;
    case Format::kCOO:
      // data + row indices + column indices.
      return 3 * s.nnz;
    case Format::kELL:
      // padded data + padded column indices.
      return 2 * s.rows * s.mdim;
    case Format::kDIA:
      // padded stripes of length min(M, N) + offsets array.
      return s.ndig * std::min(s.rows, s.cols) + s.ndig;
  }
  return 0;
}

/// Table II "Min" column: the smallest possible storage for an M x N matrix
/// (attained at nnz -> minimal occupancy).
inline index_t storage_words_min(Format f, index_t m, index_t n) {
  switch (f) {
    case Format::kDEN: return m * n;        // M*N regardless of sparsity
    case Format::kCSR: return m + 2;        // O(M + 2): empty data, ptr only
    case Format::kCOO: return 1;            // O(1): empty arrays
    case Format::kELL: return 2 * m;        // O(2M): mdim = 1
    case Format::kDIA: return m + 1;        // O(M + 1): one diagonal
  }
  return 0;
}

/// Table II "Max" column: the worst-case storage for an M x N matrix
/// (attained at full density / adversarial structure).
inline index_t storage_words_max(Format f, index_t m, index_t n) {
  switch (f) {
    case Format::kDEN: return m * n;
    // Table II prints 2MN + M; the exact count includes the row pointer's
    // final sentinel entry (+1).
    case Format::kCSR: return 2 * m * n + m + 1;
    case Format::kCOO: return 3 * m * n;              // 3MN
    case Format::kELL: return 2 * m * n;              // 2MN (mdim = N)
    case Format::kDIA:
      // (min(M,N) + 1) * (M + N - 1): every diagonal occupied.
      return (std::min(m, n) + 1) * (m + n - 1);
  }
  return 0;
}

}  // namespace ls
