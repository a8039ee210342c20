#include "formats/hyb.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "kernels/simd.hpp"

namespace ls {

HybMatrix::HybMatrix(const CooMatrix& coo, index_t ell_width)
    : rows_(coo.rows()), cols_(coo.cols()), nnz_(coo.nnz()) {
  const auto rows = coo.row_indices();
  const auto cols = coo.col_indices();
  const auto vals = coo.values();

  ell_len_.resize(static_cast<std::size_t>(rows_));
  std::vector<index_t> row_nnz(static_cast<std::size_t>(rows_), 0);
  for (std::size_t k = 0; k < vals.size(); ++k) {
    ++row_nnz[static_cast<std::size_t>(rows[k])];
  }

  if (ell_width <= 0) {
    // Automatic width: ceil(mean row length); 1 at minimum for non-empty
    // matrices so the slab exists.
    width_ = rows_ > 0 ? (nnz_ + rows_ - 1) / rows_ : 0;
    if (nnz_ > 0 && width_ == 0) width_ = 1;
  } else {
    width_ = ell_width;
  }

  const std::size_t slots =
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_);
  ell_vals_.resize(slots);
  ell_cols_.resize(slots);

  // Count overflow, then fill both structures in one sweep (COO order is
  // row-major so overflow naturally stays row-sorted).
  std::size_t overflow = 0;
  for (index_t i = 0; i < rows_; ++i) {
    const index_t extra = row_nnz[static_cast<std::size_t>(i)] - width_;
    if (extra > 0) overflow += static_cast<std::size_t>(extra);
  }
  coo_vals_.resize(overflow);
  coo_rows_.resize(overflow);
  coo_cols_.resize(overflow);

  std::vector<index_t> fill(static_cast<std::size_t>(rows_), 0);
  std::size_t spill = 0;
  for (std::size_t k = 0; k < vals.size(); ++k) {
    const index_t i = rows[k];
    index_t& lane = fill[static_cast<std::size_t>(i)];
    if (lane < width_) {
      ell_vals_[slot(i, lane)] = vals[k];
      ell_cols_[slot(i, lane)] = cols[k];
      ++lane;
    } else {
      coo_vals_[spill] = vals[k];
      coo_rows_[spill] = i;
      coo_cols_[spill] = cols[k];
      ++spill;
    }
  }
  for (index_t i = 0; i < rows_; ++i) {
    ell_len_[static_cast<std::size_t>(i)] =
        std::min(width_, row_nnz[static_cast<std::size_t>(i)]);
  }
}

void HybMatrix::multiply_dense(std::span<const real_t> w,
                               std::span<real_t> y) const {
  LS_ASSERT(w.size() == static_cast<std::size_t>(cols_), "w size mismatch");
  LS_ASSERT(y.size() == static_cast<std::size_t>(rows_), "y size mismatch");
  std::fill(y.begin(), y.end(), real_t{0});
  const real_t* __restrict wd = w.data();

  // ELL slab, lane-outer.
  const auto& kt = simd::kernels();
  for (index_t k = 0; k < width_; ++k) {
    const real_t* __restrict vk = ell_vals_.data() + slot(0, k);
    const index_t* __restrict ck = ell_cols_.data() + slot(0, k);
    kt.gather_axpy(vk, ck, rows_, wd, y.data());
  }
  // COO overflow stays scalar: a row can spill several nonzeros, so its
  // updates cannot be vectorised as independent lanes.
  for (std::size_t k = 0; k < coo_vals_.size(); ++k) {
    y[static_cast<std::size_t>(coo_rows_[k])] +=
        coo_vals_[k] * wd[coo_cols_[k]];
  }
}

void HybMatrix::multiply_dense_batch(std::span<const real_t> w, index_t b,
                                     std::span<real_t> y) const {
  LS_ASSERT(b >= 1 && b <= kMaxSmsvBatch, "batch size out of range");
  LS_ASSERT(w.size() == static_cast<std::size_t>(cols_) *
                            static_cast<std::size_t>(b),
            "w size mismatch");
  LS_ASSERT(y.size() == static_cast<std::size_t>(rows_) *
                            static_cast<std::size_t>(b),
            "y size mismatch");
  std::fill(y.begin(), y.end(), real_t{0});
  const real_t* __restrict wd = w.data();
  real_t* __restrict yd = y.data();

  // ELL slab, lane-outer.
  const auto& kt = simd::kernels();
  for (index_t k = 0; k < width_; ++k) {
    const real_t* __restrict vk = ell_vals_.data() + slot(0, k);
    const index_t* __restrict ck = ell_cols_.data() + slot(0, k);
    kt.gather_axpy_batch(vk, ck, rows_, wd, b, yd);
  }
  // COO overflow.
  for (std::size_t k = 0; k < coo_vals_.size(); ++k) {
    const real_t v = coo_vals_[k];
    const real_t* __restrict wj =
        wd + static_cast<std::size_t>(coo_cols_[k] * b);
    real_t* __restrict yi = yd + static_cast<std::size_t>(coo_rows_[k] * b);
    for (index_t q = 0; q < b; ++q) yi[q] += v * wj[q];
  }
}

void HybMatrix::gather_row(index_t i, SparseVector& out) const {
  LS_CHECK(i >= 0 && i < rows_, "gather_row index out of range");
  out.clear();
  // Slab part: lanes hold the row's first nonzeros in ascending column
  // order; overflow holds the tail (strictly larger columns), so a plain
  // concatenation stays sorted.
  const index_t len = ell_len_[static_cast<std::size_t>(i)];
  for (index_t k = 0; k < len; ++k) {
    out.push_back(ell_cols_[slot(i, k)], ell_vals_[slot(i, k)]);
  }
  const index_t* begin = coo_rows_.data();
  const index_t* end = coo_rows_.data() + coo_rows_.size();
  const index_t* lo = std::lower_bound(begin, end, i);
  const index_t* hi = std::upper_bound(lo, end, i);
  for (const index_t* p = lo; p != hi; ++p) {
    const auto k = static_cast<std::size_t>(p - begin);
    out.push_back(coo_cols_[k], coo_vals_[k]);
  }
}

CooMatrix HybMatrix::to_coo() const {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz_));
  for (index_t i = 0; i < rows_; ++i) {
    const index_t len = ell_len_[static_cast<std::size_t>(i)];
    for (index_t k = 0; k < len; ++k) {
      triplets.push_back({i, ell_cols_[slot(i, k)], ell_vals_[slot(i, k)]});
    }
  }
  for (std::size_t k = 0; k < coo_vals_.size(); ++k) {
    triplets.push_back({coo_rows_[k], coo_cols_[k], coo_vals_[k]});
  }
  return CooMatrix(rows_, cols_, std::move(triplets));
}

}  // namespace ls
