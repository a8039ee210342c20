// Property-based differential tests: every storage format is checked
// against the brute-force COO oracle (and against its own single-rhs
// kernel) on randomized matrices spanning the structural regimes the
// scheduler distinguishes — sparse, dense, diagonal, empty rows, single
// column/row, all-zero.
//
// Two comparison regimes:
//  * format vs oracle: accumulation ORDER differs by format (DIA folds in
//    stripe order, the SIMD row dots in lane order, ...), so results are
//    compared with the ULP-aware helper;
//  * batched vs single-rhs: every multiply_dense_batch implementation
//    mirrors its format's multiply_dense traversal per output element, so
//    lane k of a batched product must be BIT-identical to the single-rhs
//    product of that lane.
// A third regime covers the SIMD dispatch layer (src/kernels): every
// dispatchable micro-kernel is run at every level the host supports and
// compared against the scalar reference — ULP-bounded across levels
// (accumulation order differs), BIT-identical between a batched lane and
// the single-rhs kernel at the same level. Shapes are adversarial on
// purpose: empty and single-element rows, batch widths 1..kMaxSmsvBatch,
// remainder lengths straddling every vector width (2/4/8), and row
// starts deliberately misaligned from the 64-byte allocation base. The
// two SMO working-set scans return an index, so they are held to the
// scalar index and score exactly, and to the same index under any block
// split of their range.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "formats/any_matrix.hpp"
#include "kernels/simd.hpp"
#include "test_util.hpp"

namespace {

using namespace ls;

struct MatrixCase {
  std::string name;
  CooMatrix coo;
};

/// A matrix with deliberately empty rows (first, middle, last).
CooMatrix matrix_with_empty_rows(index_t m, index_t n, Rng& rng) {
  std::vector<Triplet> triplets;
  for (index_t i = 0; i < m; ++i) {
    if (i == 0 || i == m / 2 || i == m - 1) continue;
    for (index_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) triplets.push_back({i, j, rng.uniform(-1, 1)});
    }
  }
  return CooMatrix(m, n, std::move(triplets));
}

const std::vector<MatrixCase>& structural_cases() {
  static const std::vector<MatrixCase> cases = [] {
    Rng rng(0xD1FFull);
    std::vector<MatrixCase> cs;
    cs.push_back({"sparse_1pct", test::random_matrix(48, 37, 0.01, rng)});
    cs.push_back({"sparse_10pct", test::random_matrix(33, 61, 0.10, rng)});
    cs.push_back({"half_dense", test::random_matrix(40, 40, 0.5, rng)});
    cs.push_back({"dense", make_dense_matrix(29, 23, rng)});
    cs.push_back({"tridiagonal", make_banded(50, 50, {0, 1, -1}, 1.0, rng)});
    cs.push_back(
        {"wide_band", make_banded(41, 41, {0, 2, -2, 5, -5, 9}, 0.8, rng)});
    cs.push_back({"empty_rows", matrix_with_empty_rows(21, 18, rng)});
    cs.push_back({"single_column", test::random_matrix(30, 1, 0.6, rng)});
    cs.push_back({"single_row", test::random_matrix(1, 25, 0.6, rng)});
    cs.push_back({"all_zero", CooMatrix(9, 7, {})});
    cs.push_back({"tall_skinny", test::random_matrix(120, 5, 0.25, rng)});
    cs.push_back({"short_fat", test::random_matrix(4, 90, 0.25, rng)});
    return cs;
  }();
  return cases;
}

/// Runs `fn(case, format, mat)` for every structural case x format pair.
template <class Fn>
void for_each_case_and_format(Fn&& fn) {
  for (const MatrixCase& c : structural_cases()) {
    for (Format f : kAllFormats) {
      SCOPED_TRACE(c.name + " / " + std::string(format_name(f)));
      fn(c, AnyMatrix::from_coo(c.coo, f));
    }
  }
}

/// Interleaved batch rhs: lane k of the block is `lanes[k]`.
std::vector<real_t> interleave(const std::vector<std::vector<real_t>>& lanes) {
  const auto b = lanes.size();
  const auto n = lanes.front().size();
  std::vector<real_t> w(n * b);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < b; ++k) w[j * b + k] = lanes[k][j];
  }
  return w;
}

/// Lane k extracted from an interleaved batch result.
std::vector<real_t> lane(const std::vector<real_t>& y, std::size_t b,
                         std::size_t k) {
  std::vector<real_t> out(y.size() / b);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = y[i * b + k];
  return out;
}

void check_batch_matches_single(index_t b_rows) {
  for_each_case_and_format([&](const MatrixCase&, const AnyMatrix& mat) {
    Rng rng(0xBEEFull + static_cast<std::uint64_t>(b_rows));
    const auto b = static_cast<std::size_t>(b_rows);
    std::vector<std::vector<real_t>> lanes(b);
    for (auto& l : lanes) l = test::random_vector(mat.cols(), rng);

    const std::vector<real_t> w = interleave(lanes);
    std::vector<real_t> y(static_cast<std::size_t>(mat.rows()) * b, -7.0);
    mat.multiply_dense_batch(w, b_rows, y);

    std::vector<real_t> single(static_cast<std::size_t>(mat.rows()));
    for (std::size_t k = 0; k < b; ++k) {
      mat.multiply_dense(lanes[k], single);
      test::expect_bit_identical(lane(y, b, k), single);
    }
  });
}

TEST(Differential, MultiplyMatchesOracleAllFormats) {
  for_each_case_and_format([](const MatrixCase& c, const AnyMatrix& mat) {
    Rng rng(0xACE5ull);
    const std::vector<real_t> w = test::random_vector(mat.cols(), rng);
    std::vector<real_t> y(static_cast<std::size_t>(mat.rows()), -3.0);
    mat.multiply_dense(w, y);
    test::expect_ulp_near(y, test::reference_multiply(c.coo, w));
  });
}

TEST(Differential, MultiplyWithSparseRhsMatchesOracle) {
  // The SMO workspace is a scattered matrix row: mostly exact zeros. This
  // drives the zero-product paths.
  for_each_case_and_format([](const MatrixCase& c, const AnyMatrix& mat) {
    Rng rng(0x5A5Aull);
    std::vector<real_t> w(static_cast<std::size_t>(mat.cols()), 0.0);
    for (auto& x : w) {
      if (rng.bernoulli(0.2)) x = rng.uniform(-2.0, 2.0);
    }
    std::vector<real_t> y(static_cast<std::size_t>(mat.rows()), 1.0);
    mat.multiply_dense(w, y);
    test::expect_ulp_near(y, test::reference_multiply(c.coo, w));
  });
}

TEST(Differential, BatchMatchesOracleAllFormats) {
  for_each_case_and_format([](const MatrixCase& c, const AnyMatrix& mat) {
    Rng rng(0xFACEull);
    constexpr std::size_t b = 5;
    std::vector<std::vector<real_t>> lanes(b);
    for (auto& l : lanes) l = test::random_vector(mat.cols(), rng);
    const std::vector<real_t> w = interleave(lanes);
    std::vector<real_t> y(static_cast<std::size_t>(mat.rows()) * b);
    mat.multiply_dense_batch(w, static_cast<index_t>(b), y);
    for (std::size_t k = 0; k < b; ++k) {
      test::expect_ulp_near(lane(y, b, k),
                            test::reference_multiply(c.coo, lanes[k]));
    }
  });
}

TEST(Differential, BatchLaneBitIdenticalToSingleB1) {
  check_batch_matches_single(1);
}

TEST(Differential, BatchLaneBitIdenticalToSingleB3) {
  check_batch_matches_single(3);
}

TEST(Differential, BatchLaneBitIdenticalToSingleB8) {
  check_batch_matches_single(8);
}

TEST(Differential, BatchLaneBitIdenticalToSingleMaxBatch) {
  check_batch_matches_single(kMaxSmsvBatch);
}

TEST(Differential, BatchWithSparseLanesMatchesOracle) {
  // Lanes with exact zeros — the shape SMO and the serving batcher send.
  // Each lane must match the oracle up to accumulation order, and be
  // bit-identical to the single-rhs product of that lane (signed zeros
  // included).
  for_each_case_and_format([](const MatrixCase& c, const AnyMatrix& mat) {
    Rng rng(0x0FF5ull);
    constexpr std::size_t b = 4;
    std::vector<std::vector<real_t>> lanes(
        b, std::vector<real_t>(static_cast<std::size_t>(mat.cols()), 0.0));
    for (auto& l : lanes) {
      for (auto& x : l) {
        if (rng.bernoulli(0.15)) x = rng.uniform(-1.0, 1.0);
      }
    }
    const std::vector<real_t> w = interleave(lanes);
    std::vector<real_t> y(static_cast<std::size_t>(mat.rows()) * b);
    mat.multiply_dense_batch(w, static_cast<index_t>(b), y);
    std::vector<real_t> single(static_cast<std::size_t>(mat.rows()));
    for (std::size_t k = 0; k < b; ++k) {
      test::expect_ulp_near(lane(y, b, k),
                            test::reference_multiply(c.coo, lanes[k]));
      mat.multiply_dense(lanes[k], single);
      test::expect_bit_identical(lane(y, b, k), single);
    }
  });
}

TEST(Differential, GatherRowMatchesOracleAllFormats) {
  for_each_case_and_format([](const MatrixCase& c, const AnyMatrix& mat) {
    SparseVector row;
    std::vector<real_t> dense(static_cast<std::size_t>(mat.cols()));
    for (index_t i = 0; i < mat.rows(); ++i) {
      mat.gather_row(i, row);
      std::fill(dense.begin(), dense.end(), 0.0);
      row.scatter(dense);

      std::vector<real_t> expected(static_cast<std::size_t>(c.coo.cols()),
                                   0.0);
      const auto rows = c.coo.row_indices();
      const auto cols = c.coo.col_indices();
      const auto vals = c.coo.values();
      for (std::size_t k = 0; k < vals.size(); ++k) {
        if (rows[k] == i) expected[static_cast<std::size_t>(cols[k])] = vals[k];
      }
      test::expect_bit_identical(dense, expected);
    }
  });
}

TEST(Differential, GatherRowsBatchMatchesPerRowGather) {
  // Includes duplicate and out-of-order ids — the batch contract is purely
  // elementwise: out[k] = gather_row(rows[k]).
  for_each_case_and_format([](const MatrixCase&, const AnyMatrix& mat) {
    const index_t m = mat.rows();
    std::vector<index_t> ids = {m - 1, 0, m / 2, 0, m - 1};
    std::vector<SparseVector> batch(ids.size());
    mat.gather_rows_batch(ids, batch);

    SparseVector expected;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      mat.gather_row(ids[k], expected);
      ASSERT_EQ(batch[k].nnz(), expected.nnz()) << "slot " << k;
      for (index_t e = 0; e < expected.nnz(); ++e) {
        const auto eu = static_cast<std::size_t>(e);
        EXPECT_EQ(batch[k].indices()[eu], expected.indices()[eu]);
        EXPECT_EQ(batch[k].values()[eu], expected.values()[eu]);
      }
    }
  });
}

TEST(Differential, CooGatherRowsBatchMatchesPerRowGather) {
  Rng rng(0xC00ull);
  const CooMatrix coo = test::random_matrix(17, 11, 0.3, rng);
  std::vector<index_t> ids = {16, 3, 3, 0, 8};
  std::vector<SparseVector> batch(ids.size());
  coo.gather_rows_batch(ids, batch);
  SparseVector expected;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    coo.gather_row(ids[k], expected);
    ASSERT_EQ(batch[k].nnz(), expected.nnz()) << "slot " << k;
    for (index_t e = 0; e < expected.nnz(); ++e) {
      const auto eu = static_cast<std::size_t>(e);
      EXPECT_EQ(batch[k].indices()[eu], expected.indices()[eu]);
      EXPECT_EQ(batch[k].values()[eu], expected.values()[eu]);
    }
  }
}

TEST(Differential, BatchRejectsBadArguments) {
  Rng rng(0xBADull);
  const AnyMatrix mat =
      AnyMatrix::from_coo(test::random_matrix(6, 5, 0.5, rng), Format::kCSR);
  std::vector<real_t> w(5 * 2, 0.0);
  std::vector<real_t> y(6 * 2, 0.0);
  EXPECT_THROW(mat.multiply_dense_batch(w, 0, y), Error);
  EXPECT_THROW(mat.multiply_dense_batch(w, kMaxSmsvBatch + 1, y), Error);
  EXPECT_THROW(mat.multiply_dense_batch(w, 3, y), Error);  // w sized for b=2
  std::vector<real_t> y_short(6, 0.0);
  EXPECT_THROW(mat.multiply_dense_batch(w, 2, y_short), Error);
  std::vector<SparseVector> out(3);
  std::vector<index_t> two_ids = {0, 1};
  EXPECT_THROW(mat.gather_rows_batch(two_ids, out), Error);
}

// ------------------------------------------- cross-ISA kernel harness

/// Every dispatch level the running host supports (scalar included).
std::vector<simd::SimdLevel> supported_levels() {
  std::vector<simd::SimdLevel> levels;
  for (int l = 0; l < simd::kNumSimdLevels; ++l) {
    const auto level = static_cast<simd::SimdLevel>(l);
    if (simd::level_supported(level)) levels.push_back(level);
  }
  return levels;
}

/// Lengths that straddle every vector width in play (2, 4, 8): empty,
/// single element, each width +-1, and longer runs with every remainder
/// class around the widest accumulator block.
const std::vector<index_t>& adversarial_lengths() {
  static const std::vector<index_t> lens = {0,  1,  2,  3,  4,  5,  7,  8,
                                            9,  15, 16, 17, 31, 32, 33, 63,
                                            64, 65, 100, 127};
  return lens;
}

/// Fills [0, n) of an aligned buffer with deterministic non-trivial values.
void fill_values(AlignedBuffer<real_t>& buf, Rng& rng) {
  for (auto& x : buf) x = rng.uniform(-2.0, 2.0);
}

/// Scalar version of test::expect_ulp_near — same ULP bound plus the
/// absolute escape hatch for sums that cancel to ~0.
void expect_close(real_t got, real_t want) {
  const std::vector<real_t> g{got}, w{want};
  test::expect_ulp_near(g, w);
}

TEST(CrossIsa, DenseRowDotMatchesScalarAtEveryLevel) {
  Rng rng(0x51D0ull);
  AlignedBuffer<real_t> r(256), w(256);
  fill_values(r, rng);
  fill_values(w, rng);
  for (simd::SimdLevel level : supported_levels()) {
    simd::ScopedSimdLevel guard(level);
    SCOPED_TRACE(std::string(simd::level_name(level)));
    for (index_t n : adversarial_lengths()) {
      // Offsets break the 64-byte base alignment: CSR row starts land on
      // arbitrary element offsets, so the kernels must not assume more
      // than 8-byte alignment.
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{7}}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off));
        const real_t got =
            simd::kernels().dense_row_dot(r.data() + off, w.data() + off, n);
        real_t want;
        {
          simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
          want =
              simd::kernels().dense_row_dot(r.data() + off, w.data() + off, n);
        }
        expect_close(got, want);
      }
    }
  }
}

TEST(CrossIsa, SparseRowDotMatchesScalarAtEveryLevel) {
  Rng rng(0x51D1ull);
  AlignedBuffer<real_t> v(256), w(97);
  AlignedBuffer<index_t> c(256);
  fill_values(v, rng);
  fill_values(w, rng);
  for (auto& idx : c) idx = rng.uniform_int(0, 96);
  for (simd::SimdLevel level : supported_levels()) {
    simd::ScopedSimdLevel guard(level);
    SCOPED_TRACE(std::string(simd::level_name(level)));
    for (index_t n : adversarial_lengths()) {
      for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off));
        const real_t got = simd::kernels().sparse_row_dot(
            v.data() + off, c.data() + off, n, w.data());
        real_t want;
        {
          simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
          want = simd::kernels().sparse_row_dot(v.data() + off, c.data() + off,
                                                n, w.data());
        }
        expect_close(got, want);
      }
    }
  }
}

TEST(CrossIsa, BatchKernelLanesBitIdenticalToSingleAtEveryLevel) {
  // The core numerical contract of the dispatch layer: at a FIXED level,
  // lane q of a batched kernel is bit-identical to the single-rhs kernel.
  // Swept over every batch width the engine can issue (1..kMaxSmsvBatch)
  // and lengths around the widest vector block.
  Rng rng(0x51D2ull);
  AlignedBuffer<real_t> r(72);
  AlignedBuffer<index_t> c(72);
  fill_values(r, rng);
  for (auto& idx : c) idx = rng.uniform_int(0, 71);
  AlignedBuffer<real_t> wblock(72 * static_cast<std::size_t>(kMaxSmsvBatch));
  fill_values(wblock, rng);

  for (simd::SimdLevel level : supported_levels()) {
    simd::ScopedSimdLevel guard(level);
    SCOPED_TRACE(std::string(simd::level_name(level)));
    const simd::KernelTable& kt = simd::kernels();
    for (index_t n : {index_t{0}, index_t{1}, index_t{7}, index_t{8},
                      index_t{9}, index_t{33}, index_t{72}}) {
      for (index_t b = 1; b <= kMaxSmsvBatch; ++b) {
        std::vector<real_t> y(static_cast<std::size_t>(b), -7.0);
        kt.dense_row_batch(r.data(), n, wblock.data(), b, y.data());
        std::vector<real_t> ys(static_cast<std::size_t>(b), -9.0);
        kt.sparse_row_batch(r.data(), c.data(), n, wblock.data(), b,
                            ys.data());
        // Lane q of the block sees w[j*b + q]; gather it into a contiguous
        // single-rhs workspace to run the single kernel on the same data.
        std::vector<real_t> wq(72);
        for (index_t q = 0; q < b; ++q) {
          for (std::size_t j = 0; j < 72; ++j) {
            wq[j] = wblock[j * static_cast<std::size_t>(b) +
                           static_cast<std::size_t>(q)];
          }
          const real_t dq = kt.dense_row_dot(r.data(), wq.data(), n);
          const real_t sq = kt.sparse_row_dot(r.data(), c.data(), n, wq.data());
          ASSERT_EQ(y[static_cast<std::size_t>(q)], dq)
              << "dense lane " << q << " of b=" << b << " n=" << n;
          ASSERT_EQ(ys[static_cast<std::size_t>(q)], sq)
              << "sparse lane " << q << " of b=" << b << " n=" << n;
        }
      }
    }
  }
}

TEST(CrossIsa, StripKernelsMatchScalarAtEveryLevel) {
  // gather_axpy (ELL strips), single and batched, against the scalar
  // table.
  Rng rng(0x51D3ull);
  constexpr index_t kLen = 67;  // odd: remainder lanes at every width
  AlignedBuffer<real_t> v(kLen);
  AlignedBuffer<index_t> c(kLen);
  fill_values(v, rng);
  for (auto& idx : c) idx = rng.uniform_int(0, 40);
  AlignedBuffer<real_t> w(41);
  fill_values(w, rng);

  auto run_level = [&](simd::SimdLevel level, index_t len, index_t b,
                       std::vector<real_t>& y_axpy,
                       std::vector<real_t>& yb_axpy) {
    simd::ScopedSimdLevel guard(level);
    const simd::KernelTable& kt = simd::kernels();
    y_axpy.assign(static_cast<std::size_t>(kLen), 0.25);
    kt.gather_axpy(v.data(), c.data(), len, w.data(), y_axpy.data());
    AlignedBuffer<real_t> wblock(41 * static_cast<std::size_t>(b));
    Rng wrng(0xB10Cull);  // same block at every level
    fill_values(wblock, wrng);
    yb_axpy.assign(static_cast<std::size_t>(kLen * b), 0.125);
    kt.gather_axpy_batch(v.data(), c.data(), len, wblock.data(), b,
                         yb_axpy.data());
  };

  for (index_t len : {index_t{0}, index_t{1}, index_t{2}, index_t{3},
                      index_t{8}, index_t{9}, kLen}) {
    for (index_t b : {index_t{1}, index_t{3}, index_t{8}, index_t{13}}) {
      std::vector<real_t> sa, sba;
      run_level(simd::SimdLevel::kScalar, len, b, sa, sba);
      for (simd::SimdLevel level : supported_levels()) {
        SCOPED_TRACE(std::string(simd::level_name(level)) + " len=" +
                     std::to_string(len) + " b=" + std::to_string(b));
        std::vector<real_t> la, lba;
        run_level(level, len, b, la, lba);
        test::expect_ulp_near(la, sa);
        test::expect_ulp_near(lba, sba);
      }
    }
  }
}

TEST(CrossIsa, FormatMultipliesMatchScalarAtEveryLevel) {
  // End to end through the format layer: every structural case x every
  // format x every supported level, single and batched, against the same
  // product computed with the scalar table.
  for (simd::SimdLevel level : supported_levels()) {
    if (level == simd::SimdLevel::kScalar) continue;
    for_each_case_and_format([&](const MatrixCase& c, const AnyMatrix& mat) {
      SCOPED_TRACE(std::string(simd::level_name(level)));
      Rng rng(0xC105ull);
      const std::vector<real_t> w = test::random_vector(mat.cols(), rng);
      constexpr std::size_t b = 5;
      std::vector<std::vector<real_t>> lanes(b);
      for (auto& l : lanes) l = test::random_vector(mat.cols(), rng);
      const std::vector<real_t> wb = interleave(lanes);

      std::vector<real_t> y_scalar(static_cast<std::size_t>(mat.rows()));
      std::vector<real_t> yb_scalar(static_cast<std::size_t>(mat.rows()) * b);
      {
        simd::ScopedSimdLevel guard(simd::SimdLevel::kScalar);
        mat.multiply_dense(w, y_scalar);
        mat.multiply_dense_batch(wb, static_cast<index_t>(b), yb_scalar);
      }
      std::vector<real_t> y(static_cast<std::size_t>(mat.rows()));
      std::vector<real_t> yb(static_cast<std::size_t>(mat.rows()) * b);
      {
        simd::ScopedSimdLevel guard(level);
        mat.multiply_dense(w, y);
        mat.multiply_dense_batch(wb, static_cast<index_t>(b), yb);
      }
      test::expect_ulp_near(y, y_scalar);
      test::expect_ulp_near(yb, yb_scalar);
      // And the cross-level results still agree with the COO oracle.
      test::expect_ulp_near(y, test::reference_multiply(c.coo, w));
    });
  }
}

TEST(CrossIsa, FormatBatchLanesBitIdenticalAtEveryLevel) {
  // The format-layer bit-identity guarantee (batch lane == single rhs)
  // holds at every level, not just the env-selected one. Batch widths
  // sweep 1..kMaxSmsvBatch on a remainder-heavy case.
  Rng rng(0x1A9Eull);
  const CooMatrix coo = test::random_matrix(37, 29, 0.35, rng);
  for (simd::SimdLevel level : supported_levels()) {
    simd::ScopedSimdLevel guard(level);
    SCOPED_TRACE(std::string(simd::level_name(level)));
    for (Format f : {Format::kDEN, Format::kCSR, Format::kELL}) {
      SCOPED_TRACE(std::string(format_name(f)));
      const AnyMatrix mat = AnyMatrix::from_coo(coo, f);
      for (index_t b_rows : {index_t{1}, index_t{2}, index_t{3}, index_t{4},
                             index_t{5}, index_t{7}, index_t{8}, index_t{9},
                             index_t{16}, index_t{17}, index_t{31},
                             index_t{33}, index_t{63},
                             index_t{kMaxSmsvBatch}}) {
        const auto b = static_cast<std::size_t>(b_rows);
        std::vector<std::vector<real_t>> lanes(b);
        for (auto& l : lanes) l = test::random_vector(mat.cols(), rng);
        const std::vector<real_t> w = interleave(lanes);
        std::vector<real_t> y(static_cast<std::size_t>(mat.rows()) * b, -7.0);
        mat.multiply_dense_batch(w, b_rows, y);
        std::vector<real_t> single(static_cast<std::size_t>(mat.rows()));
        for (std::size_t k = 0; k < b; ++k) {
          SCOPED_TRACE("b=" + std::to_string(b_rows) + " lane " +
                       std::to_string(k));
          mat.multiply_dense(lanes[k], single);
          test::expect_bit_identical(lane(y, b, k), single);
        }
      }
    }
  }
}

// ------------------------------------------- SMO working-set scans

enum class WssShape { kTies, kEmptyMask, kAllNegInf, kNaN, kEtaNonPositive };

/// Scan inputs of length n in one of the adversarial shapes. Values come
/// from a few discrete levels so equal scores land in every lane and
/// block.
test::WssScanInput wss_case(WssShape shape, index_t n, Rng& rng) {
  constexpr real_t kInf = std::numeric_limits<real_t>::infinity();
  test::WssScanInput in;
  const auto un = static_cast<std::size_t>(n);
  in.f.resize(un);
  in.status.resize(un);
  in.kdiag.assign(un, 1.0);
  in.k_high.resize(un);
  in.b_high = -1.0;
  in.k_hh = 1.0;
  for (std::size_t i = 0; i < un; ++i) {
    in.f[i] = 0.5 * static_cast<real_t>(rng.uniform_int(-2, 2));
    in.status[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
    in.k_high[i] = 0.25 * static_cast<real_t>(rng.uniform_int(-1, 1));
    switch (shape) {
      case WssShape::kTies:
        break;
      case WssShape::kEmptyMask:
        in.status[i] = 0;
        break;
      case WssShape::kAllNegInf:
        // Every member scores -inf: +inf f in I_high, -inf f in I_low
        // (whose gain b = -inf - b_high is never positive).
        in.status[i] = i % 2 ? simd::kInHigh : simd::kInLow;
        in.f[i] = i % 2 ? kInf : -kInf;
        break;
      case WssShape::kNaN:
        if (i % 3 == 1) in.f[i] = std::numeric_limits<real_t>::quiet_NaN();
        break;
      case WssShape::kEtaNonPositive:
        in.kdiag[i] = 0.0;
        in.k_high[i] = 0.5 * static_cast<real_t>(rng.uniform_int(0, 2));
        break;
    }
  }
  if (shape == WssShape::kEtaNonPositive) in.k_hh = 0.0;
  return in;
}

TEST(CrossIsa, WssScansMatchScalarIndexAtEveryLevel) {
  // An index, not an accumulation: every level must return exactly the
  // scalar table's index and score, including ties across lanes and
  // blocks, empty masks, all -inf scores, NaN f and eta <= 0.
  Rng rng(0x5E1Eull);
  for (WssShape shape : {WssShape::kTies, WssShape::kEmptyMask,
                         WssShape::kAllNegInf, WssShape::kNaN,
                         WssShape::kEtaNonPositive}) {
    for (index_t n : adversarial_lengths()) {
      for (index_t off : {index_t{0}, index_t{1}, index_t{3}}) {
        SCOPED_TRACE("shape=" + std::to_string(static_cast<int>(shape)) +
                     " n=" + std::to_string(n) +
                     " off=" + std::to_string(off));
        const test::WssScanInput in = wss_case(shape, n + off, rng);
        std::array<simd::Argmax, 3> want;
        {
          simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
          want = test::run_wss_scans(simd::kernels(), in, off, off + n);
        }
        if (shape == WssShape::kEmptyMask || shape == WssShape::kAllNegInf) {
          for (const simd::Argmax& a : want) EXPECT_EQ(a.index, -1);
        }
        for (simd::SimdLevel level : supported_levels()) {
          SCOPED_TRACE(std::string(simd::level_name(level)));
          simd::ScopedSimdLevel guard(level);
          test::expect_same_argmax(
              test::run_wss_scans(simd::kernels(), in, off, off + n), want);
        }
      }
    }
  }
}

TEST(CrossIsa, WssScansFoldAnySplitToTheSerialIndex) {
  // The solver hands each thread's block to one kernel call and folds the
  // blocks left to right: any split of [0, n) must give the serial index.
  Rng rng(0x5E1Full);
  for (simd::SimdLevel level : supported_levels()) {
    simd::ScopedSimdLevel guard(level);
    SCOPED_TRACE(std::string(simd::level_name(level)));
    const simd::KernelTable& kt = simd::kernels();
    for (int trial = 0; trial < 60; ++trial) {
      const index_t n = rng.uniform_int(0, 300);
      const auto shape = static_cast<WssShape>(rng.uniform_int(0, 4));
      const test::WssScanInput in = wss_case(shape, n, rng);
      const std::array<simd::Argmax, 3> whole =
          test::run_wss_scans(kt, in, 0, n);
      std::vector<index_t> cuts{0, n};
      for (index_t k = rng.uniform_int(0, 6); k > 0; --k) {
        cuts.push_back(rng.uniform_int(0, n));
      }
      std::sort(cuts.begin(), cuts.end());
      std::array<simd::Argmax, 3> folded{simd::kNoArgmax, simd::kNoArgmax,
                                         simd::kNoArgmax};
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        std::array<simd::Argmax, 3> part =
            test::run_wss_scans(kt, in, cuts[c], cuts[c + 1]);
        for (std::size_t k = 0; k < part.size(); ++k) {
          if (part[k].index >= 0) part[k].index += cuts[c];
          folded[k] = simd::fold_argmax(folded[k], part[k]);
        }
      }
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " n=" + std::to_string(n) +
                   " blocks=" + std::to_string(cuts.size() - 1));
      test::expect_same_argmax(folded, whole);
    }
  }
}

TEST(CrossIsa, SmoUpdateSelectMatchesScalarUpdateThenHighLowAtEveryLevel) {
  // The fused Eq. 4 update must write the solver's scalar loop's f to the
  // bit and return the scalar high/low pass over it: every n up to 4W + 3
  // of the widest level, every offset in a 64-byte line, values drawn from
  // a few levels (ties in every lane and block) including +-0.0, and
  // status bytes cycling through all 256 values.
  Rng rng(0x5E20ull);
  const real_t values[] = {-1.0, -0.5, -0.0, 0.0, 0.5, 1.0};
  const real_t coeffs[] = {0.5, -0.5, 0.25, 0.0, -0.0};
  const auto pick = [&](const auto& from) {
    return from[rng.uniform_int(0, static_cast<index_t>(std::size(from)) - 1)];
  };
  std::size_t status_byte = 0;
  for (index_t n = 0; n <= 4 * 8 + 3; ++n) {
    for (index_t off = 0; off < 8; ++off) {
      SCOPED_TRACE("n=" + std::to_string(n) + " off=" + std::to_string(off));
      test::WssScanInput in;
      const auto len = static_cast<std::size_t>(n + off);
      in.f.resize(len);
      in.k_high.resize(len);
      in.k_low.resize(len);
      in.status.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        in.f[i] = pick(values);
        in.k_high[i] = pick(values);
        in.k_low[i] = pick(values);
        in.status[i] = static_cast<std::uint8_t>(status_byte++);
      }
      in.d_hi = pick(coeffs);
      in.d_lo = pick(coeffs);
      std::vector<real_t> want_f = in.f;
      std::array<simd::Argmax, 2> want;
      {
        simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
        want = test::update_then_scan(simd::kernels(), in, off, off + n,
                                      want_f);
      }
      for (simd::SimdLevel level : supported_levels()) {
        SCOPED_TRACE(std::string(simd::level_name(level)));
        simd::ScopedSimdLevel guard(level);
        std::vector<real_t> f = in.f;
        test::expect_same_argmax(
            test::run_update_select(simd::kernels(), in, off, off + n, f),
            want);
        test::expect_bit_identical(f, want_f);
      }
    }
  }
}

TEST(CrossIsa, WssGainMatchesScalarOnCandidateFreeBlocks) {
  // wss_gain skips every W-block with no I_low sample above b_high. Inputs
  // made of such blocks: no candidate at all, one candidate per block in
  // each lane, and candidates only in the tail. Non-candidates are of all
  // three kinds: outside I_low, f <= b_high, and NaN f.
  Rng rng(0x5E21ull);
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  for (simd::SimdLevel level : supported_levels()) {
    SCOPED_TRACE(std::string(simd::level_name(level)));
    index_t w = 1;
    {
      simd::ScopedSimdLevel guard(level);
      w = simd::kernels().width;
    }
    // pattern -1: no candidate; 0..w-1: that lane of every full block;
    // w: the tail only.
    for (index_t pattern = -1; pattern <= w; ++pattern) {
      for (index_t n : {index_t{0}, index_t{1}, w - 1, w, w + 1, 4 * w,
                        4 * w + 3, 10 * w + 5}) {
        SCOPED_TRACE("pattern=" + std::to_string(pattern) +
                     " n=" + std::to_string(n));
        const index_t full = n / w * w;
        test::WssScanInput in;
        const auto un = static_cast<std::size_t>(n);
        in.b_high = -0.5;
        in.k_hh = 1.0;
        in.f.resize(un);
        in.status.resize(un);
        in.kdiag.assign(un, 1.0);
        in.k_high.resize(un);
        for (index_t i = 0; i < n; ++i) {
          const auto iu = static_cast<std::size_t>(i);
          const bool candidate =
              pattern == w ? i >= full : (i < full && i % w == pattern);
          in.k_high[iu] = 0.25 * static_cast<real_t>(rng.uniform_int(-1, 1));
          if (candidate) {
            in.status[iu] = static_cast<std::uint8_t>(
                simd::kInLow | (rng.bernoulli(0.5) ? simd::kInHigh : 0));
            in.f[iu] = in.b_high + 0.5 * static_cast<real_t>(
                                             rng.uniform_int(1, 3));
            continue;
          }
          switch (rng.uniform_int(0, 2)) {
            case 0:  // outside I_low, however large f is
              in.status[iu] = simd::kInHigh;
              in.f[iu] = 4.0;
              break;
            case 1:  // in I_low at or below b_high
              in.status[iu] = simd::kInLow;
              in.f[iu] = in.b_high - 0.5 *
                                         static_cast<real_t>(rng.uniform_int(0, 2));
              break;
            default:  // NaN f: b > 0 is false
              in.status[iu] = simd::kInLow;
              in.f[iu] = nan;
              break;
          }
        }
        std::array<simd::Argmax, 3> want;
        {
          simd::ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
          want = test::run_wss_scans(simd::kernels(), in, 0, n);
        }
        const bool any_candidate =
            pattern == w ? n > full : (pattern >= 0 && pattern < full);
        EXPECT_EQ(want[2].index >= 0, any_candidate);
        simd::ScopedSimdLevel guard(level);
        test::expect_same_argmax(test::run_wss_scans(simd::kernels(), in, 0, n),
                                 want);
      }
    }
  }
}

TEST(Differential, UlpHelperSanity) {
  EXPECT_EQ(test::ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(test::ulp_distance(0.0, -0.0), 0u);
  EXPECT_EQ(
      test::ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(test::ulp_distance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_GT(test::ulp_distance(1.0, 1.0 + 1e-9), 1000u);
  EXPECT_EQ(test::ulp_distance(std::numeric_limits<double>::quiet_NaN(), 1.0),
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
