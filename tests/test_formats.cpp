// Tests for the five storage formats: construction invariants, SMSV
// correctness against a brute-force reference, row gathers, conversion
// round-trips and the Table II storage accounting. The parameterised suite
// sweeps all formats over a grid of shapes and densities.
#include <gtest/gtest.h>

#include <tuple>

#include "data/synthetic.hpp"
#include "formats/any_matrix.hpp"
#include "formats/storage.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

using test::expect_near;
using test::random_matrix;
using test::random_vector;
using test::reference_multiply;

TEST(Coo, ConstructionSortsAndDeduplicates) {
  std::vector<Triplet> t = {{1, 1, 2.0}, {0, 2, 3.0}, {1, 1, 5.0}, {0, 0, 1.0}};
  CooMatrix coo(2, 3, t);
  EXPECT_EQ(coo.nnz(), 3);  // (1,1) entries summed
  const auto rows = coo.row_indices();
  const auto cols = coo.col_indices();
  const auto vals = coo.values();
  EXPECT_EQ(rows[0], 0);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(vals[0], 1.0);
  EXPECT_EQ(rows[2], 1);
  EXPECT_EQ(cols[2], 1);
  EXPECT_EQ(vals[2], 7.0);
}

TEST(Coo, DropsExplicitZerosAndCancellations) {
  std::vector<Triplet> t = {{0, 0, 0.0}, {1, 1, 2.0}, {1, 1, -2.0}};
  CooMatrix coo(2, 2, t);
  EXPECT_EQ(coo.nnz(), 0);
}

TEST(Coo, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CooMatrix(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(CooMatrix(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Coo, GatherRowReturnsSortedEntries) {
  CooMatrix coo(3, 5, {{1, 4, 4.0}, {1, 0, 1.0}, {0, 2, 9.0}});
  SparseVector row;
  coo.gather_row(1, row);
  ASSERT_EQ(row.nnz(), 2);
  EXPECT_EQ(row.indices()[0], 0);
  EXPECT_EQ(row.indices()[1], 4);
  EXPECT_EQ(row.values()[0], 1.0);
  EXPECT_EQ(row.values()[1], 4.0);
  coo.gather_row(2, row);
  EXPECT_TRUE(row.empty());
}

TEST(Dense, ElementAccessAndNnz) {
  CooMatrix coo(2, 3, {{0, 1, 5.0}, {1, 2, -1.0}});
  DenseMatrix d(coo);
  EXPECT_EQ(d(0, 1), 5.0);
  EXPECT_EQ(d(0, 0), 0.0);
  EXPECT_EQ(d(1, 2), -1.0);
  EXPECT_EQ(d.nnz(), 2);
  EXPECT_EQ(d.stored_elements(), 6);
}

TEST(Dense, RecountNnzAfterMutation) {
  DenseMatrix d(2, 2);
  d(0, 0) = 1.0;
  d(1, 1) = 2.0;
  d.recount_nnz();
  EXPECT_EQ(d.nnz(), 2);
}

TEST(Csr, RowViewsMatchSourceData) {
  CooMatrix coo(3, 4, {{0, 1, 1.0}, {0, 3, 2.0}, {2, 0, 3.0}});
  CsrMatrix csr(coo);
  EXPECT_EQ(csr.row_nnz(0), 2);
  EXPECT_EQ(csr.row_nnz(1), 0);
  EXPECT_EQ(csr.row_nnz(2), 1);
  EXPECT_EQ(csr.row_cols(0)[1], 3);
  EXPECT_EQ(csr.row_values(2)[0], 3.0);
  EXPECT_EQ(csr.row_ptr().size(), 4u);
}

TEST(Ell, PaddedWidthEqualsMaxRowLength) {
  CooMatrix coo(3, 10, {{0, 0, 1.0}, {0, 5, 1.0}, {0, 9, 1.0}, {1, 2, 1.0}});
  EllMatrix ell(coo);
  EXPECT_EQ(ell.max_row_nnz(), 3);
  EXPECT_EQ(ell.stored_elements(), 9);  // 3 rows x mdim 3
  EXPECT_EQ(ell.nnz(), 4);
}

TEST(Dia, DiagonalCountAndStripeLength) {
  // Entries on offsets 0 and -1 of a tall 4x2 matrix.
  CooMatrix coo(4, 2, {{0, 0, 1.0}, {1, 1, 2.0}, {1, 0, 3.0}, {2, 1, 4.0}});
  DiaMatrix dia(coo);
  EXPECT_EQ(dia.num_diagonals(), 2);
  EXPECT_EQ(dia.stripe_len(), 2);  // min(4, 2)
  EXPECT_EQ(dia.stored_elements(), 4);
  EXPECT_EQ(dia.nnz(), 4);
}

TEST(Dia, GatherRowSkipsPadding) {
  CooMatrix coo(4, 4, {{0, 0, 1.0}, {2, 2, 2.0}, {1, 2, 5.0}});
  DiaMatrix dia(coo);
  SparseVector row;
  dia.gather_row(1, row);  // only the (1,2) entry, offset +1 is padded at 1
  ASSERT_EQ(row.nnz(), 1);
  EXPECT_EQ(row.indices()[0], 2);
  EXPECT_EQ(row.values()[0], 5.0);
}

TEST(Format, NamesRoundTrip) {
  for (Format f : kAllFormats) {
    EXPECT_EQ(parse_format(format_name(f)), f);
  }
  EXPECT_THROW(parse_format("BOGUS"), Error);
}

TEST(AnyMatrix, FormatTagMatchesConstruction) {
  CooMatrix coo(2, 2, {{0, 0, 1.0}});
  for (Format f : kAllFormats) {
    EXPECT_EQ(AnyMatrix::from_coo(coo, f).format(), f);
  }
}

TEST(AnyMatrix, AsAccessesConcreteType) {
  CooMatrix coo(2, 2, {{0, 0, 1.0}});
  AnyMatrix m = AnyMatrix::from_coo(coo, Format::kCSR);
  EXPECT_EQ(m.as<CsrMatrix>().rows(), 2);
  EXPECT_THROW(m.as<DenseMatrix>(), std::bad_variant_access);
}

// ------------------------------------------------------------------------
// Property sweep: every format x several shapes/densities must agree with
// the brute-force reference on multiply, gather, nnz and round-trip.

struct SweepParam {
  Format format;
  index_t m;
  index_t n;
  double density;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  return std::string(format_name(p.format)) + "_" + std::to_string(p.m) +
         "x" + std::to_string(p.n) + "_d" +
         std::to_string(static_cast<int>(p.density * 100));
}

class FormatSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FormatSweep, MultiplyMatchesReference) {
  const auto& p = GetParam();
  Rng rng(0xF00D + static_cast<std::uint64_t>(p.m * 31 + p.n));
  const CooMatrix coo = random_matrix(p.m, p.n, p.density, rng);
  const AnyMatrix mat = AnyMatrix::from_coo(coo, p.format);
  const std::vector<real_t> w = random_vector(p.n, rng);
  std::vector<real_t> y(static_cast<std::size_t>(p.m), -99.0);
  mat.multiply_dense(w, y);
  expect_near(y, reference_multiply(coo, w));
}

TEST_P(FormatSweep, RoundTripThroughCooIsLossless) {
  const auto& p = GetParam();
  Rng rng(0xBEEF + static_cast<std::uint64_t>(p.m));
  const CooMatrix coo = random_matrix(p.m, p.n, p.density, rng);
  const AnyMatrix mat = AnyMatrix::from_coo(coo, p.format);
  const CooMatrix back = mat.to_coo();
  ASSERT_EQ(back.nnz(), coo.nnz());
  expect_near(back.values(), coo.values());
  for (index_t k = 0; k < coo.nnz(); ++k) {
    EXPECT_EQ(back.row_indices()[static_cast<std::size_t>(k)],
              coo.row_indices()[static_cast<std::size_t>(k)]);
    EXPECT_EQ(back.col_indices()[static_cast<std::size_t>(k)],
              coo.col_indices()[static_cast<std::size_t>(k)]);
  }
}

TEST_P(FormatSweep, GatherRowMatchesReference) {
  const auto& p = GetParam();
  Rng rng(0xCAFE + static_cast<std::uint64_t>(p.n));
  const CooMatrix coo = random_matrix(p.m, p.n, p.density, rng);
  const AnyMatrix mat = AnyMatrix::from_coo(coo, p.format);
  SparseVector expect, got;
  for (index_t i = 0; i < p.m; ++i) {
    coo.gather_row(i, expect);
    mat.gather_row(i, got);
    ASSERT_EQ(got.nnz(), expect.nnz()) << "row " << i;
    for (index_t k = 0; k < expect.nnz(); ++k) {
      EXPECT_EQ(got.indices()[static_cast<std::size_t>(k)],
                expect.indices()[static_cast<std::size_t>(k)]);
      EXPECT_DOUBLE_EQ(got.values()[static_cast<std::size_t>(k)],
                       expect.values()[static_cast<std::size_t>(k)]);
    }
  }
}

TEST_P(FormatSweep, DimensionAndNnzAccounting) {
  const auto& p = GetParam();
  Rng rng(0xABCD);
  const CooMatrix coo = random_matrix(p.m, p.n, p.density, rng);
  const AnyMatrix mat = AnyMatrix::from_coo(coo, p.format);
  EXPECT_EQ(mat.rows(), p.m);
  EXPECT_EQ(mat.cols(), p.n);
  EXPECT_EQ(mat.nnz(), coo.nnz());
  EXPECT_GE(mat.stored_elements(), 0);
  EXPECT_GE(mat.work_flops(), 0);
  // Work never undercounts the nonzeros (padding only adds).
  if (coo.nnz() > 0) {
    EXPECT_GE(mat.work_flops(), coo.nnz());
  }
}

std::vector<SweepParam> make_sweep() {
  std::vector<SweepParam> params;
  const std::vector<std::tuple<index_t, index_t, double>> shapes = {
      {1, 1, 1.0},   {5, 7, 0.3},   {16, 16, 0.1},   {64, 8, 0.5},
      {8, 64, 0.5},  {40, 40, 0.02}, {100, 30, 0.15}, {33, 57, 0.9},
  };
  for (Format f : kAllFormats) {
    for (const auto& [m, n, d] : shapes) {
      params.push_back({f, m, n, d});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllFormats, FormatSweep,
                         ::testing::ValuesIn(make_sweep()), sweep_name);

// ------------------------------------------------------------------------
// Empty and degenerate matrices must not crash any format.

class EmptyMatrix : public ::testing::TestWithParam<Format> {};

TEST_P(EmptyMatrix, ZeroNnzMultiplyIsZero) {
  CooMatrix coo(4, 3, {});
  const AnyMatrix mat = AnyMatrix::from_coo(coo, GetParam());
  std::vector<real_t> w(3, 1.0), y(4, 5.0);
  mat.multiply_dense(w, y);
  for (real_t v : y) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(mat.nnz(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EmptyMatrix,
                         ::testing::ValuesIn(std::vector<Format>(
                             kAllFormats.begin(), kAllFormats.end())),
                         [](const auto& info) {
                           return std::string(format_name(info.param));
                         });

// ------------------------------------------------------------------------
// Table II storage accounting: measured bytes must equal the analytic
// formula exactly (the formulas are in element words; every word here is
// 8 bytes).

class StorageAccounting : public ::testing::TestWithParam<Format> {};

TEST_P(StorageAccounting, MeasuredBytesMatchFormula) {
  Rng rng(0x57A6);
  const CooMatrix coo = random_matrix(37, 23, 0.2, rng);
  const AnyMatrix mat = AnyMatrix::from_coo(coo, GetParam());

  StorageShape s;
  s.rows = coo.rows();
  s.cols = coo.cols();
  s.nnz = coo.nnz();
  // ndig / mdim from the materialised structures.
  if (GetParam() == Format::kDIA) {
    s.ndig = mat.as<DiaMatrix>().num_diagonals();
  }
  if (GetParam() == Format::kELL) {
    s.mdim = mat.as<EllMatrix>().max_row_nnz();
  }
  const index_t words = storage_words(GetParam(), s);
  EXPECT_EQ(mat.storage_bytes(), static_cast<std::size_t>(words) * 8u);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, StorageAccounting,
                         ::testing::ValuesIn(std::vector<Format>(
                             kAllFormats.begin(), kAllFormats.end())),
                         [](const auto& info) {
                           return std::string(format_name(info.param));
                         });

TEST(StorageModel, TableIIMinMaxBoundsHold) {
  // For any concrete matrix, storage must lie within the Table II bounds.
  Rng rng(0x7AB1E);
  for (double density : {0.05, 0.3, 1.0}) {
    const CooMatrix coo = random_matrix(20, 30, density, rng);
    for (Format f : kAllFormats) {
      const AnyMatrix mat = AnyMatrix::from_coo(coo, f);
      const auto words =
          static_cast<index_t>(mat.storage_bytes() / 8);
      EXPECT_GE(words, storage_words_min(f, 20, 30))
          << format_name(f) << " density " << density;
      EXPECT_LE(words, storage_words_max(f, 20, 30))
          << format_name(f) << " density " << density;
    }
  }
}

TEST(StorageModel, DenseMatrixExtremes) {
  // Fully dense: CSR ~ 2MN + M, COO ~ 3MN, ELL = 2MN — Table II "Max".
  Rng rng(0xD15C);
  const index_t m = 12, n = 9;
  CooMatrix coo = test::random_matrix(m, n, 1.0, rng);
  ASSERT_EQ(coo.nnz(), m * n);
  EXPECT_EQ(AnyMatrix::from_coo(coo, Format::kCSR).storage_bytes() / 8,
            static_cast<std::size_t>(2 * m * n + m + 1));
  EXPECT_EQ(AnyMatrix::from_coo(coo, Format::kCOO).storage_bytes() / 8,
            static_cast<std::size_t>(3 * m * n));
  EXPECT_EQ(AnyMatrix::from_coo(coo, Format::kELL).storage_bytes() / 8,
            static_cast<std::size_t>(2 * m * n));
  // Every diagonal occupied: DIA hits (min(M,N)+1)(M+N-1) within the
  // offsets-array accounting.
  const auto dia_words =
      AnyMatrix::from_coo(coo, Format::kDIA).storage_bytes() / 8;
  EXPECT_EQ(dia_words,
            static_cast<std::size_t>((std::min(m, n) + 1) * (m + n - 1)));
}

TEST(SparseVector, ScatterUnscatterLeavesWorkspaceClean) {
  SparseVector v({1, 3, 7}, {1.0, 2.0, 3.0});
  std::vector<real_t> ws(10, 0.0);
  v.scatter(ws);
  EXPECT_EQ(ws[3], 2.0);
  v.unscatter(ws);
  for (real_t x : ws) EXPECT_EQ(x, 0.0);
}

TEST(SparseVector, DotProductsAgree) {
  SparseVector a({0, 2, 5}, {1.0, 2.0, 3.0});
  SparseVector b({2, 4, 5}, {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(a.dot_sparse(b), 2.0 * 10.0 + 3.0 * 30.0);
  std::vector<real_t> dense(6, 0.0);
  b.scatter(dense);
  EXPECT_DOUBLE_EQ(a.dot_dense(dense), a.dot_sparse(b));
  EXPECT_DOUBLE_EQ(a.squared_norm(), 1.0 + 4.0 + 9.0);
}

TEST(SparseVector, RejectsUnsortedConstruction) {
  EXPECT_THROW(SparseVector({3, 1}, {1.0, 2.0}), Error);
  EXPECT_THROW(SparseVector({1, 1}, {1.0, 2.0}), Error);
  EXPECT_THROW(SparseVector({1}, {1.0, 2.0}), Error);
}

}  // namespace
}  // namespace ls
