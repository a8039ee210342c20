// Tests for the data substrate: feature extraction (Table IV), the libsvm
// reader/writer, dataset splitting, the synthetic generators and the
// Table V profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "data/dataset.hpp"
#include "data/features.hpp"
#include "data/libsvm_io.hpp"
#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

TEST(Features, HandComputedExample) {
  // 3x4 matrix:
  //   [1 0 2 0]
  //   [0 3 0 0]
  //   [0 0 0 4]
  CooMatrix coo(3, 4,
                {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}, {2, 3, 4.0}});
  const MatrixFeatures f = extract_features(coo);
  EXPECT_EQ(f.m, 3);
  EXPECT_EQ(f.n, 4);
  EXPECT_EQ(f.nnz, 4);
  // Diagonals (col - row): 0, 2, 0, 1 -> offsets {0, 1, 2} -> ndig = 3.
  EXPECT_EQ(f.ndig, 3);
  EXPECT_NEAR(f.dnnz, 4.0 / 3.0, 1e-12);
  EXPECT_EQ(f.mdim, 2);
  EXPECT_NEAR(f.adim, 4.0 / 3.0, 1e-12);
  // dim = {2, 1, 1}; adim = 4/3; vdim = ((2/3)^2 + (1/3)^2 * 2) / 3 = 2/9.
  EXPECT_NEAR(f.vdim, 2.0 / 9.0, 1e-12);
  EXPECT_NEAR(f.density, 4.0 / 12.0, 1e-12);
}

TEST(Features, DenseMatrixHasZeroVdim) {
  Rng rng(4);
  const CooMatrix coo = make_dense_matrix(10, 6, rng);
  const MatrixFeatures f = extract_features(coo);
  EXPECT_EQ(f.mdim, 6);
  EXPECT_DOUBLE_EQ(f.adim, 6.0);
  EXPECT_DOUBLE_EQ(f.vdim, 0.0);
  EXPECT_DOUBLE_EQ(f.density, 1.0);
  EXPECT_EQ(f.ndig, 10 + 6 - 1);
}

TEST(Features, BandedMatrixCountsDiagonals) {
  Rng rng(5);
  const CooMatrix coo = make_banded(50, 50, {0, 1, -2}, 1.0, rng);
  const MatrixFeatures f = extract_features(coo);
  EXPECT_EQ(f.ndig, 3);
  EXPECT_GT(f.dnnz, 40.0);
}

TEST(Features, ToStringContainsAllNineParameters) {
  CooMatrix coo(2, 2, {{0, 0, 1.0}});
  const std::string s = extract_features(coo).to_string();
  for (const char* key :
       {"M=", "N=", "nnz=", "ndig=", "dnnz=", "mdim=", "adim=", "vdim=",
        "density="}) {
    EXPECT_NE(s.find(key), std::string::npos) << key;
  }
}

TEST(LibsvmIo, RoundTripPreservesDataset) {
  Rng rng(6);
  Dataset ds;
  ds.name = "roundtrip";
  ds.X = test::random_matrix(20, 15, 0.3, rng);
  ds.y = plant_labels(ds.X, 0.0, 1);

  std::stringstream buffer;
  write_libsvm(buffer, ds);
  const Dataset back = read_libsvm(buffer, "back", 15);

  ASSERT_EQ(back.rows(), ds.rows());
  ASSERT_EQ(back.cols(), ds.cols());
  ASSERT_EQ(back.X.nnz(), ds.X.nnz());
  for (index_t i = 0; i < ds.rows(); ++i) {
    EXPECT_EQ(back.y[static_cast<std::size_t>(i)],
              ds.y[static_cast<std::size_t>(i)]);
  }
  test::expect_near(back.X.values(), ds.X.values(), 1e-9);
}

TEST(LibsvmIo, ParsesStandardFormatDetails) {
  std::stringstream in("+1 1:0.5 3:2 # trailing comment\n"
                       "\n"
                       "-1 2:1.25\n");
  const Dataset ds = read_libsvm(in, "t");
  ASSERT_EQ(ds.rows(), 2);
  EXPECT_EQ(ds.cols(), 3);  // max index seen
  EXPECT_EQ(ds.y[0], 1.0);
  EXPECT_EQ(ds.y[1], -1.0);
  SparseVector row;
  ds.X.gather_row(0, row);
  ASSERT_EQ(row.nnz(), 2);
  EXPECT_EQ(row.indices()[0], 0);  // 1-based -> 0-based
  EXPECT_DOUBLE_EQ(row.values()[1], 2.0);
}

TEST(LibsvmIo, RejectsMalformedInput) {
  {
    std::stringstream in("+1 3:abc\n");
    EXPECT_THROW(read_libsvm(in, "bad"), Error);
  }
  {
    std::stringstream in("+1 0:1.0\n");  // index must be >= 1
    EXPECT_THROW(read_libsvm(in, "bad"), Error);
  }
  {
    std::stringstream in("+1 3:1 2:1\n");  // not increasing
    EXPECT_THROW(read_libsvm(in, "bad"), Error);
  }
  {
    std::stringstream in("notalabel 1:1\n");
    EXPECT_THROW(read_libsvm(in, "bad"), Error);
  }
}

TEST(LibsvmIo, RandomizedRoundTripSweep) {
  // Property: any dataset the generators can produce survives a write/read
  // cycle bit-for-bit (within the 17-digit text precision).
  Rng rng(0xF022);
  for (int trial = 0; trial < 8; ++trial) {
    const index_t m = rng.uniform_int(1, 40);
    const index_t n = rng.uniform_int(1, 30);
    Dataset ds;
    ds.name = "fuzz" + std::to_string(trial);
    ds.X = test::random_matrix(m, n, rng.uniform(0.05, 0.9), rng);
    ds.y = plant_labels(ds.X, 0.2, static_cast<std::uint64_t>(trial));
    std::stringstream buffer;
    write_libsvm(buffer, ds);
    const Dataset back = read_libsvm(buffer, ds.name, n);
    ASSERT_EQ(back.rows(), ds.rows()) << trial;
    ASSERT_EQ(back.X.nnz(), ds.X.nnz()) << trial;
    test::expect_near(back.X.values(), ds.X.values(), 1e-12);
  }
}

TEST(LibsvmIo, CorruptLinesAlwaysThrowNeverCrash) {
  const char* corrupt[] = {
      "+1 1:1 1:2\n",        // duplicate index (not increasing)
      "+1 -3:1\n",           // negative index
      "+1 2:\n",             // missing value
      "+1 :5\n",             // missing index
      "+1 2:1e\n",           // malformed exponent... strtod stops early
      "nan? 1:1\n",          // bad label token
      "+1 999999999999999999999:1\n",  // index overflow-ish
  };
  for (const char* text : corrupt) {
    std::stringstream in(text);
    EXPECT_THROW(read_libsvm(in, "corrupt"), Error) << text;
  }
}

TEST(Dataset, SplitPartitionsAllRows) {
  Rng rng(7);
  Dataset ds;
  ds.name = "split";
  ds.X = test::random_matrix(50, 10, 0.4, rng);
  ds.y = plant_labels(ds.X, 0.1, 2);
  const auto [train, test] = ds.split(0.8, 42);
  EXPECT_EQ(train.rows() + test.rows(), ds.rows());
  EXPECT_EQ(train.rows(), 40);
  EXPECT_EQ(train.cols(), ds.cols());
  train.validate();
  test.validate();
}

TEST(Dataset, SubsetExtractsRequestedRows) {
  CooMatrix x(3, 2, {{0, 0, 1.0}, {1, 1, 2.0}, {2, 0, 3.0}});
  Dataset ds{"s", std::move(x), {1.0, -1.0, 1.0}};
  const Dataset sub = ds.subset({2, 0}, ".sub");
  ASSERT_EQ(sub.rows(), 2);
  EXPECT_EQ(sub.y[0], 1.0);
  SparseVector row;
  sub.X.gather_row(0, row);
  EXPECT_EQ(row.values()[0], 3.0);  // original row 2 first
}

TEST(Synthetic, SampleColumnsDistinctSortedInRange) {
  Rng rng(8);
  for (index_t k : {0, 1, 5, 50, 99, 100}) {
    const auto cols = sample_columns(100, k, rng);
    ASSERT_EQ(static_cast<index_t>(cols.size()), k);
    for (std::size_t i = 1; i < cols.size(); ++i) {
      EXPECT_LT(cols[i - 1], cols[i]);
    }
    if (!cols.empty()) {
      EXPECT_GE(cols.front(), 0);
      EXPECT_LT(cols.back(), 100);
    }
  }
}

TEST(Synthetic, RowLengthsHitExactNnzAndRespectCap) {
  Rng rng(9);
  const auto lens = make_row_lengths(200, 3000, 25.0, 40, rng);
  index_t total = 0;
  for (index_t l : lens) {
    EXPECT_GE(l, 1);
    EXPECT_LE(l, 40);
    total += l;
  }
  EXPECT_EQ(total, 3000);
}

TEST(Synthetic, DiagSpreadProducesExactDiagonalCount) {
  Rng rng(10);
  for (index_t ndig : {1, 4, 16, 64}) {
    const CooMatrix coo = make_diag_spread(256, 256, 4096, ndig, rng);
    const MatrixFeatures f = extract_features(coo);
    EXPECT_EQ(f.ndig, ndig) << "ndig " << ndig;
  }
}

TEST(Synthetic, MdimSpreadHitsTargetMdim) {
  Rng rng(11);
  for (index_t mdim : {2, 8, 64, 256}) {
    const CooMatrix coo = make_mdim_spread(512, 512, 1024, mdim, rng);
    const MatrixFeatures f = extract_features(coo);
    EXPECT_EQ(f.mdim, mdim) << "mdim " << mdim;
    EXPECT_NEAR(static_cast<double>(f.nnz), 1024.0, 8.0);
  }
}

TEST(Synthetic, MdimSpreadCapsAtRowBudget) {
  // mdim = 1 can realise at most m nonzeros (one per row).
  Rng rng(11);
  const CooMatrix coo = make_mdim_spread(512, 512, 1024, 1, rng);
  const MatrixFeatures f = extract_features(coo);
  EXPECT_EQ(f.mdim, 1);
  EXPECT_EQ(f.nnz, 512);
}

TEST(Synthetic, VdimSpreadMonotoneInHeavyShare) {
  Rng rng(12);
  double prev = -1.0;
  // n chosen wide enough that the heavy rows never saturate (4 rows can
  // hold up to 16,000 nonzeros > the 0.8 * 8,000 requested).
  for (double share : {0.0, 0.2, 0.5, 0.8}) {
    const CooMatrix coo = make_vdim_spread(400, 4000, 8000, 4, share, rng);
    const MatrixFeatures f = extract_features(coo);
    EXPECT_GT(f.vdim, prev) << "share " << share;
    prev = f.vdim;
    EXPECT_EQ(f.m, 400);
    EXPECT_NEAR(static_cast<double>(f.nnz), 8000.0, 16.0);
  }
}

TEST(Synthetic, VdimSpreadSaturatesAtFullRows) {
  // When the heavy rows cannot absorb the requested share, they cap at the
  // full row width and the remainder flows to the light rows.
  Rng rng(12);
  const CooMatrix coo = make_vdim_spread(400, 400, 8000, 4, 0.9, rng);
  const MatrixFeatures f = extract_features(coo);
  EXPECT_EQ(f.mdim, 400);
  EXPECT_NEAR(static_cast<double>(f.nnz), 8000.0, 16.0);
}

TEST(Profiles, AllElevenTableVEntriesPresent) {
  const auto& profiles = all_profiles();
  ASSERT_EQ(profiles.size(), 11u);
  const char* expected[] = {"adult",   "breast_cancer", "aloi",
                            "gisette", "mnist",         "sector",
                            "epsilon", "leukemia",      "connect-4",
                            "trefethen", "dna"};
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_EQ(profiles[i].name, expected[i]);
  }
}

TEST(Profiles, EvaluatedSetMatchesTableVI) {
  const auto evaluated = evaluated_profiles();
  EXPECT_EQ(evaluated.size(), 9u);  // Table VI rows
  for (const auto& p : evaluated) {
    EXPECT_TRUE(p.reference.worst.has_value());
    EXPECT_GT(p.reference.max_speedup, 1.0);
    EXPECT_GE(p.reference.max_speedup, p.reference.avg_speedup);
  }
}

TEST(Profiles, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(profile_by_name("mnist").paper.m, 450);
  EXPECT_THROW(profile_by_name("imagenet"), Error);
}

TEST(Profiles, GenerationIsDeterministic) {
  const Dataset a = profile_by_name("adult").generate(5);
  const Dataset b = profile_by_name("adult").generate(5);
  ASSERT_EQ(a.X.nnz(), b.X.nnz());
  test::expect_near(a.X.values(), b.X.values(), 0.0);
}

// Every profile's synthetic matrix must land near the paper's published
// statistics at generation scale.
class ProfileFidelity : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileFidelity, SyntheticMatchesPaperStatistics) {
  const DatasetProfile& p = profile_by_name(GetParam());
  const Dataset ds = p.generate(3);
  ds.validate();
  const MatrixFeatures f = extract_features(ds.X);

  EXPECT_EQ(f.m, p.gen_rows);
  EXPECT_EQ(f.n, p.gen_cols);
  // Density within 15% relative (generators are stochastic).
  EXPECT_NEAR(f.density, p.paper.density,
              std::max(0.03, 0.15 * p.paper.density));
  if (!p.scaled) {
    // Unscaled profiles reproduce nnz and adim closely.
    EXPECT_NEAR(static_cast<double>(f.nnz),
                static_cast<double>(p.paper.nnz),
                0.1 * static_cast<double>(p.paper.nnz) + 8.0);
    EXPECT_NEAR(f.adim, p.paper.adim, 0.1 * p.paper.adim + 1.0);
  }
  // Row-length cap honoured.
  EXPECT_LE(f.mdim, std::min<index_t>(p.paper.mdim, p.gen_cols));
  // Both classes present.
  bool pos = false, neg = false;
  for (real_t y : ds.y) {
    pos |= y > 0;
    neg |= y < 0;
  }
  EXPECT_TRUE(pos && neg);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, ProfileFidelity,
    ::testing::Values("adult", "breast_cancer", "aloi", "mnist", "sector",
                      "leukemia", "connect-4", "trefethen"),
    [](const auto& info) {
      std::string n = info.param;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Profiles, TrefethenIsBandedWithTwelveDiagonals) {
  const Dataset ds = profile_by_name("trefethen").generate(3);
  const MatrixFeatures f = extract_features(ds.X);
  EXPECT_EQ(f.ndig, 12);
  EXPECT_GT(f.dnnz, 1000.0);
}

TEST(Profiles, Connect4HasConstantRowLength) {
  const Dataset ds = profile_by_name("connect-4").generate(3);
  const MatrixFeatures f = extract_features(ds.X);
  EXPECT_EQ(f.mdim, 42);
  EXPECT_DOUBLE_EQ(f.adim, 42.0);
  EXPECT_DOUBLE_EQ(f.vdim, 0.0);
}

TEST(PlantLabels, NoiseZeroIsLinearlySeparableish) {
  Rng rng(13);
  const CooMatrix x = test::random_matrix(100, 20, 0.5, rng);
  const auto y = plant_labels(x, 0.0, 77);
  ASSERT_EQ(y.size(), 100u);
  // Median-threshold labelling gives near-balanced classes.
  int pos = 0;
  for (real_t v : y) pos += v > 0;
  EXPECT_NEAR(pos, 50, 2);
}

// ---------------------------------------------------------------------------
// libsvm reader fuzz corpus: every malformed-line family observed in the
// wild must throw (strict) or be skipped atomically (permissive), and
// well-formed variants must parse no matter the line-ending or whitespace
// convention they were written with.

TEST(LibsvmFuzz, RejectsNonFiniteValues) {
  const char* corpus[] = {
      "+1 1:nan\n",  "+1 1:NaN\n",      "+1 1:inf\n",
      "-1 2:-inf\n", "+1 1:infinity\n", "+1 3:1e999\n",  // overflow -> inf
      "nan 1:1\n",                                       // non-finite label
      "inf 1:1\n",
  };
  for (const char* text : corpus) {
    std::stringstream in(text);
    EXPECT_THROW(read_libsvm(in, "nonfinite"), Error) << text;
  }
}

TEST(LibsvmFuzz, RejectsTruncatedTokens) {
  const char* corpus[] = {
      "+1 1:1 2:\n",    // value truncated away
      "+1 1:1 2\n",     // colon truncated away
      "+1 1:1 :\n",     // both halves missing
      "+1 1:1 :2\n",    // index missing
      "+1 1:1 2:3.5e\n",  // exponent cut mid-token
      "+1\t1:1\t2:\n",  // tab-separated truncation
  };
  for (const char* text : corpus) {
    std::stringstream in(text);
    EXPECT_THROW(read_libsvm(in, "truncated"), Error) << text;
  }
}

TEST(LibsvmFuzz, RejectsOutOfOrderIndices) {
  const char* corpus[] = {
      "+1 2:1 1:1\n",      // decreasing
      "+1 1:1 1:2\n",      // duplicate
      "+1 5:1 5:1 6:1\n",  // duplicate then increasing again
  };
  for (const char* text : corpus) {
    std::stringstream in(text);
    EXPECT_THROW(read_libsvm(in, "order"), Error) << text;
  }
}

TEST(LibsvmFuzz, CrlfLinesParseIdenticallyToLf) {
  const std::string lf = "+1 1:0.5 3:2.5\n-1 2:1.25 # comment\n";
  const std::string crlf = "+1 1:0.5 3:2.5\r\n-1 2:1.25 # comment\r\n";
  std::stringstream in_lf(lf);
  std::stringstream in_crlf(crlf);
  const Dataset a = read_libsvm(in_lf, "lf");
  const Dataset b = read_libsvm(in_crlf, "crlf");
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.X.nnz(), b.X.nnz());
  test::expect_bit_identical(a.X.values(), b.X.values());
  test::expect_bit_identical(a.y, b.y);
}

TEST(LibsvmFuzz, WhitespaceAndCommentVariantsParse) {
  std::stringstream in("+1   1:1\t2:2   \n"
                       "# a full-line comment\n"
                       "   \n"
                       "\r\n"
                       "-1 3:3\n");
  const Dataset ds = read_libsvm(in, "ws");
  ASSERT_EQ(ds.rows(), 2);
  EXPECT_EQ(ds.X.nnz(), 3);
  EXPECT_EQ(ds.y[0], 1.0);
  EXPECT_EQ(ds.y[1], -1.0);
}

TEST(LibsvmFuzz, PermissiveModeSkipsBadLinesAtomically) {
  // The third line fails AFTER two valid tokens: atomic rollback means none
  // of its entries may leak into the dataset.
  std::stringstream in("+1 1:1 2:2\n"
                       "bad_label 1:1\n"
                       "-1 1:7 2:8 3:nan\n"
                       "-1 3:3\n"
                       "+1 2:0 4:4\n");  // explicit zero is dropped, row kept
  LibsvmReadOptions opts;
  opts.permissive = true;
  LibsvmReadReport report;
  const Dataset ds = read_libsvm(in, "permissive", opts, &report);
  EXPECT_EQ(ds.rows(), 3);
  EXPECT_EQ(ds.X.nnz(), 4);  // 1:1 2:2 | 3:3 | 4:4
  EXPECT_EQ(report.lines_skipped, 2u);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_NE(report.errors[0].find("label"), std::string::npos);
  EXPECT_NE(report.errors[1].find("finite"), std::string::npos);
}

TEST(LibsvmFuzz, PermissiveErrorCapTruncatesReport) {
  std::string text;
  for (int i = 0; i < 10; ++i) text += "junk 1:1\n";
  std::stringstream in(text);
  LibsvmReadOptions opts;
  opts.permissive = true;
  opts.max_errors = 3;
  LibsvmReadReport report;
  const Dataset ds = read_libsvm(in, "cap", opts, &report);
  EXPECT_EQ(ds.rows(), 0);
  EXPECT_EQ(report.lines_skipped, 10u);
  EXPECT_EQ(report.errors.size(), 3u);
  EXPECT_TRUE(report.errors_truncated());
}

TEST(LibsvmFuzz, RoundTripIsBitExact) {
  // 17-significant-digit formatting must reproduce every double bit-for-bit,
  // including awkward ones (0.1, 1/3, huge, tiny-but-normal, negative zero
  // is unrepresentable in a sparse file so it is not in the corpus).
  Dataset ds;
  ds.name = "bitexact";
  ds.X = CooMatrix(
      3, 4,
      {{0, 0, 0.1},
       {0, 2, 1.0 / 3.0},
       {1, 1, -2.5e17},
       {1, 3, 4.9e-300},
       {2, 0, std::nextafter(1.0, 2.0)}});
  ds.y = {1.0, -1.0, 1.0};
  std::stringstream buffer;
  write_libsvm(buffer, ds);
  const Dataset back = read_libsvm(buffer, "back", 4);
  ASSERT_EQ(back.X.nnz(), ds.X.nnz());
  test::expect_bit_identical(back.X.values(), ds.X.values());
  test::expect_bit_identical(back.y, ds.y);
}

TEST(LibsvmFuzz, RandomizedCorruptionNeverCrashes) {
  // Start from a valid serialized dataset, flip random bytes, and require
  // the strict reader to either parse or throw ls::Error — never crash,
  // hang, or (under ASan) touch memory it should not.
  Rng rng(0xFADEull);
  Dataset ds;
  ds.name = "fuzzbase";
  ds.X = test::random_matrix(12, 9, 0.4, rng);
  ds.y = plant_labels(ds.X, 0.1, 5);
  std::stringstream base;
  write_libsvm(base, ds);
  const std::string clean = base.str();

  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = clean;
    const int flips = static_cast<int>(rng.uniform_int(1, 4));
    for (int k = 0; k < flips; ++k) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(1, 127));
    }
    std::stringstream in(mutated);
    try {
      const Dataset parsed = read_libsvm(in, "mutated");
      EXPECT_LE(parsed.rows(), ds.rows() + 20);  // sanity, not correctness
    } catch (const Error&) {
      // Expected for most mutations.
    }
  }
}

}  // namespace
}  // namespace ls
