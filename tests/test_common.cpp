// Tests for the common runtime layer: buffers, RNG, statistics, table
// formatting, CSV escaping and CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace ls {
namespace {

TEST(AlignedBuffer, AlignmentIs64Bytes) {
  AlignedBuffer<double> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  AlignedBuffer<std::int64_t> ibuf(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ibuf.data()) % 64, 0u);
}

TEST(AlignedBuffer, ValueInitialisedToZero) {
  AlignedBuffer<double> buf(257);
  for (double v : buf) EXPECT_EQ(v, 0.0);
}

TEST(AlignedBuffer, CopyPreservesContents) {
  AlignedBuffer<int> a(10);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int>(i * i);
  AlignedBuffer<int> b = a;
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(b[i], a[i]);
  // Deep copy: mutating the copy leaves the original alone.
  b[3] = -1;
  EXPECT_EQ(a[3], 9);
  // An empty source copies to an empty buffer, by construction and by
  // assignment over a non-empty one.
  const AlignedBuffer<int> empty;
  const AlignedBuffer<int> c = empty;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.data(), nullptr);
  b = empty;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<double> a(5, 2.5);
  const double* ptr = a.data();
  AlignedBuffer<double> b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b[4], 2.5);
}

TEST(AlignedBuffer, FillConstructor) {
  AlignedBuffer<double> buf(64, 3.14);
  for (double v : buf) EXPECT_EQ(v, 3.14);
}

TEST(AlignedBuffer, SizeBytes) {
  AlignedBuffer<double> buf(10);
  EXPECT_EQ(buf.size_bytes(), 80u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 6.0, 5 * std::sqrt(n / 6.0));
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Stats, MeanVarianceKnownValues) {
  const std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(1.25));
}

TEST(Stats, VarianceOfConstantIsZero) {
  const std::vector<double> xs = {7, 7, 7, 7, 7};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> xs = {1, 4, 16};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
}

TEST(Stats, GeometricMeanRejectsNonPositive) {
  const std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(geometric_mean(xs), Error);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd = {5, 1, 3};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::vector<double> even = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, PearsonPerfectCorrelations) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> up = {2, 4, 6, 8};
  const std::vector<double> down = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Stats, PearsonUncorrelated) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(xs, flat), 0.0);
}

TEST(Table, RendersAlignedColumnsAndAllRows) {
  Table t({"Dataset", "Speedup"});
  t.add_row({"adult", "14.3x"});
  t.add_separator();
  t.add_row({"gisette", "3.7x"});
  const std::string s = t.str();
  EXPECT_NE(s.find("adult"), std::string::npos);
  EXPECT_NE(s.find("gisette"), std::string::npos);
  EXPECT_NE(s.find("Dataset"), std::string::npos);
  EXPECT_EQ(t.rows(), 3u);  // 2 data rows + separator
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_speedup(14.29), "14.3x");
  EXPECT_EQ(fmt_speedup(355.0), "355x");
  EXPECT_EQ(fmt_double(1.5000, 3), "1.5");
  EXPECT_EQ(fmt_double(2.0, 2), "2.0");
  EXPECT_EQ(fmt_bytes(2048.0), "2.0 KiB");
  EXPECT_NE(fmt_seconds(0.002).find("ms"), std::string::npos);
  EXPECT_NE(fmt_seconds(7200).find("h"), std::string::npos);
}

TEST(Csv, WritesEscapedFields) {
  const std::string path = ::testing::TempDir() + "/ls_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.write_row({"plain", "has,comma"});
    csv.write_row({"has\"quote", "x"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\",x");
  std::remove(path.c_str());
}

TEST(Cli, ParsesBothFlagForms) {
  CliParser cli("prog", "test");
  cli.add_flag("alpha", "1", "first");
  cli.add_flag("beta", "x", "second");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("beta"), "hello");
}

TEST(Cli, DefaultsSurviveWhenNotPassed) {
  CliParser cli("prog", "test");
  cli.add_flag("gamma", "0.5", "g");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 0.5);
}

TEST(Cli, RejectsUnknownFlagAndBadNumbers) {
  CliParser cli("prog", "test");
  cli.add_flag("x", "1", "x");
  const char* bad[] = {"prog", "--nope", "3"};
  EXPECT_THROW(cli.parse(3, bad), Error);

  CliParser cli2("prog", "test");
  cli2.add_flag("x", "abc", "x");
  const char* ok[] = {"prog"};
  ASSERT_TRUE(cli2.parse(1, ok));
  EXPECT_THROW(cli2.get_double("x"), Error);
}

TEST(Cli, BoolParsing) {
  CliParser cli("prog", "test");
  cli.add_flag("flag", "true", "f");
  const char* argv[] = {"prog", "--flag", "no"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_FALSE(cli.get_bool("flag"));
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds() * 1e3 * 0.5);
}

TEST(Timer, TimeBestReturnsPositiveMinimum) {
  const double best = time_best([] {
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x += i;
  });
  EXPECT_GT(best, 0.0);
  EXPECT_LT(best, 1.0);
}

TEST(ErrorMacros, ChecksThrowWithContext) {
  try {
    LS_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "LS_CHECK did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace ls
