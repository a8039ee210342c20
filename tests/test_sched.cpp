// Tests for the layout scheduler: the analytic cost model, the heuristic
// selector, the empirical autotuner and the simulated many-core makespan
// model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/failpoint.hpp"
#include "data/features.hpp"
#include "data/profiles.hpp"
#include "data/synthetic.hpp"
#include "formats/any_matrix.hpp"
#include "sched/cost_model.hpp"
#include "sched/parallel_model.hpp"
#include "sched/scheduler.hpp"
#include "sched/selector.hpp"
#include "test_util.hpp"

namespace ls {
namespace {

TEST(CostModel, ModeledFlopsMatchMaterializedWork) {
  Rng rng(21);
  const CooMatrix coo = test::random_matrix(60, 40, 0.2, rng);
  MatrixFeatures f = extract_features(coo);
  for (Format fmt : kAllFormats) {
    const AnyMatrix mat = AnyMatrix::from_coo(coo, fmt);
    const double modeled = modeled_flops(fmt, f);
    const double actual = static_cast<double>(mat.work_flops());
    // DIA's model uses the ndig * min(M,N) stripe bound (>= actual work).
    if (fmt == Format::kDIA) {
      EXPECT_GE(modeled, actual);
      EXPECT_LE(modeled, actual * 2.0 + 1.0);
    } else {
      EXPECT_DOUBLE_EQ(modeled, actual) << format_name(fmt);
    }
  }
}

TEST(CostModel, BytesScaleWithIndexOverhead) {
  MatrixFeatures f;
  f.m = 100;
  f.n = 100;
  f.nnz = 1000;
  f.mdim = 10;
  f.ndig = 199;
  // COO streams value + two indices per nonzero; CSR value + one index.
  EXPECT_GT(modeled_bytes(Format::kCOO, f), modeled_bytes(Format::kCSR, f));
  // DEN streams M*N values, no indices.
  EXPECT_DOUBLE_EQ(modeled_bytes(Format::kDEN, f), 100.0 * 100.0 * 8.0);
}

TEST(CostModel, UniformCalibrationRanksByPureFlops) {
  const CostCalibration cal = CostCalibration::uniform();
  MatrixFeatures f;
  f.m = 100;
  f.n = 50;
  f.nnz = 500;   // sparse: CSR/COO work = 500
  f.mdim = 40;   // ELL work = 4000
  f.ndig = 149;  // DIA work = 149 * 50 = 7450
  const CostPrediction p = predict_cost(f, cal);
  EXPECT_LT(p.seconds_of(Format::kCSR), p.seconds_of(Format::kDEN));
  EXPECT_LT(p.seconds_of(Format::kCSR), p.seconds_of(Format::kELL));
  EXPECT_LT(p.seconds_of(Format::kDEN), p.seconds_of(Format::kDIA));
  EXPECT_DOUBLE_EQ(p.seconds_of(Format::kCSR), p.seconds_of(Format::kCOO));
}

TEST(CostCalibration, MeasuredCostsArePositiveAndSane) {
  const CostCalibration& cal = CostCalibration::instance();
  for (Format f : kAllFormats) {
    EXPECT_GT(cal.seconds_per_op(f), 0.0) << format_name(f);
    EXPECT_LT(cal.seconds_per_op(f), 1e-5) << format_name(f);
  }
  const std::string s = cal.to_string();
  EXPECT_NE(s.find("CSR="), std::string::npos);
}

TEST(CostCalibration, StalledPassesDoNotSetTheRanking) {
  const CostCalibration quiet = CostCalibration::measure();
  // 20 ms on each of the first 40 timed multiplies (five formats, five
  // repetitions each per pass): all 25 of pass one and the 15 of DEN, CSR
  // and COO in pass two. That is the cold-start OpenMP stall as seen in a
  // fresh process, which ended partway through the second pass and left
  // ELL and DIA ranked first on every profile.
  failpoint::Spec spec;
  spec.action = failpoint::Action::kDelay;
  spec.delay_ms = 20;
  spec.limit = 40;
  CostCalibration stalled = CostCalibration::uniform();
  {
    failpoint::Scoped fp("sched.calibrate.multiply", spec);
    stalled = CostCalibration::measure();
    EXPECT_EQ(failpoint::trigger_count("sched.calibrate.multiply"), 40u);
  }
  // Same pick on every profile, up to a near-tie of the undisturbed model
  // (mnist's DEN and CSR sit within a few per cent of each other).
  for (const DatasetProfile& profile : evaluated_profiles()) {
    const MatrixFeatures feat = extract_features(profile.generate().X);
    const CostPrediction truth = predict_cost(feat, quiet);
    const Format want = HeuristicSelector(quiet).choose(feat).format;
    const Format got = HeuristicSelector(stalled).choose(feat).format;
    EXPECT_LE(truth.seconds_of(got), 1.5 * truth.seconds_of(want))
        << profile.name << ": stalled calibration picked " << format_name(got)
        << ", undisturbed " << format_name(want) << "; stalled "
        << stalled.to_string() << "; undisturbed " << quiet.to_string();
  }
}

TEST(HeuristicSelector, BandedMatrixExcludesExplosiveFormats) {
  // A 3-diagonal matrix: DIA, CSR and COO all do ~nnz work; DEN does
  // M * N (~170x more). With uniform per-op costs the selector must pick a
  // compact format and rank DEN last. (DIA only *wins* once the measured
  // calibration rewards its index-free unit-stride loop; the uniform
  // calibration is a pure flop counter, and DIA work >= nnz by padding.)
  Rng rng(22);
  const CooMatrix coo = make_banded(512, 512, {0, 1, -1}, 1.0, rng);
  const ScheduleDecision d =
      HeuristicSelector(CostCalibration::uniform()).choose(
          extract_features(coo));
  EXPECT_NE(d.format, Format::kDEN);
  for (Format f : {Format::kCSR, Format::kCOO, Format::kDIA, Format::kELL}) {
    EXPECT_LT(d.score_of(f), d.score_of(Format::kDEN)) << format_name(f);
  }
  // DIA's modelled cost sits within padding distance of the winner.
  EXPECT_LT(d.score_of(Format::kDIA), 1.5 * d.score_of(d.format));
}

TEST(HeuristicSelector, PrefersCompactFormatForScatteredSparse) {
  Rng rng(23);
  const CooMatrix coo = test::random_matrix(400, 400, 0.01, rng);
  const ScheduleDecision d =
      HeuristicSelector(CostCalibration::uniform()).choose(
          extract_features(coo));
  // Uniform costs: CSR and COO tie at nnz flops; either is acceptable and
  // both beat DEN / DIA by orders of magnitude.
  EXPECT_TRUE(d.format == Format::kCSR || d.format == Format::kCOO);
}

TEST(HeuristicSelector, StorageGuardDisqualifiesExplosiveFormats) {
  // sector-like: very wide, scattered; DEN/DIA storage would be enormous
  // (~1,800x and ~90x CSR's), beyond the shared 64x storage guard.
  Rng rng(24);
  std::vector<index_t> lens(200, 5);
  const CooMatrix coo = make_random_sparse(200, 20000, lens, rng);
  const ScheduleDecision d =
      HeuristicSelector(CostCalibration::uniform()).choose(
          extract_features(coo));
  EXPECT_TRUE(d.format == Format::kCSR || d.format == Format::kCOO ||
              d.format == Format::kELL);
}

TEST(EmpiricalAutotuner, PicksMeasurablyFastestFormat) {
  // Banded matrix: DIA or CSR should win; DEN must lose badly at 1%
  // density and the tuner must agree with its own measurements.
  Rng rng(25);
  const CooMatrix coo = make_banded(1024, 1024, {0, 2, -2, 5}, 0.9, rng);
  AutotuneOptions opts;
  opts.sample_rows = 0;  // full matrix
  const ScheduleDecision d = EmpiricalAutotuner(opts).choose(coo);
  // The decision must be the argmin of its own recorded scores.
  double best = 1e300;
  Format best_fmt = Format::kCSR;
  for (Format f : kAllFormats) {
    const double s = d.score_of(f);
    if (s < best) {
      best = s;
      best_fmt = f;
    }
  }
  EXPECT_EQ(d.format, best_fmt);
  EXPECT_LT(d.score_of(d.format), std::numeric_limits<double>::infinity());
}

// The model's ranking of `coo` over the paper's five formats, cheapest
// first, under the calibration the autotuner itself ranks with.
std::vector<Format> model_ranking(const CooMatrix& coo) {
  const CostPrediction pred =
      predict_cost(extract_features(coo), CostCalibration::instance());
  std::vector<Format> ranked(kAllFormats.begin(), kAllFormats.end());
  std::stable_sort(ranked.begin(), ranked.end(), [&](Format a, Format b) {
    return pred.seconds_of(a) < pred.seconds_of(b);
  });
  return ranked;
}

std::size_t finite_scores(const ScheduleDecision& d) {
  std::size_t n = 0;
  for (Format f : kAllFormats) n += std::isfinite(d.score_of(f)) ? 1 : 0;
  return n;
}

TEST(EmpiricalAutotuner, RacesOnlyTheModelsTopTwo) {
  // 64 x 64 at 20 % density keeps every format within the storage guard,
  // so the ranking below is the autotuner's candidate list.
  Rng rng(29);
  const CooMatrix coo = test::random_matrix(64, 64, 0.2, rng);
  AutotuneOptions opts;
  opts.sample_rows = 0;
  const ScheduleDecision d = EmpiricalAutotuner(opts).choose(coo);
  const std::vector<Format> ranked = model_ranking(coo);
  EXPECT_EQ(finite_scores(d), 2u) << d.rationale;
  EXPECT_TRUE(std::isfinite(d.score_of(ranked[0]))) << d.rationale;
  EXPECT_TRUE(std::isfinite(d.score_of(ranked[1]))) << d.rationale;
  EXPECT_TRUE(d.format == ranked[0] || d.format == ranked[1]);
  EXPECT_NE(d.rationale.find("model top-2"), std::string::npos)
      << d.rationale;
  EXPECT_TRUE(d.dropped.empty());
}

TEST(EmpiricalAutotuner, FailedProbeFallsThroughToNextRanked) {
  Rng rng(30);
  const CooMatrix coo = test::random_matrix(64, 64, 0.2, rng);
  AutotuneOptions opts;
  opts.sample_rows = 0;
  failpoint::Spec spec;
  spec.limit = 1;  // only the first-ranked candidate's build fails
  ScheduleDecision d;
  {
    failpoint::Scoped fp("sched.candidate.materialize", spec);
    d = EmpiricalAutotuner(opts).choose(coo);
  }
  const std::vector<Format> ranked = model_ranking(coo);
  EXPECT_EQ(finite_scores(d), 2u) << d.rationale;
  EXPECT_FALSE(std::isfinite(d.score_of(ranked[0]))) << d.rationale;
  EXPECT_TRUE(std::isfinite(d.score_of(ranked[1]))) << d.rationale;
  EXPECT_TRUE(std::isfinite(d.score_of(ranked[2]))) << d.rationale;
  ASSERT_EQ(d.dropped.size(), 1u);
  EXPECT_EQ(d.dropped[0].rfind(std::string(format_name(ranked[0])) + ":", 0),
            0u)
      << d.dropped[0];
  EXPECT_FALSE(d.degraded);
}

TEST(EmpiricalAutotuner, WindowSamplingExtrapolatesToFullMatrix) {
  Rng rng(26);
  std::vector<index_t> lens(4000, 8);
  const CooMatrix coo = make_random_sparse(4000, 300, lens, rng);
  AutotuneOptions opts;
  opts.sample_rows = 500;
  const ScheduleDecision d = EmpiricalAutotuner(opts).choose(coo);
  // Extrapolated full-matrix seconds must be ~8x the window seconds, i.e.
  // positive and finite for the chosen format.
  EXPECT_GT(d.score_of(d.format), 0.0);
  EXPECT_TRUE(std::isfinite(d.score_of(d.format)));
}

TEST(Scheduler, PolicyDispatchWorks) {
  Rng rng(27);
  const CooMatrix coo = test::random_matrix(50, 50, 0.2, rng);

  SchedulerOptions fixed;
  fixed.policy = SchedulePolicy::kFixed;
  fixed.fixed_format = Format::kELL;
  EXPECT_EQ(LayoutScheduler(fixed).decide(coo).format, Format::kELL);

  SchedulerOptions heur;
  heur.policy = SchedulePolicy::kHeuristic;
  const ScheduleDecision hd = LayoutScheduler(heur).decide(coo);
  EXPECT_NE(hd.rationale.find("heuristic"), std::string::npos);

  SchedulerOptions emp;
  emp.policy = SchedulePolicy::kEmpirical;
  emp.autotune.sample_rows = 0;
  const ScheduleDecision ed = LayoutScheduler(emp).decide(coo);
  EXPECT_NE(ed.rationale.find("empirical"), std::string::npos);
}

TEST(Scheduler, ScheduleMaterializesDecidedFormat) {
  Rng rng(28);
  const CooMatrix coo = test::random_matrix(30, 30, 0.3, rng);
  SchedulerOptions opts;
  opts.policy = SchedulePolicy::kFixed;
  opts.fixed_format = Format::kDIA;
  const AnyMatrix m = LayoutScheduler(opts).schedule(coo);
  EXPECT_EQ(m.format(), Format::kDIA);
  EXPECT_EQ(m.nnz(), coo.nnz());
}

TEST(Scheduler, ParsePolicyNames) {
  EXPECT_EQ(parse_policy("empirical"), SchedulePolicy::kEmpirical);
  EXPECT_EQ(parse_policy("heuristic"), SchedulePolicy::kHeuristic);
  EXPECT_EQ(parse_policy("fixed"), SchedulePolicy::kFixed);
  EXPECT_THROW(parse_policy("oracle"), Error);
}

TEST(Scheduler, RemovedPolicyAndFormatNamesAreRejected) {
  // The messages must list exactly the names that are still accepted.
  try {
    (void)parse_policy("learned");
    FAIL() << "parse_policy accepted 'learned'";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "unknown schedule policy 'learned' (expected "
                           "empirical, heuristic or fixed)");
  }
  // Removed formats are rejected like any other unknown name.
  for (const char* name : {"BCSR", "CSC", "HYB"}) {
    try {
      (void)parse_format(name);
      FAIL() << "parse_format accepted '" << name << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                "unknown format name: '" + std::string(name) +
                    "' (expected DEN, CSR, COO, ELL or DIA)");
    }
  }
}

// ---------------------------------------------------------- makespan model

TEST(ParallelModel, BalancedRowsHaveNoImbalance) {
  const std::vector<index_t> rows(64, 10);
  const CostCalibration cal = CostCalibration::uniform();
  for (Format f : {Format::kCSR, Format::kDEN, Format::kELL, Format::kCOO}) {
    const MakespanResult r = simulate_makespan(f, rows, 128, 0, 8, cal);
    EXPECT_NEAR(r.imbalance, 1.0, 0.05) << format_name(f);
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST(ParallelModel, SkewHurtsCsrButNotCoo) {
  // One huge row among tiny ones: the paper's high-vdim regime.
  std::vector<index_t> rows(64, 1);
  rows[0] = 1000;
  const CostCalibration cal = CostCalibration::uniform();
  const MakespanResult csr =
      simulate_makespan(Format::kCSR, rows, 2000, 0, 16, cal);
  const MakespanResult coo =
      simulate_makespan(Format::kCOO, rows, 2000, 0, 16, cal);
  EXPECT_GT(csr.imbalance, 8.0);
  EXPECT_LT(coo.imbalance, 2.0);
  // Same total work, so COO's makespan is far smaller.
  EXPECT_DOUBLE_EQ(csr.total_ops, coo.total_ops);
  EXPECT_GT(csr.critical_ops, 2.0 * coo.critical_ops);
}

TEST(ParallelModel, CooSplitsEvenASingleGiantRow) {
  // COO's nonzero-level decomposition (segmented reduction) splits work
  // evenly even when one row holds everything — the property the paper's
  // Section III-B argument for high-vdim matrices rests on.
  std::vector<index_t> rows(16, 0);
  rows[7] = 640;
  const CostCalibration cal = CostCalibration::uniform();
  const MakespanResult coo =
      simulate_makespan(Format::kCOO, rows, 1000, 0, 8, cal);
  EXPECT_DOUBLE_EQ(coo.critical_ops, 80.0);
  const MakespanResult csr =
      simulate_makespan(Format::kCSR, rows, 1000, 0, 8, cal);
  EXPECT_DOUBLE_EQ(csr.critical_ops, 640.0);  // rows are atomic under CSR
}

TEST(ParallelModel, EllPaysMdimOnEveryRow) {
  std::vector<index_t> rows(32, 2);
  rows[5] = 100;
  const CostCalibration cal = CostCalibration::uniform();
  const MakespanResult ell =
      simulate_makespan(Format::kELL, rows, 200, 0, 1, cal);
  EXPECT_DOUBLE_EQ(ell.total_ops, 32.0 * 100.0);
}

TEST(ParallelModel, DiaStripeDecomposition) {
  const std::vector<index_t> rows(100, 3);
  const CostCalibration cal = CostCalibration::uniform();
  const MakespanResult r =
      simulate_makespan(Format::kDIA, rows, 100, /*ndig=*/10, /*threads=*/4,
                        cal);
  // 10 stripes of 100 slots over 4 threads -> critical path 3 stripes.
  EXPECT_DOUBLE_EQ(r.total_ops, 1000.0);
  EXPECT_DOUBLE_EQ(r.critical_ops, 300.0);
}

TEST(ParallelModel, MoreThreadsNeverIncreaseMakespan) {
  Rng rng(29);
  std::vector<index_t> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(rng.uniform_int(1, 50));
  }
  const CostCalibration cal = CostCalibration::uniform();
  for (Format f : {Format::kCSR, Format::kCOO, Format::kELL}) {
    double prev = 1e300;
    for (int threads : {1, 2, 4, 8, 16}) {
      const MakespanResult r = simulate_makespan(f, rows, 64, 0, threads, cal);
      EXPECT_LE(r.critical_ops, prev + 1e-9)
          << format_name(f) << " threads " << threads;
      prev = r.critical_ops;
    }
  }
}

}  // namespace
}  // namespace ls
