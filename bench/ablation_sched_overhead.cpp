// Ablation: what does runtime scheduling itself cost?
//
// The paper's pitch depends on the decision being cheap relative to
// training. This bench measures, per dataset: feature-extraction time,
// decision time for each policy, materialisation time, and the SMO solve
// time they amortise against.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "data/features.hpp"
#include "data/profiles.hpp"
#include "svm/trainer.hpp"

int main() {
  using namespace ls;
  bench::banner("Ablation: scheduling overhead",
                "decision cost vs the training time it optimises");

  // Realistic training configuration (LIBSVM-default tolerance) so the
  // solve times are representative of real runs, not truncated probes.
  SvmParams params;
  params.c = 1.0;
  params.tolerance = 1e-3;
  params.max_iterations = 20000;

  // One-time costs shared by every dataset.
  Timer cal_timer;
  (void)CostCalibration::instance();
  const double calibration_s = cal_timer.seconds();
  std::printf("one-time: machine calibration %.1f ms\n\n",
              calibration_s * 1e3);

  Table table({"Dataset", "features (ms)", "heuristic (ms)",
               "empirical (ms)", "materialise (ms)", "solve (ms)",
               "empirical overhead"});
  CsvWriter csv(bench::csv_path("ablation_sched_overhead"),
                {"dataset", "features_ms", "heuristic_ms", "empirical_ms",
                 "materialize_ms", "solve_ms"});

  for (const DatasetProfile& profile : evaluated_profiles()) {
    const Dataset ds = profile.generate();

    Timer t_feat;
    const MatrixFeatures feats = extract_features(ds.X);
    const double feat_ms = t_feat.millis();

    Timer t_heur;
    (void)HeuristicSelector().choose(feats);
    const double heur_ms = t_heur.millis();

    Timer t_emp;
    const ScheduleDecision decision = EmpiricalAutotuner().choose(ds.X);
    const double emp_ms = t_emp.millis();

    Timer t_mat;
    const AnyMatrix mat = AnyMatrix::from_coo(ds.X, decision.format);
    const double mat_ms = t_mat.millis();
    (void)mat;

    const TrainResult run = train_fixed_format(ds, params, decision.format);
    const double solve_ms = run.solve_seconds * 1e3;

    table.add_row({profile.name, fmt_double(feat_ms, 2),
                   fmt_double(heur_ms, 3), fmt_double(emp_ms, 1),
                   fmt_double(mat_ms, 2), fmt_double(solve_ms, 1),
                   fmt_double((emp_ms + mat_ms) / solve_ms * 100.0, 1) +
                       "%"});
    csv.write_row({profile.name, fmt_double(feat_ms, 4),
                   fmt_double(heur_ms, 4), fmt_double(emp_ms, 4),
                   fmt_double(mat_ms, 4), fmt_double(solve_ms, 4)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Feature extraction and the heuristic decision cost microseconds —\n"
      "effectively free. The measurement-based autotuner costs tens of\n"
      "milliseconds: small next to a full training run on the larger\n"
      "datasets, but NOT free on tiny problems (breast_cancer/leukemia,\n"
      "38 samples), where it can exceed the solve itself — exactly when\n"
      "the heuristic policy should be preferred. Grid search,\n"
      "cross validation and one-vs-one reuse the decision, amortising it\n"
      "further.\n");
  bench::finish(csv, "ablation_sched_overhead");
  return 0;
}
