// Quickstart: train a binary SVM with runtime data-layout scheduling.
//
//   ./quickstart --dataset adult --kernel linear --c 1.0
//
// Shows the whole public-API flow: load (here: synthesise) a dataset,
// extract its influencing parameters, let the scheduler pick a storage
// format, train with SMO, and evaluate on a held-out split.
#include <cstdio>

#include "common/cli.hpp"
#include "common/observability.hpp"
#include "data/features.hpp"
#include "data/profiles.hpp"
#include "svm/trainer.hpp"

int main(int argc, char** argv) {
  using namespace ls;
  CliParser cli("quickstart",
                "train a binary SVM with runtime layout scheduling");
  cli.add_flag("dataset", "adult", "Table V profile name (e.g. adult, aloi)");
  cli.add_flag("kernel", "linear", "linear | polynomial | gaussian | sigmoid");
  cli.add_flag("c", "1.0", "SVM regularisation constant C");
  cli.add_flag("gamma", "0.5", "kernel gamma / a parameter");
  cli.add_flag("policy", "empirical", "empirical | heuristic | fixed");
  cli.add_flag("tolerance", "1e-3", "SMO convergence tolerance");
  add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const ObservabilityScope observability(cli);

  // 1. Obtain a dataset (synthetic stand-in matching the paper's stats).
  const Dataset full = profile_by_name(cli.get("dataset")).generate();
  const auto [train, test] = full.split(0.8);
  std::printf("dataset %s: %lld samples x %lld features, %lld nonzeros\n",
              full.name.c_str(), static_cast<long long>(full.rows()),
              static_cast<long long>(full.cols()),
              static_cast<long long>(full.X.nnz()));

  // 2. Inspect the nine influencing parameters (Table IV).
  const MatrixFeatures feats = extract_features(train.X);
  std::printf("features: %s\n", feats.to_string().c_str());

  // 3. Configure and train. The scheduler decides the layout at runtime.
  SvmParams params;
  params.kernel.type = parse_kernel(cli.get("kernel"));
  params.kernel.gamma = cli.get_double("gamma");
  params.c = cli.get_double("c");
  params.tolerance = cli.get_double("tolerance");

  SchedulerOptions sched;
  sched.policy = parse_policy(cli.get("policy"));

  const TrainResult result = train_adaptive(train, params, sched);

  // 4. Report.
  std::printf("\nlayout decision: %s\n", result.decision.rationale.c_str());
  std::printf("schedule time:   %.3f ms\n", result.schedule_seconds * 1e3);
  std::printf("solve time:      %.3f s (%lld iterations, %lld kernel rows, "
              "%.1f%% cache hits)\n",
              result.solve_seconds,
              static_cast<long long>(result.stats.iterations),
              static_cast<long long>(result.stats.kernel_rows_computed),
              result.stats.cache_hit_rate * 100.0);
  std::printf("support vectors: %lld / %lld\n",
              static_cast<long long>(result.stats.support_vectors),
              static_cast<long long>(train.rows()));
  std::printf("dual objective:  %.6f (converged: %s)\n",
              result.stats.objective,
              result.stats.converged ? "yes" : "no");
  std::printf("train accuracy:  %.3f\n", result.model.accuracy(train));
  std::printf("test accuracy:   %.3f\n", result.model.accuracy(test));
  return 0;
}
