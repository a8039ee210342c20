#include "svm/trainer.hpp"

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "svm/checkpoint.hpp"
#include "svm/kernel_engine.hpp"

namespace ls {

namespace {

TrainResult run_solver(const AnyMatrix& x, const Dataset& ds,
                       const SvmParams& params, RowKernelSource& engine,
                       ScheduleDecision decision, double schedule_seconds) {
  Timer solve_timer;
  KernelCache cache(engine, params.cache_bytes);

  // Fault tolerance: with a checkpoint path configured, persist a snapshot
  // every checkpoint_interval iterations and resume from an existing valid
  // one. Corrupt or mismatched snapshot files are ignored (fresh start).
  SvmParams solver_params = params;
  if (!params.checkpoint_path.empty()) {
    if (solver_params.checkpoint_interval <= 0) {
      solver_params.checkpoint_interval = 1000;
    }
    const std::string path = params.checkpoint_path;
    const auto user_hook = params.on_checkpoint;
    solver_params.on_checkpoint = [path, user_hook](const SmoCheckpoint& ck) {
      save_smo_checkpoint(path, ck);
      if (user_hook) user_hook(ck);
    };
  }

  SmoSolver solver(cache, ds.y, solver_params);
  if (!params.checkpoint_path.empty()) {
    if (const auto ck =
            try_load_smo_checkpoint(params.checkpoint_path, ds.rows())) {
      solver.restore(*ck);
    }
  }
  SolveStats stats = solver.solve();
  stats.kernel_rows_computed = engine.rows_computed();
  if (!params.checkpoint_path.empty() && stats.converged) {
    remove_checkpoint(params.checkpoint_path);
  }

  TrainResult result;
  result.model =
      build_model(x, ds.y, solver.alpha(), solver.rho(), params.kernel);
  result.stats = stats;
  result.decision = std::move(decision);
  result.schedule_seconds = schedule_seconds;
  result.solve_seconds = solve_timer.seconds();
  result.total_seconds = schedule_seconds + result.solve_seconds;

  record_decision_metrics(result.decision);
  if (metrics::enabled()) {
    metrics::timer_record("svm.train.schedule_seconds", schedule_seconds);
    metrics::timer_record("svm.train.total_seconds", result.total_seconds);
    metrics::counter_add("svm.cache.hits_total", cache.hits());
    metrics::counter_add("svm.cache.misses_total", cache.misses());
    metrics::counter_add("svm.kernel_rows_computed_total",
                         stats.kernel_rows_computed);
    metrics::gauge_set("svm.cache.hit_rate", cache.hit_rate());
  }
  return result;
}

}  // namespace

TrainResult train_adaptive(const Dataset& ds, const SvmParams& params,
                           const SchedulerOptions& sched) {
  ds.validate();
  Timer sched_timer;
  const LayoutScheduler scheduler(sched);
  ScheduleDecision decision = scheduler.decide(ds.X);
  const AnyMatrix x = scheduler.materialize_or_degrade(ds.X, decision);
  const double schedule_seconds = sched_timer.seconds();

  FormatKernelEngine engine(x, params.kernel);
  return run_solver(x, ds, params, engine, std::move(decision),
                    schedule_seconds);
}

TrainResult train_fixed_format(const Dataset& ds, const SvmParams& params,
                               Format format) {
  ds.validate();
  Timer sched_timer;
  ScheduleDecision decision;
  decision.format = format;
  decision.rationale =
      "fixed format (non-adaptive): " + std::string(format_name(format));
  const AnyMatrix x = AnyMatrix::from_coo(ds.X, format);
  const double schedule_seconds = sched_timer.seconds();

  FormatKernelEngine engine(x, params.kernel);
  return run_solver(x, ds, params, engine, std::move(decision),
                    schedule_seconds);
}

TrainResult train_libsvm_baseline(const Dataset& ds, const SvmParams& params) {
  ds.validate();
  Timer sched_timer;
  ScheduleDecision decision;
  decision.format = Format::kCSR;
  decision.rationale = "LIBSVM baseline: fixed CSR, merge-join dot kernel";
  // The baseline still needs an AnyMatrix for model extraction.
  const AnyMatrix x = AnyMatrix::from_coo(ds.X, Format::kCSR);
  const double schedule_seconds = sched_timer.seconds();

  LibsvmKernelEngine engine(ds.X, params.kernel);
  return run_solver(x, ds, params, engine, std::move(decision),
                    schedule_seconds);
}

}  // namespace ls
