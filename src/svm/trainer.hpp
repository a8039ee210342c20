// High-level training entry points: the adaptive trainer (layout scheduling
// + SMSV kernel engine) and the fixed-format and LIBSVM-style baselines.
// This is the facade the examples and benches call.
#pragma once

#include <string>

#include "data/dataset.hpp"
#include "sched/scheduler.hpp"
#include "svm/model.hpp"
#include "svm/smo.hpp"

namespace ls {

/// Everything a training run reports.
struct TrainResult {
  SvmModel model;
  SolveStats stats;
  ScheduleDecision decision;   ///< which layout was chosen and why
  double schedule_seconds = 0.0;  ///< time spent deciding + materialising
  double solve_seconds = 0.0;     ///< SMO wall time
  double total_seconds = 0.0;
};

/// Trains a binary SVM with runtime data-layout scheduling (the paper's
/// adaptive system). Labels must be +-1.
TrainResult train_adaptive(const Dataset& ds, const SvmParams& params,
                           const SchedulerOptions& sched = {});

/// Trains with a fixed storage format and our SMSV engine (the
/// "non-adaptive case" the paper compares against, e.g. worst format).
TrainResult train_fixed_format(const Dataset& ds, const SvmParams& params,
                               Format format);

/// Trains with the LIBSVM-equivalent engine: fixed CSR, per-pair merge-join
/// dot products, second-order WSS (the Fig. 7 baseline).
TrainResult train_libsvm_baseline(const Dataset& ds, const SvmParams& params);

}  // namespace ls
