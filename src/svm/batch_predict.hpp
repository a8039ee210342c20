// Batch prediction with layout scheduling.
//
// SvmModel::predict evaluates one sample at a time with merge-join dots
// against every support vector — fine interactively, wasteful for bulk
// scoring. BatchPredictor materialises the support vectors as a matrix in
// a scheduled layout and evaluates a whole dataset with one SMSV per test
// row (scatter the row, multiply the SV matrix, map through the kernel,
// dot with the coefficients) — the training-time trick applied to
// inference.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "sched/scheduler.hpp"
#include "svm/model.hpp"

namespace ls {

/// Bulk scorer over a trained binary model.
class BatchPredictor {
 public:
  /// Materialises the model's support vectors under `sched`'s policy.
  /// The model must outlive the predictor. `batch_rows` test rows are
  /// evaluated per SMSV against the SV matrix (clamped to
  /// [1, kMaxSmsvBatch]); larger blocks amortise the SV-matrix streaming.
  explicit BatchPredictor(const SvmModel& model,
                          const SchedulerOptions& sched = {},
                          index_t batch_rows = 16);

  /// Decision values for every row of `ds` (same sign convention as
  /// SvmModel::decision).
  std::vector<real_t> decision_values(const Dataset& ds) const;

  /// Re-entrant bulk scorer over already-gathered sparse rows:
  /// out[k] = decision(rows[k]), with `out.size() == rows.size()`. Rows are
  /// evaluated in blocks of `batch_rows` via multiply_dense_batch, and each
  /// lane is bit-identical to the single-rhs path (PR 3 invariant), so the
  /// scores do not depend on how requests were batched. All scratch is
  /// local to the call — concurrent calls on one predictor are safe, which
  /// is how the serving engine's worker pool shares a predictor. Throws
  /// ls::Error when a row's indices exceed the model's feature width (the
  /// dense scatter would write out of bounds otherwise).
  void decision_values(std::span<const SparseVector> rows,
                       std::span<real_t> out) const;

  /// Predicted labels (+1 / -1) for every row of `ds`.
  std::vector<real_t> predict(const Dataset& ds) const;

  /// Accuracy against ds.y.
  double accuracy(const Dataset& ds) const;

  /// The layout chosen for the support-vector matrix.
  Format layout() const { return decision_.format; }

  /// The scheduler decision behind layout(), with its per-format scores.
  const ScheduleDecision& decision() const { return decision_; }

 private:
  const SvmModel* model_;
  ScheduleDecision decision_;
  AnyMatrix sv_matrix_;             // #SV x num_features
  std::vector<real_t> sv_norms_;    // ||sv_i||^2 for the Gaussian kernel
  index_t batch_rows_ = 16;         // test rows per batched SMSV
};

}  // namespace ls
