#include "svm/batch_predict.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace ls {

BatchPredictor::BatchPredictor(const SvmModel& model,
                               const SchedulerOptions& sched,
                               index_t batch_rows)
    : model_(&model),
      batch_rows_(std::clamp<index_t>(batch_rows, 1, kMaxSmsvBatch)) {
  LS_CHECK(!model.support_vectors.empty(),
           "batch predictor needs at least one support vector");
  // Assemble the SV matrix in canonical COO, then schedule its layout like
  // any other data matrix.
  sv_norms_.reserve(model.support_vectors.size());
  for (const SparseVector& sv : model.support_vectors) {
    sv_norms_.push_back(sv.squared_norm());
  }
  const CooMatrix coo = support_vector_matrix(model);
  const LayoutScheduler scheduler(sched);
  decision_ = scheduler.decide(coo);
  sv_matrix_ = scheduler.materialize(coo, decision_);
}

std::vector<real_t> BatchPredictor::decision_values(const Dataset& ds) const {
  ds.validate();
  LS_CHECK(ds.cols() <= model_->num_features,
           "dataset has more features than the model");
  std::vector<real_t> out(static_cast<std::size_t>(ds.rows()));

  // Block-wise evaluation: gather `batch_rows_` test rows and hand each
  // block to the re-entrant span scorer, so the gather buffers stay
  // O(block) for arbitrarily large datasets.
  const index_t bmax = batch_rows_;
  std::vector<SparseVector> rows(static_cast<std::size_t>(bmax));
  std::vector<index_t> row_ids(static_cast<std::size_t>(bmax));
  for (index_t base = 0; base < ds.rows(); base += bmax) {
    const index_t b = std::min<index_t>(bmax, ds.rows() - base);
    for (index_t k = 0; k < b; ++k) {
      row_ids[static_cast<std::size_t>(k)] = base + k;
    }
    ds.X.gather_rows_batch(
        std::span<const index_t>(row_ids.data(), static_cast<std::size_t>(b)),
        std::span<SparseVector>(rows.data(), static_cast<std::size_t>(b)));
    decision_values(
        std::span<const SparseVector>(rows.data(), static_cast<std::size_t>(b)),
        std::span<real_t>(out.data() + base, static_cast<std::size_t>(b)));
  }
  return out;
}

void BatchPredictor::decision_values(std::span<const SparseVector> rows,
                                     std::span<real_t> out) const {
  LS_CHECK(rows.size() == out.size(),
           "decision_values: " << rows.size() << " rows but " << out.size()
                               << " output slots");
  const index_t d = model_->num_features;
  const index_t n_sv = sv_matrix_.rows();
  const auto n = static_cast<index_t>(rows.size());
  const index_t bmax = std::min<index_t>(batch_rows_, n);

  // All scratch lives on this call's stack frame so concurrent callers
  // never share buffers (the serving engine relies on this re-entrancy).
  // It is sized to the call's rows, not the block limit: a served batch
  // mostly holds one row.
  std::vector<real_t> workspace(
      static_cast<std::size_t>(d) * static_cast<std::size_t>(bmax), 0.0);
  std::vector<real_t> dots(static_cast<std::size_t>(n_sv) *
                           static_cast<std::size_t>(bmax));

  for (index_t base = 0; base < n; base += bmax) {
    const index_t b = std::min<index_t>(bmax, n - base);

    // Scatter the block interleaved (W[idx * b + k]); the dimension gate
    // runs first because an out-of-range index would land outside the
    // workspace.
    for (index_t k = 0; k < b; ++k) {
      const SparseVector& row = rows[static_cast<std::size_t>(base + k)];
      LS_CHECK(model_->accepts(row),
               "request row " << base + k << " has feature indices outside "
                              << "the model's width " << d);
      const auto idx = row.indices();
      const auto val = row.values();
      for (std::size_t e = 0; e < idx.size(); ++e) {
        workspace[static_cast<std::size_t>(idx[e] * b + k)] = val[e];
      }
    }

    const auto need_w =
        static_cast<std::size_t>(d) * static_cast<std::size_t>(b);
    const auto need_y =
        static_cast<std::size_t>(n_sv) * static_cast<std::size_t>(b);
    sv_matrix_.multiply_dense_batch(
        std::span<const real_t>(workspace.data(), need_w), b,
        std::span<real_t>(dots.data(), need_y));
    metrics::counter_add("svm.predict.batch_rows_total", b);

    for (index_t k = 0; k < b; ++k) {
      const SparseVector& row = rows[static_cast<std::size_t>(base + k)];
      const real_t norm_x = row.squared_norm();
      real_t sum = 0.0;
      for (index_t sv = 0; sv < n_sv; ++sv) {
        const auto ku = static_cast<std::size_t>(sv);
        sum += model_->coef[ku] *
               kernel_from_dot(model_->kernel,
                               dots[static_cast<std::size_t>(sv * b + k)],
                               sv_norms_[ku], norm_x);
      }
      out[static_cast<std::size_t>(base + k)] = sum - model_->rho;
      for (index_t c : row.indices()) {
        workspace[static_cast<std::size_t>(c * b + k)] = 0.0;
      }
    }
  }
}

std::vector<real_t> BatchPredictor::predict(const Dataset& ds) const {
  std::vector<real_t> values = decision_values(ds);
  for (real_t& v : values) v = v >= 0 ? 1.0 : -1.0;
  return values;
}

double BatchPredictor::accuracy(const Dataset& ds) const {
  const std::vector<real_t> pred = predict(ds);
  index_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    correct += pred[i] == ds.y[i];
  }
  return static_cast<double>(correct) / static_cast<double>(pred.size());
}

}  // namespace ls
