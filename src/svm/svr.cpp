#include "svm/svr.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "svm/cache.hpp"
#include "svm/kernel_engine.hpp"

namespace ls {

DuplicatedKernelSource::DuplicatedKernelSource(RowKernelSource& base)
    : base_(&base) {
  scratch_.resize(static_cast<std::size_t>(base.num_rows()));
}

void DuplicatedKernelSource::compute_row(index_t i, std::span<real_t> out) {
  const index_t n = base_->num_rows();
  LS_CHECK(out.size() == static_cast<std::size_t>(2 * n),
           "duplicated kernel row buffer size mismatch");
  ++rows_computed_;
  base_->compute_row(i % n, scratch_);
  std::copy(scratch_.begin(), scratch_.end(), out.begin());
  std::copy(scratch_.begin(), scratch_.end(),
            out.begin() + static_cast<std::ptrdiff_t>(n));
}

real_t SvrModel::predict(const SparseVector& x) const {
  const real_t norm_x = x.squared_norm();
  real_t sum = 0.0;
  for (std::size_t k = 0; k < support_vectors.size(); ++k) {
    const SparseVector& sv = support_vectors[k];
    sum += coef[k] * kernel_from_dot(kernel, sv.dot_sparse(x),
                                     sv.squared_norm(), norm_x);
  }
  return sum - rho;
}

double SvrModel::mse(const Dataset& ds) const {
  ds.validate();
  LS_CHECK(ds.rows() > 0, "cannot score an empty dataset");
  double err = 0.0;
  SparseVector row;
  for (index_t i = 0; i < ds.rows(); ++i) {
    ds.X.gather_row(i, row);
    const double d = predict(row) - ds.y[static_cast<std::size_t>(i)];
    err += d * d;
  }
  return err / static_cast<double>(ds.rows());
}

double SvrModel::mae(const Dataset& ds) const {
  ds.validate();
  LS_CHECK(ds.rows() > 0, "cannot score an empty dataset");
  double err = 0.0;
  SparseVector row;
  for (index_t i = 0; i < ds.rows(); ++i) {
    ds.X.gather_row(i, row);
    err += std::abs(predict(row) - ds.y[static_cast<std::size_t>(i)]);
  }
  return err / static_cast<double>(ds.rows());
}

SvrResult train_svr(const Dataset& ds, const SvrParams& params,
                    const SchedulerOptions& sched) {
  ds.validate();
  LS_CHECK(params.epsilon >= 0, "epsilon must be non-negative");
  Timer timer;

  // Layout scheduling on the data matrix, exactly as in classification.
  const LayoutScheduler scheduler(sched);
  ScheduleDecision decision;
  const AnyMatrix x = scheduler.schedule(ds.X, &decision);

  // LIBSVM's 2n-variable reduction.
  const index_t n = ds.rows();
  std::vector<real_t> big_y(static_cast<std::size_t>(2 * n));
  std::vector<real_t> big_p(static_cast<std::size_t>(2 * n));
  for (index_t i = 0; i < n; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    big_y[iu] = 1.0;
    big_y[iu + static_cast<std::size_t>(n)] = -1.0;
    big_p[iu] = params.epsilon - ds.y[iu];
    big_p[iu + static_cast<std::size_t>(n)] = params.epsilon + ds.y[iu];
  }

  FormatKernelEngine base(x, params.svm.kernel);
  DuplicatedKernelSource engine(base);
  KernelCache cache(engine, params.svm.cache_bytes);
  SmoSolver solver(cache, big_y, big_p, params.svm);
  SolveStats stats = solver.solve();
  stats.kernel_rows_computed = engine.rows_computed();

  // beta_i = a_i - a*_i; rho transfers directly (decision uses sum beta K
  // - rho, and the solver's rho is the midpoint of the optimality
  // interval in the same convention as classification).
  SvrResult result;
  result.model.kernel = params.svm.kernel;
  result.model.rho = solver.rho();
  result.model.num_features = ds.cols();
  SparseVector row;
  for (index_t i = 0; i < n; ++i) {
    const real_t beta =
        solver.alpha()[static_cast<std::size_t>(i)] -
        solver.alpha()[static_cast<std::size_t>(i + n)];
    if (beta == 0.0) continue;
    ds.X.gather_row(i, row);
    result.model.support_vectors.push_back(row);
    result.model.coef.push_back(beta);
  }
  result.stats = stats;
  result.decision = std::move(decision);
  result.total_seconds = timer.seconds();
  return result;
}

}  // namespace ls
