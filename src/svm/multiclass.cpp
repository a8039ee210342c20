#include "svm/multiclass.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "svm/cache.hpp"
#include "svm/kernel_engine.hpp"

namespace ls {

real_t MulticlassModel::predict(const SparseVector& x) const {
  LS_CHECK(!machines.empty(), "empty multiclass model");
  std::map<real_t, int> votes;
  for (const PairwiseMachine& m : machines) {
    const real_t side = m.model.predict(x);
    ++votes[side > 0 ? m.class_a : m.class_b];
  }
  real_t best_class = classes.front();
  int best_votes = -1;
  for (real_t c : classes) {
    const auto it = votes.find(c);
    const int v = it == votes.end() ? 0 : it->second;
    if (v > best_votes) {
      best_votes = v;
      best_class = c;
    }
  }
  return best_class;
}

double MulticlassModel::accuracy(const Dataset& ds) const {
  ds.validate();
  LS_CHECK(ds.rows() > 0, "cannot score an empty dataset");
  index_t correct = 0;
  SparseVector row;
  for (index_t i = 0; i < ds.rows(); ++i) {
    ds.X.gather_row(i, row);
    if (predict(row) == ds.y[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.rows());
}

real_t OvrModel::predict(const SparseVector& x) const {
  LS_CHECK(!machines.empty(), "empty one-vs-rest model");
  real_t best_class = classes.front();
  real_t best_value = -std::numeric_limits<real_t>::infinity();
  for (std::size_t k = 0; k < machines.size(); ++k) {
    const real_t value = machines[k].decision(x);
    if (value > best_value) {
      best_value = value;
      best_class = classes[k];
    }
  }
  return best_class;
}

double OvrModel::accuracy(const Dataset& ds) const {
  ds.validate();
  LS_CHECK(ds.rows() > 0, "cannot score an empty dataset");
  index_t correct = 0;
  SparseVector row;
  for (index_t i = 0; i < ds.rows(); ++i) {
    ds.X.gather_row(i, row);
    if (predict(row) == ds.y[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.rows());
}

OvrResult train_one_vs_rest(const Dataset& ds, const SvmParams& params,
                            const SchedulerOptions& sched) {
  ds.validate();
  const std::set<real_t> class_set(ds.y.begin(), ds.y.end());
  LS_CHECK(class_set.size() >= 2, "need at least two classes");

  Timer timer;
  OvrResult result;
  result.model.classes.assign(class_set.begin(), class_set.end());

  // One layout decision (the matrix is the same for every machine) and one
  // shared kernel-row cache (the kernel matrix is label-independent).
  const LayoutScheduler scheduler(sched);
  ScheduleDecision decision;
  const AnyMatrix x = scheduler.schedule(ds.X, &decision);
  result.layout = decision.format;
  FormatKernelEngine engine(x, params.kernel);
  KernelCache cache(engine, params.cache_bytes);

  std::vector<real_t> labels(ds.y.size());
  for (real_t target : result.model.classes) {
    for (std::size_t i = 0; i < ds.y.size(); ++i) {
      labels[i] = ds.y[i] == target ? 1.0 : -1.0;
    }
    SmoSolver solver(cache, labels, params);
    const SolveStats stats = solver.solve();
    result.total_iterations += stats.iterations;
    result.model.machines.push_back(
        build_model(x, labels, solver.alpha(), solver.rho(), params.kernel));
  }
  result.cache_hit_rate = cache.hit_rate();
  result.total_seconds = timer.seconds();
  return result;
}

MulticlassResult train_one_vs_one(const Dataset& ds, const SvmParams& params,
                                  const SchedulerOptions& sched) {
  ds.validate();
  const std::set<real_t> class_set(ds.y.begin(), ds.y.end());
  LS_CHECK(class_set.size() >= 2, "need at least two classes");

  MulticlassResult result;
  result.model.classes.assign(class_set.begin(), class_set.end());
  const auto& classes = result.model.classes;

  for (std::size_t a = 0; a < classes.size(); ++a) {
    for (std::size_t b = a + 1; b < classes.size(); ++b) {
      // Collect the rows belonging to this pair and relabel to +-1.
      std::vector<index_t> ids;
      for (index_t i = 0; i < ds.rows(); ++i) {
        const real_t yi = ds.y[static_cast<std::size_t>(i)];
        if (yi == classes[a] || yi == classes[b]) ids.push_back(i);
      }
      Dataset pair = ds.subset(ids, ".pair");
      for (auto& yi : pair.y) yi = (yi == classes[a]) ? 1.0 : -1.0;

      TrainResult tr = train_adaptive(pair, params, sched);
      result.total_iterations += tr.stats.iterations;
      result.total_seconds += tr.total_seconds;
      result.chosen_formats.push_back(tr.decision.format);

      PairwiseMachine machine;
      machine.class_a = classes[a];
      machine.class_b = classes[b];
      machine.model = std::move(tr.model);
      result.model.machines.push_back(std::move(machine));
    }
  }
  return result;
}

}  // namespace ls
