// Ablation: working-set selection policy. First-order selection is the
// paper's Algorithm 1 (maximal violating pair); second-order is Fan et
// al.'s WSS2 (LIBSVM's default). Second-order usually needs fewer
// iterations at a similar per-iteration cost: the K_high row it needs is
// already being computed, and its gain pass (one division per element) is
// the only extra O(n) work. The us/iter columns are solve time over
// iterations, so they include the convergence trace's O(n) objective
// every 25 iterations.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "data/profiles.hpp"
#include "svm/trainer.hpp"

int main() {
  using namespace ls;
  bench::banner("Ablation: WSS", "first-order (Alg. 1) vs second-order "
                                 "(WSS2) working-set selection");

  SvmParams base;
  base.c = 1.0;
  base.tolerance = 1e-3;
  base.max_iterations = 20000;

  Table table({"Dataset", "iters (1st)", "iters (2nd)", "time (1st)",
               "time (2nd)", "us/iter (1st)", "us/iter (2nd)",
               "objective gap", "iter ratio"});
  CsvWriter csv(bench::csv_path("ablation_wss"),
                {"dataset", "iters_first", "iters_second", "seconds_first",
                 "seconds_second", "objective_first", "objective_second",
                 "us_per_iter_first", "us_per_iter_second"});

  // Convergence trajectories (objective + optimality gap per iteration)
  // for re-plotting, sampled every 25 iterations.
  CsvWriter trace_csv(bench::csv_path("ablation_wss_trace"),
                      {"dataset", "policy", "iteration", "objective", "gap"});

  for (const char* name : {"adult", "aloi", "mnist", "connect-4",
                           "trefethen"}) {
    const Dataset ds = profile_by_name(name).generate();

    auto traced = [&](WssPolicy wss, const char* tag) {
      SvmParams params = base;
      params.wss = wss;
      params.trace_interval = 25;
      params.on_trace = [&](const IterationTrace& t) {
        trace_csv.write_row({name, tag, std::to_string(t.iteration),
                             fmt_double(t.objective, 6),
                             fmt_double(t.gap(), 6)});
      };
      return train_fixed_format(ds, params, Format::kCSR);
    };
    const TrainResult r1 = traced(WssPolicy::kFirstOrder, "first");
    const TrainResult r2 = traced(WssPolicy::kSecondOrder, "second");

    const double gap =
        std::abs(r1.stats.objective - r2.stats.objective) /
        std::max(1.0, std::abs(r2.stats.objective));
    const auto us_per_iter = [](const TrainResult& r) {
      return 1e6 * r.solve_seconds /
             static_cast<double>(std::max<index_t>(1, r.stats.iterations));
    };
    table.add_row({name, std::to_string(r1.stats.iterations),
                   std::to_string(r2.stats.iterations),
                   fmt_seconds(r1.solve_seconds),
                   fmt_seconds(r2.solve_seconds),
                   fmt_double(us_per_iter(r1), 1),
                   fmt_double(us_per_iter(r2), 1),
                   fmt_double(gap * 100.0, 2) + "%",
                   fmt_double(static_cast<double>(r1.stats.iterations) /
                                  static_cast<double>(r2.stats.iterations),
                              2)});
    csv.write_row({name, std::to_string(r1.stats.iterations),
                   std::to_string(r2.stats.iterations),
                   fmt_double(r1.solve_seconds, 6),
                   fmt_double(r2.solve_seconds, 6),
                   fmt_double(r1.stats.objective, 6),
                   fmt_double(r2.stats.objective, 6),
                   fmt_double(us_per_iter(r1), 3),
                   fmt_double(us_per_iter(r2), 3)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Both policies reach the same dual objective (gap column); "
              "second-order\ntypically needs fewer iterations, which is why "
              "LIBSVM adopted it.\n");
  trace_csv.close();
  bench::finish(csv, "ablation_wss");
  return 0;
}
