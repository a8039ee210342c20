// Ablation: heuristic selector vs empirical autotuner.
//
// For every evaluated dataset we compare (a) the decision each policy makes,
// (b) how close that decision is to the measured-optimal format (regret),
// and (c) how long the decision itself takes — the trade-off DESIGN.md
// calls out: the heuristic is O(1) after feature extraction, the empirical
// tuner materialises candidates but is exact.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "data/profiles.hpp"
#include "sched/scheduler.hpp"

int main() {
  using namespace ls;
  bench::banner("Ablation: selector", "heuristic cost model vs empirical "
                                      "autotuner");

  KernelParams kernel;
  Table table({"Dataset", "optimal", "heuristic", "empirical",
               "heur regret", "emp regret", "heur ms", "emp ms"});
  CsvWriter csv(bench::csv_path("ablation_selector"),
                {"dataset", "optimal", "heuristic_pick", "empirical_pick",
                 "heuristic_regret", "empirical_regret",
                 "heuristic_decide_ms", "empirical_decide_ms"});

  std::vector<double> heur_regret, emp_regret;
  for (const DatasetProfile& profile : evaluated_profiles()) {
    const Dataset ds = profile.generate();

    // Ground truth: measured cost per format.
    std::array<double, kNumBasicFormats> secs{};
    Format optimal = Format::kCSR;
    for (Format f : kAllFormats) {
      secs[static_cast<std::size_t>(f)] =
          bench::smo_row_seconds(ds.X, f, kernel);
      if (secs[static_cast<std::size_t>(f)] <
          secs[static_cast<std::size_t>(optimal)]) {
        optimal = f;
      }
    }

    SchedulerOptions heur_opts;
    heur_opts.policy = SchedulePolicy::kHeuristic;
    Timer t1;
    const ScheduleDecision heur = LayoutScheduler(heur_opts).decide(ds.X);
    const double heur_ms = t1.millis();

    SchedulerOptions emp_opts;
    emp_opts.policy = SchedulePolicy::kEmpirical;
    Timer t2;
    const ScheduleDecision emp = LayoutScheduler(emp_opts).decide(ds.X);
    const double emp_ms = t2.millis();

    // Regret = chosen cost / optimal cost (1.0 = perfect). Near-tied
    // formats can measure on either side of the "optimal" sample, so the
    // ratio is clamped at 1.0 (a sub-1.0 value is a tie, not a win).
    const double hr =
        std::max(1.0, secs[static_cast<std::size_t>(heur.format)] /
                          secs[static_cast<std::size_t>(optimal)]);
    const double er =
        std::max(1.0, secs[static_cast<std::size_t>(emp.format)] /
                          secs[static_cast<std::size_t>(optimal)]);
    heur_regret.push_back(hr);
    emp_regret.push_back(er);

    table.add_row({profile.name, std::string(format_name(optimal)),
                   std::string(format_name(heur.format)),
                   std::string(format_name(emp.format)), fmt_double(hr, 2),
                   fmt_double(er, 2), fmt_double(heur_ms, 2),
                   fmt_double(emp_ms, 1)});
    csv.write_row({profile.name, std::string(format_name(optimal)),
                   std::string(format_name(heur.format)),
                   std::string(format_name(emp.format)), fmt_double(hr, 4),
                   fmt_double(er, 4), fmt_double(heur_ms, 3),
                   fmt_double(emp_ms, 3)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Mean regret: heuristic %.2fx, empirical %.2fx "
              "(1.0 = always optimal).\n",
              mean(heur_regret), mean(emp_regret));
  std::printf("The empirical tuner's per-dataset cost is amortised over "
              "thousands of SMO\niterations; the heuristic is free.\n");
  bench::finish(csv, "ablation_selector");
  return 0;
}
