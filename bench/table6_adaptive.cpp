// Table VI reproduction: effects of the adaptive system. For each of the
// nine evaluated datasets: the measured worst format, the scheduler's
// selection, the average speedup of the selection over the other four
// formats and the maximum speedup over the worst format — next to the
// paper's selections and speedups.
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "data/profiles.hpp"
#include "sched/scheduler.hpp"

int main() {
  using namespace ls;
  bench::banner("Table VI", "effects of the adaptive system");

  KernelParams kernel;
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kEmpirical;
  const LayoutScheduler scheduler(sched);

  Table table({"Dataset", "Worst", "Selection", "Avg & Max speedup",
               "paper: worst", "paper: sel", "paper: avg & max"});
  CsvWriter csv(bench::csv_path("table6"),
                {"dataset", "worst", "selection", "avg_speedup",
                 "max_speedup", "paper_selection", "paper_avg", "paper_max",
                 "selection_optimal"});

  std::vector<double> avg_speedups, max_speedups;
  int optimal_picks = 0, total = 0;
  for (const DatasetProfile& profile : evaluated_profiles()) {
    const Dataset ds = profile.generate();

    // Measure every format's SMO-row cost, after one untimed pass over
    // the matrix: without it, CSR on the first dataset (adult) sometimes
    // timed as slow as DEN or slower, which misreads the whole row.
    (void)bench::smo_row_seconds(ds.X, Format::kCSR, kernel);
    std::array<double, kNumBasicFormats> secs{};
    for (Format f : kAllFormats) {
      secs[static_cast<std::size_t>(f)] =
          bench::smo_row_seconds(ds.X, f, kernel);
    }
    Format worst = Format::kCSR, best = Format::kCSR;
    for (Format f : kAllFormats) {
      if (secs[static_cast<std::size_t>(f)] >
          secs[static_cast<std::size_t>(worst)]) {
        worst = f;
      }
      if (secs[static_cast<std::size_t>(f)] <
          secs[static_cast<std::size_t>(best)]) {
        best = f;
      }
    }

    // The scheduler's pick.
    const ScheduleDecision decision = scheduler.decide(ds.X);
    const double sel_secs = secs[static_cast<std::size_t>(decision.format)];

    double others_sum = 0.0;
    for (Format f : kAllFormats) {
      if (f != decision.format) {
        others_sum += secs[static_cast<std::size_t>(f)] / sel_secs;
      }
    }
    const double avg_speedup = others_sum / (kNumBasicFormats - 1);
    const double max_speedup =
        secs[static_cast<std::size_t>(worst)] / sel_secs;
    avg_speedups.push_back(avg_speedup);
    max_speedups.push_back(max_speedup);
    const bool optimal = decision.format == best;
    optimal_picks += optimal;
    ++total;

    const auto& ref = profile.reference;
    table.add_row({profile.name, std::string(format_name(worst)),
                   std::string(format_name(decision.format)),
                   fmt_speedup(avg_speedup) + " & " + fmt_speedup(max_speedup),
                   std::string(format_name(*ref.worst)),
                   std::string(format_name(*ref.selection)),
                   fmt_speedup(ref.avg_speedup) + " & " +
                       fmt_speedup(ref.max_speedup)});
    csv.write_row({profile.name, std::string(format_name(worst)),
                   std::string(format_name(decision.format)),
                   fmt_double(avg_speedup, 3), fmt_double(max_speedup, 3),
                   std::string(format_name(*ref.selection)),
                   fmt_double(ref.avg_speedup, 2),
                   fmt_double(ref.max_speedup, 2), optimal ? "1" : "0"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Adaptive-over-worst speedup: %.1fx average, %.1fx max "
              "(paper: 6.8x average,\nrange 1.7x-16.2x over the worst "
              "format).\n", mean(max_speedups), max_value(max_speedups));
  std::printf("Scheduler picked the measured-optimal format on %d/%d "
              "datasets.\n", optimal_picks, total);
  bench::finish(csv, "table6");
  return 0;
}
