// Figure 1 reproduction: performance of the five storage formats under the
// SMO kernel, normalised to the slowest format per dataset, for the five
// datasets the paper plots (adult, aloi, mnist, gisette, trefethen).
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "data/profiles.hpp"

int main() {
  using namespace ls;
  bench::banner("Fig. 1", "per-dataset format speedups (normalised to the "
                          "slowest format)");

  const std::vector<std::string> datasets = {"adult", "aloi", "mnist",
                                             "gisette", "trefethen"};
  KernelParams kernel;  // linear: the common SMO configuration

  Table table({"Dataset", "ELL", "CSR", "COO", "DEN", "DIA", "best", "worst"});
  CsvWriter csv(bench::csv_path("fig1"),
                {"dataset", "format", "seconds_per_row", "speedup_vs_worst"});

  for (const std::string& name : datasets) {
    const Dataset ds = profile_by_name(name).generate();
    std::array<double, kNumBasicFormats> secs{};
    double worst = 0.0;
    for (Format f : kAllFormats) {
      const double s = bench::smo_row_seconds(ds.X, f, kernel);
      secs[static_cast<std::size_t>(f)] = s;
      worst = std::max(worst, s);
    }
    double best_speedup = 0.0;
    Format best_fmt = Format::kCSR, worst_fmt = Format::kCSR;
    for (Format f : kAllFormats) {
      const double sp = worst / secs[static_cast<std::size_t>(f)];
      if (sp > best_speedup) {
        best_speedup = sp;
        best_fmt = f;
      }
      if (secs[static_cast<std::size_t>(f)] == worst) worst_fmt = f;
      csv.write_row({name, std::string(format_name(f)),
                     fmt_double(secs[static_cast<std::size_t>(f)], 9),
                     fmt_double(sp, 3)});
    }
    // Paper column order: ELL CSR COO DEN DIA.
    auto cell = [&](Format f) {
      const double sp = worst / secs[static_cast<std::size_t>(f)];
      return bench::speedup_cell(sp, f == best_fmt);
    };
    table.add_row({name, cell(Format::kELL), cell(Format::kCSR),
                   cell(Format::kCOO), cell(Format::kDEN), cell(Format::kDIA),
                   std::string(format_name(best_fmt)),
                   std::string(format_name(worst_fmt))});
  }

  std::printf("%s\n", table.str().c_str());
  std::printf("Paper's observation: the best and worst formats vary per "
              "dataset\n(Table III: best-over-worst spans 3.7x-14.3x on "
              "their Ivy Bridge).\n");
  bench::finish(csv, "fig1");
  return 0;
}
