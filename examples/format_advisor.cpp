// Format advisor: the paper's decision system as a standalone tool.
//
//   ./format_advisor --file data.libsvm
//   ./format_advisor --dataset sector
//
// Reads a dataset (a real libsvm file or a Table V profile), extracts the
// nine influencing parameters, prints the per-format storage and predicted
// SMSV cost, and reports both the heuristic and the empirical decision —
// useful for understanding *why* a format was chosen.
#include <cstdio>

#include "common/cli.hpp"
#include "common/observability.hpp"
#include "data/features.hpp"
#include "data/libsvm_io.hpp"
#include "data/profiles.hpp"
#include "common/table.hpp"
#include "formats/storage.hpp"
#include "sched/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace ls;
  CliParser cli("format_advisor", "recommend a storage format for a dataset");
  cli.add_flag("file", "", "libsvm-format input file (overrides --dataset)");
  cli.add_flag("dataset", "mnist", "Table V profile name when no --file");
  add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const ObservabilityScope observability(cli);

  Dataset ds;
  if (!cli.get("file").empty()) {
    ds = read_libsvm_file(cli.get("file"));
  } else {
    ds = profile_by_name(cli.get("dataset")).generate();
  }
  std::printf("dataset: %s\n", ds.name.c_str());

  const MatrixFeatures f = extract_features(ds.X);
  std::printf("influencing parameters (Table IV):\n  %s\n\n",
              f.to_string().c_str());

  // Per-format storage + predicted cost table.
  const CostCalibration& cal = CostCalibration::instance();
  std::printf("machine calibration: %s\n\n", cal.to_string().c_str());
  const CostPrediction pred = predict_cost(f, cal);

  Table table({"Format", "storage (words)", "modelled flops/SMSV",
               "predicted time/SMSV"});
  StorageShape shape{f.m, f.n, f.nnz, f.ndig, f.mdim};
  for (Format fmt : kAllFormats) {
    const auto i = static_cast<std::size_t>(fmt);
    table.add_row({std::string(format_name(fmt)),
                   std::to_string(storage_words(fmt, shape)),
                   fmt_double(pred.flops[i], 0),
                   fmt_seconds(pred.seconds[i])});
  }
  std::printf("%s\n", table.str().c_str());

  const ScheduleDecision heuristic = HeuristicSelector(cal).choose(f);
  std::printf("heuristic decision: %s\n", heuristic.rationale.c_str());

  const ScheduleDecision empirical = EmpiricalAutotuner().choose(ds.X);
  std::printf("empirical decision: %s\n", empirical.rationale.c_str());
  std::printf("  measured seconds/SMSV per format:");
  for (Format fmt : kAllFormats) {
    const double s = empirical.score_of(fmt);
    if (std::isfinite(s)) {
      std::printf(" %s=%s", std::string(format_name(fmt)).c_str(),
                  fmt_seconds(s).c_str());
    } else {
      std::printf(" %s=(not raced)", std::string(format_name(fmt)).c_str());
    }
  }
  std::printf("\n");
  return 0;
}
