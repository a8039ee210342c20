// perfbench_bin — one run of one benchmark workload.
//
//   perfbench_bin --workload train_suite|stream_fresh
//                 --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-out FILE]
//
// Prints human-readable progress on stderr and, as the last line of
// stdout, one JSON document: end-to-end metrics ("e2e"), per-layer metrics
// ("layer", traced runs), output-check accounting and facts (layout picks,
// environment stamp). perfbench/run.py turns it into the benchmark result.
// Exits 1 when any output check failed, 2 on bad arguments.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_bin: %s\nusage: perfbench_bin --workload "
               "train_suite|stream_fresh --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = val;
      } else if (key == "--seed") {
        args.seed = std::stoull(val);
      } else if (key == "--seconds") {
        args.seconds = std::stod(val);
      } else if (key == "--trace") {
        args.trace = val == "1";
      } else if (key == "--work-dir") {
        args.work_dir = val;
      } else if (key == "--trace-out") {
        trace_out = val;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (args.seconds <= 0) return usage("--seconds must be positive");

  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  // Write back what earlier runs left dirty on this filesystem (their
  // journals and model files, deleted or not), so this run's fsyncs wait
  // for its own writes.
  if (const int fd = ::open(args.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  perfbench::tracer().set_enabled(args.trace);

  perfbench::Report report;
  const double steal0 = perfbench::cpu_steal_s();
  const double wall0 = perfbench::now_s();
  int rc = 0;
  try {
    if (args.workload == "train_suite") {
      rc = perfbench::run_train_suite(args, report);
    } else if (args.workload == "stream_fresh") {
      rc = perfbench::run_stream_fresh(args, report);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.check("workload", 1, 1);
    report.note_failure(std::string("workload threw: ") + e.what());
    rc = 1;
  }
  report.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  const double cpu_s = (perfbench::now_s() - wall0) *
                      static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  report.fact("env", perfbench::environment_json(
                         args, (perfbench::cpu_steal_s() - steal0) / cpu_s));
  if (args.trace) {
    perfbench::report_self_times(report);
    if (!trace_out.empty()) perfbench::tracer().write_chrome_json(trace_out);
  }
  std::filesystem::remove_all(args.work_dir);

  if (report.failed() > 0) rc = 1;
  std::printf("%s\n", report.to_json().c_str());
  std::fflush(stdout);
  return rc;
}
