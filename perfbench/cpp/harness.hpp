// Shared machinery of the repo benchmark: arguments, the clock, an
// in-memory span recorder, sample statistics, the open-loop schedule and
// the result document every workload fills in.
//
// The benchmark measures each layer from outside: spans are recorded here,
// around calls into the library's public functions, never inside it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets, model files and the journal. It must
  /// sit on the disk the journal is meant to measure (not tmpfs).
  std::string work_dir = ".bench_work";
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

/// Monotonic seconds (steady_clock).
double now_s();
/// Sleeps until the steady-clock instant `t` (seconds).
void sleep_until_s(double t);

/// One recorded span: a named interval on one layer, linked to the span
/// that caused it and to the request or retrain it served.
struct Span {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t op = 0;      ///< request / retrain / pass id
};

/// In-memory span recorder. Disabled recorders cost one branch per span.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Records a finished span; returns its id (0 when disabled).
  std::int64_t add(std::string name, std::string layer, double start,
                   double end, std::int64_t parent = 0, std::int64_t op = 0);
  /// Reserves an id for a span whose children are recorded before it ends.
  std::int64_t reserve();
  /// Records a span under an id from reserve().
  void add_with_id(std::int64_t id, std::string name, std::string layer,
                   double start, double end, std::int64_t parent,
                   std::int64_t op);
  /// Per-layer self time: each span's duration minus the part of it its
  /// children cover, summed by layer.
  std::map<std::string, double> self_seconds() const;
  /// Writes the spans as Chrome trace-event JSON.
  void write_chrome_json(const std::string& path) const;
  std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(std::string name, std::string layer, std::int64_t parent = 0,
             std::int64_t op = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }
  double start() const { return start_; }

 private:
  std::string name_;
  std::string layer_;
  std::int64_t parent_;
  std::int64_t op_;
  std::int64_t id_ = 0;
  double start_ = 0.0;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
using ls::mean;
using ls::median;

/// Open-loop arrival schedule: Poisson arrivals at `rate` per second over
/// `seconds`, as offsets from the start, drawn from `seed`.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

/// Outcome of one open-loop run over `threads` connections.
struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< from due time to completion, ok only
  std::vector<double> late_ms;     ///< send time minus due time, idle sender
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Completion minus due time of the last request (backlog indicator).
  double final_lag_ms = 0.0;
};

/// Runs `schedule` (offsets from `t0`) across `threads` sender threads;
/// request i goes to thread i % threads, which sleeps until it is due and
/// then calls send(thread, i). send returns false on a failed request.
/// Each request is timed from when it was due, so a stall also counts
/// against the requests queued behind it.
OpenLoopResult run_open_loop(
    const std::vector<double>& schedule, double t0, int threads,
    const std::function<bool(int thread, std::size_t i)>& send);

/// Result document: metrics by name with units, pass/fail accounting and
/// free-form facts (layout picks, environment), printed as one JSON line.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void fact(const std::string& name, const std::string& json_value);
  /// Counts `attempted` operations of check `name`, `failed` of them bad.
  void check(const std::string& name, std::int64_t attempted,
             std::int64_t failed);
  void note_failure(const std::string& what);
  std::int64_t attempted() const;
  std::int64_t failed() const;
  std::string to_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, std::string> facts_;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> checks_;
  std::vector<std::string> failures_;
};

/// JSON string literal.
std::string json_str(const std::string& s);
/// JSON array of numbers.
std::string json_list(const std::vector<double>& v);

/// Sum of the library's metrics-registry timer totals (seconds) over every
/// timer whose name starts with `prefix` (an exact name also matches).
double timer_total(const std::string& prefix);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// CPU time the hypervisor took from this machine since boot, in seconds
/// (the steal column of /proc/stat; 0 where it is not available).
double cpu_steal_s();

/// Environment stamp: nproc, OpenMP threads and wait policy, SIMD level and
/// fallbacks, build type, seed, the work directory (which holds the
/// journal) with its filesystem, and `steal_share`, the share of the
/// machine's CPU time stolen during the run.
std::string environment_json(const Args& args, double steal_share);

/// Per-layer self times from tracer() as "self_s.<layer>" metrics for every
/// layer the benchmark attributes time to (0 for a layer with no spans),
/// plus the span count.
void report_self_times(Report& r);

int run_train_suite(const Args& args, Report& r);
int run_stream_fresh(const Args& args, Report& r);

}  // namespace perfbench
