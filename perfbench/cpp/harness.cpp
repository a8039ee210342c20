#include "harness.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "kernels/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

// --- tracing ---------------------------------------------------------------

std::int64_t Tracer::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

std::int64_t Tracer::add(std::string name, std::string layer, double start,
                         double end, std::int64_t parent, std::int64_t op) {
  if (!enabled_) return 0;
  const std::int64_t id = reserve();
  add_with_id(id, std::move(name), std::move(layer), start, end, parent, op);
  return id;
}

void Tracer::add_with_id(std::int64_t id, std::string name, std::string layer,
                         double start, double end, std::int64_t parent,
                         std::int64_t op) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(
      Span{std::move(name), std::move(layer), start, end, id, parent, op});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const double a = std::max(c->start, s.start);
        const double b = std::min(c->end, s.end);
        if (b > a) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[s.layer] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) t0 = std::min(t0, s.start);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":" << json_str(s.name)
        << ",\"cat\":" << json_str(s.layer)
        << ",\"ts\":" << (s.start - t0) * 1e6
        << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

ScopedSpan::ScopedSpan(std::string name, std::string layer,
                       std::int64_t parent, std::int64_t op)
    : name_(std::move(name)), layer_(std::move(layer)), parent_(parent),
      op_(op) {
  if (tracer().enabled()) {
    id_ = tracer().reserve();
    start_ = now_s();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    tracer().add_with_id(id_, std::move(name_), std::move(layer_), start_,
                         now_s(), parent_, op_);
  }
}

// --- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at;
  for (double t = gap(rng); t < seconds; t += gap(rng)) at.push_back(t);
  return at;
}

OpenLoopResult run_open_loop(
    const std::vector<double>& schedule, double t0, int threads,
    const std::function<bool(int, std::size_t)>& send) {
  struct PerThread {
    std::vector<double> lat;
    std::vector<double> late;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    double last_lag_ms = 0.0;
  };
  std::vector<PerThread> per(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PerThread& mine = per[static_cast<std::size_t>(t)];
      for (std::size_t i = static_cast<std::size_t>(t); i < schedule.size();
           i += static_cast<std::size_t>(threads)) {
        const double due = t0 + schedule[i];
        const bool idle = now_s() < due;
        sleep_until_s(due);
        const double sent = now_s();
        if (idle) mine.late.push_back((sent - due) * 1e3);
        ++mine.attempted;
        bool ok = false;
        try {
          ok = send(t, i);
        } catch (const std::exception&) {
          ok = false;
        }
        const double done = now_s();
        if (ok) {
          mine.lat.push_back((done - due) * 1e3);
        } else {
          ++mine.failed;
        }
        mine.last_lag_ms = (done - due) * 1e3;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  OpenLoopResult r;
  for (const PerThread& p : per) {
    r.latency_ms.insert(r.latency_ms.end(), p.lat.begin(), p.lat.end());
    r.late_ms.insert(r.late_ms.end(), p.late.begin(), p.late.end());
    r.attempted += p.attempted;
    r.failed += p.failed;
    r.final_lag_ms = std::max(r.final_lag_ms, p.last_lag_ms);
  }
  return r;
}

// --- report ----------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t k = 0; k < v.size(); ++k) {
    out += (k ? ", " : "") + json_num(v[k]);
  }
  return out + "]";
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = Metric{value, unit};
}

void Report::fact(const std::string& name, const std::string& json_value) {
  facts_[name] = json_value;
}

void Report::check(const std::string& name, std::int64_t attempted,
                   std::int64_t failed) {
  auto& c = checks_[name];
  c.first += attempted;
  c.second += failed;
}

void Report::note_failure(const std::string& what) {
  failures_.push_back(what);
}

std::int64_t Report::attempted() const {
  std::int64_t n = 0;
  for (const auto& [name, c] : checks_) n += c.first;
  return n;
}

std::int64_t Report::failed() const {
  std::int64_t n = 0;
  for (const auto& [name, c] : checks_) n += c.second;
  return n;
}

std::string Report::to_json() const {
  std::ostringstream os;
  const auto metrics = [&](const std::map<std::string, Metric>& m) {
    os << "{";
    bool first = true;
    for (const auto& [name, metric] : m) {
      os << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
         << json_num(metric.value) << ", \"unit\": " << json_str(metric.unit)
         << "}";
      first = false;
    }
    os << "}";
  };
  os << "{\"attempted\": " << attempted() << ", \"failed\": " << failed()
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << json_str(failures_[i]);
  }
  os << "], \"checks\": {";
  bool first = true;
  for (const auto& [name, c] : checks_) {
    os << (first ? "" : ", ") << json_str(name) << ": [" << c.first << ", "
       << c.second << "]";
    first = false;
  }
  os << "}, \"e2e\": ";
  metrics(e2e_);
  os << ", \"layer\": ";
  metrics(layer_);
  os << ", \"facts\": {";
  first = true;
  for (const auto& [name, v] : facts_) {
    os << (first ? "" : ", ") << json_str(name) << ": " << v;
    first = false;
  }
  os << "}}";
  return os.str();
}

// --- environment -----------------------------------------------------------

double timer_total(const std::string& prefix) {
  double s = 0.0;
  for (const auto& [name, t] : ls::metrics::snapshot().timers) {
    if (name.rfind(prefix, 0) == 0) s += t.total;
  }
  return s;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

namespace {

/// Filesystem type name of `path` ("ext4", "tmpfs", "overlay", ...).
std::string filesystem_name(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlay";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return os.str();
    }
  }
}

}  // namespace

double cpu_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0.0;
  double steal = 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  in >> cpu;
  for (int k = 0; k < 8 && in >> field; ++k) steal = field;
  return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK))
                      : 0.0;
}

std::string environment_json(const Args& args, double steal_share) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"omp_threads\": " << ls::num_threads()
     << ", \"omp_wait_policy\": "
     << json_str(std::getenv("OMP_WAIT_POLICY") ? std::getenv("OMP_WAIT_POLICY")
                                               : "default")
     << ", \"simd_level\": "
     << json_str(std::string(
            ls::simd::level_name(ls::simd::active_level())))
     << ", \"simd_fallbacks\": " << ls::simd::fallback_events()
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"seed\": " << args.seed
     << ", \"journal_dir\": " << json_str(args.work_dir)
     << ", \"journal_fs\": " << json_str(filesystem_name(args.work_dir))
     << ", \"cpu_steal_share\": " << json_num(steal_share) << "}";
  return os.str();
}

void report_self_times(Report& r) {
  const auto self = tracer().self_seconds();
  for (const char* layer : {"data", "sched", "kernels", "svm", "serve",
                            "route", "train", "wal", "bench"}) {
    const auto it = self.find(layer);
    r.layer(std::string("self_s.") + layer,
            it == self.end() ? 0.0 : it->second, "s");
  }
  r.layer("trace.spans", static_cast<double>(tracer().size()), "count");
}

}  // namespace perfbench
