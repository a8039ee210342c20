// serve_load — closed-loop load test of the serving engine.
//
// The question: does micro-batching buy throughput once requests are
// concurrent? Each configuration serves the same synthetic Gaussian model
// in-process; C client threads issue requests back-to-back (closed loop)
// and we compare requests/second against the batch=1 baseline at the same
// concurrency. Batching amortises the support-vector matrix stream across
// the coalesced requests (one multiply_dense_batch instead of one SMSV per
// request), so the win should appear as soon as the queue holds more than
// one request — i.e. whenever concurrency exceeds the worker count.
//
// The model is built by hand (not trained): enough support vectors and
// features to make a single-row score measurably expensive, so the bench
// measures the serving pipeline rather than queueing noise.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "serve/engine.hpp"
#include "svm/serialize.hpp"

namespace {

using ls::index_t;
using ls::real_t;

/// Hand-built Gaussian model: `n_sv` random sparse support vectors over
/// `d` features. Coefficients sum to zero-ish so decisions stay bounded.
ls::SvmModel synthetic_model(index_t n_sv, index_t d, double density,
                             std::uint64_t seed) {
  ls::Rng rng(seed);
  ls::SvmModel model;
  model.kernel.type = ls::KernelType::kGaussian;
  model.kernel.gamma = 0.5;
  model.rho = 0.0;
  model.num_features = d;
  for (index_t s = 0; s < n_sv; ++s) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (rng.bernoulli(density)) {
        idx.push_back(c);
        val.push_back(rng.normal());
      }
    }
    if (idx.empty()) {  // every SV needs at least one nonzero
      idx.push_back(rng.uniform_int(0, d - 1));
      val.push_back(1.0);
    }
    model.support_vectors.emplace_back(std::move(idx), std::move(val));
    model.coef.push_back(s % 2 == 0 ? 1.0 : -1.0);
  }
  return model;
}

/// Random request vectors with the same shape as the support vectors.
std::vector<ls::SparseVector> synthetic_requests(index_t count, index_t d,
                                                 double density,
                                                 std::uint64_t seed) {
  ls::Rng rng(seed);
  std::vector<ls::SparseVector> rows;
  rows.reserve(static_cast<std::size_t>(count));
  for (index_t r = 0; r < count; ++r) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (rng.bernoulli(density)) {
        idx.push_back(c);
        val.push_back(rng.normal());
      }
    }
    if (idx.empty()) {
      idx.push_back(0);
      val.push_back(1.0);
    }
    rows.emplace_back(std::move(idx), std::move(val));
  }
  return rows;
}

struct RunResult {
  double rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double occupancy = 0.0;
  std::int64_t shed = 0;
};

/// One closed-loop run: `concurrency` threads send `total` requests
/// through a fresh engine configured with `opts`.
RunResult run_config(const ls::serve::ServeOptions& opts,
                     const std::string& model_path,
                     const std::vector<ls::SparseVector>& requests,
                     int concurrency, std::size_t total) {
  ls::serve::ServeEngine engine(opts);
  engine.load_model("bench", model_path);
  engine.start();

  std::vector<std::vector<double>> lat(
      static_cast<std::size_t>(concurrency));
  std::vector<std::thread> threads;
  const ls::Timer wall;
  for (int t = 0; t < concurrency; ++t) {
    threads.emplace_back([&, t] {
      std::vector<double>& mine = lat[static_cast<std::size_t>(t)];
      for (std::size_t r = static_cast<std::size_t>(t); r < total;
           r += static_cast<std::size_t>(concurrency)) {
        const ls::Timer timer;
        const ls::serve::PredictResult res =
            engine.predict("bench", requests[r % requests.size()]);
        if (res.status == ls::serve::Status::kOk) {
          mine.push_back(timer.millis());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall_s = wall.seconds();
  const ls::serve::ServeStats stats = engine.stats();
  engine.stop();

  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  RunResult r;
  r.rps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0.0;
  if (!all.empty()) {
    r.p50_ms = all[all.size() / 2];
    r.p95_ms = all[static_cast<std::size_t>(
        0.95 * static_cast<double>(all.size() - 1))];
  }
  r.occupancy = stats.mean_batch_occupancy();
  r.shed = stats.shed_total();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  ls::CliParser cli("serve_load",
                    "Closed-loop serving throughput: micro-batching vs "
                    "batch=1");
  cli.add_flag("requests", "1000", "requests per configuration");
  cli.add_flag("sv", "4000", "support vectors in the synthetic model");
  cli.add_flag("features", "2048", "feature dimension");
  cli.add_flag("density", "0.05", "nonzero fraction per row");
  cli.add_flag("workers", "2", "engine worker threads");
  if (!cli.parse(argc, argv)) return 0;

  // Always-on metrics: the exported JSON carries the serve.request_seconds
  // latency distribution (p50/p95) next to the CSV.
  ls::metrics::set_enabled(true);

  const auto total = static_cast<std::size_t>(cli.get_int("requests"));
  const auto n_sv = static_cast<index_t>(cli.get_int("sv"));
  const auto d = static_cast<index_t>(cli.get_int("features"));
  const double density = cli.get_double("density");
  const int workers = static_cast<int>(cli.get_int("workers"));

  ls::bench::banner("serve_load",
                    "micro-batched serving vs per-request scoring");

  const std::string model_path = "bench_results/serve_load_model.txt";
  std::filesystem::create_directories("bench_results");
  ls::save_model_file(model_path,
                      synthetic_model(n_sv, d, density, 0xBA7C4));
  const std::vector<ls::SparseVector> requests =
      synthetic_requests(256, d, density, 0x5E44E);

  struct Config {
    const char* label;
    index_t max_batch;
  };
  const Config configs[] = {
      {"batch=1", 1},
      {"batch=64", 64},
  };
  const int concurrencies[] = {1, 2, 4, 8, 16};

  ls::CsvWriter csv(ls::bench::csv_path("serve_load"),
                    {"config", "concurrency", "requests", "rps", "p50_ms",
                     "p95_ms", "mean_batch_occupancy", "shed",
                     "speedup_vs_batch1"});

  ls::Table table({"config", "conc", "rps", "p50 ms", "p95 ms", "occup",
                   "speedup"});
  for (int conc : concurrencies) {
    double baseline_rps = 0.0;
    for (const Config& c : configs) {
      ls::serve::ServeOptions opts;
      opts.workers = workers;
      opts.batcher.max_batch = c.max_batch;
      opts.batcher.max_queue = 4096;
      const RunResult r =
          run_config(opts, model_path, requests, conc, total);
      if (std::string(c.label) == "batch=1") baseline_rps = r.rps;
      const double speedup = baseline_rps > 0 ? r.rps / baseline_rps : 1.0;
      table.add_row({c.label, std::to_string(conc), ls::fmt_double(r.rps, 1),
                     ls::fmt_double(r.p50_ms, 3), ls::fmt_double(r.p95_ms, 3),
                     ls::fmt_double(r.occupancy, 2),
                     ls::bench::speedup_cell(speedup, speedup >= 2.0)});
      csv.write_row({c.label, std::to_string(conc), std::to_string(total),
                     ls::fmt_double(r.rps, 1), ls::fmt_double(r.p50_ms, 3),
                     ls::fmt_double(r.p95_ms, 3),
                     ls::fmt_double(r.occupancy, 2), std::to_string(r.shed),
                     ls::fmt_double(speedup, 2)});
    }
    table.add_separator();
  }
  std::printf("%s", table.str().c_str());

  ls::bench::finish(csv, "serve_load");
  return 0;
}
