// serve_chaos — socket chaos soak test of the serving stack.
//
// The question: does the hardened server/client pair survive sustained
// hostile weather — torn frames, half-frame stalls (slow loris), abrupt
// disconnects, injected read delays and a full server restart mid-run —
// with zero caller-visible errors and a bounded shed rate?
//
// Three populations share one daemon:
//   - worker threads: well-behaved ServeClients with per-request deadlines
//     and retries, issuing --requests predicts in a closed loop;
//   - a chaos thread: raw sockets cycling through attack scenarios
//     (garbage bytes, half a header then stall, connect-and-slam,
//     valid ping followed by garbage) plus periodic failpoint pulses that
//     tear frames and delay reads inside the server itself;
//   - a monitor thread: health + stats probes, the way an operator's
//     liveness checker would poll.
//
// With --restart 1 the socket server is stopped, destroyed and rebuilt on
// the same path halfway through; client retries must bridge the gap.
//
// With --replicas N the same populations instead hit a consistent-hash
// router (src/route) fronting N replica servers on their own sockets.
// The killer thread then plays operator: it SIGKILL-equivalently bounces
// one replica a quarter of the way in, and performs a full rolling
// restart of every replica at the halfway mark. Router failover plus
// client retries must hide all of it.
//
// The bench FAILS (nonzero exit) if any well-behaved request errors, if
// requests go missing (ok + shed != total), or if the shed rate exceeds
// --max-shed-rate. A hang shows up as the bench never finishing — which
// is the point: scripts/check.sh runs this under a timeout and under TSan.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "route/router.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "svm/serialize.hpp"

namespace {

using ls::index_t;
using ls::real_t;

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
    if (idx.empty()) {
      idx.push_back(rng.uniform_int(0, d - 1));
      val.push_back(1.0);
    }
    model.support_vectors.emplace_back(std::move(idx), std::move(val));
    model.coef.push_back(s % 2 == 0 ? 1.0 : -1.0);
  }
  return model;
}

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

int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void raw_send(int fd, const void* data, std::size_t n) {
  (void)!::send(fd, data, n, MSG_NOSIGNAL);
}

/// One hostile connection. `scenario` cycles; returns true when a
/// connection was actually made (the server may be mid-restart).
bool chaos_attack(const std::string& path, int scenario, ls::Rng& rng,
                  double loris_hold_ms) {
  const int fd = raw_connect(path);
  if (fd < 0) return false;
  switch (scenario % 4) {
    case 0: {
      // Garbage: bytes that can never be a valid frame header.
      unsigned char junk[12];
      for (unsigned char& b : junk) {
        b = static_cast<unsigned char>(rng.uniform_int(0, 255) | 0x80);
      }
      raw_send(fd, junk, sizeof(junk));
      break;
    }
    case 1: {
      // Half a valid header, then vanish mid-frame.
      const unsigned char half[6] = {0x4C, 0x53, 0x52, 0x56, 2, 1};
      raw_send(fd, half, sizeof(half));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      break;
    }
    case 2:
      // Connect-and-slam: no bytes at all.
      break;
    case 3: {
      // Slow loris: half a header held open past the server's read
      // timeout — the eviction/timeout machinery must free the worker.
      const unsigned char half[6] = {0x4C, 0x53, 0x52, 0x56, 2, 1};
      raw_send(fd, half, sizeof(half));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(loris_hold_ms));
      break;
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  return true;
}

/// Replicated mode: --replicas N serve servers behind a src/route router.
/// One shared engine stands in for N identical model-hosting processes —
/// the chaos here is all transport-level (replicas dying and coming back),
/// which is exactly the layer the router owns.
int run_replicated(const ls::CliParser& cli) {
  std::signal(SIGPIPE, SIG_IGN);
  ls::metrics::set_enabled(true);

  const auto total = static_cast<std::size_t>(cli.get_int("requests"));
  const int concurrency =
      std::max(1, static_cast<int>(cli.get_int("concurrency")));
  const int n_replicas =
      std::max(1, static_cast<int>(cli.get_int("replicas")));
  const bool chaos = cli.get_int("chaos") != 0;
  const bool restart = cli.get_int("restart") != 0;
  const double timeout_ms = cli.get_double("timeout-ms");
  const double read_timeout_ms = cli.get_double("read-timeout-ms");
  const double max_shed_rate = cli.get_double("max-shed-rate");

  ls::bench::banner("serve_chaos",
                    "replica kills + rolling restart behind the router — "
                    "zero lost requests");

  const std::string model_path = "bench_results/serve_chaos_model.txt";
  std::filesystem::create_directories("bench_results");
  ls::save_model_file(
      model_path,
      synthetic_model(static_cast<index_t>(cli.get_int("sv")),
                      static_cast<index_t>(cli.get_int("features")),
                      cli.get_double("density"), 0xC4A05));
  const std::vector<ls::SparseVector> requests = synthetic_requests(
      256, static_cast<index_t>(cli.get_int("features")),
      cli.get_double("density"), 0x5EED5);

  ls::serve::ServeOptions eopts;
  eopts.workers = static_cast<int>(cli.get_int("workers"));
  eopts.batcher.max_batch = 64;
  eopts.batcher.max_queue = 2048;
  ls::serve::ServeEngine engine(eopts);
  engine.load_model("chaos", model_path);
  engine.start();

  const std::string base =
      "/tmp/ls_route_chaos_" + std::to_string(::getpid());

  // The replica fleet: one ServeServer per socket, all over the shared
  // engine. Guarded by a mutex because the killer thread destroys and
  // rebuilds entries while teardown may race the end of the run.
  std::vector<ls::serve::ServerOptions> rep_listen(
      static_cast<std::size_t>(n_replicas));
  std::vector<std::unique_ptr<ls::serve::ServeServer>> reps(
      static_cast<std::size_t>(n_replicas));
  std::mutex reps_mu;
  std::vector<ls::route::ReplicaEndpoint> endpoints;
  for (int i = 0; i < n_replicas; ++i) {
    auto& listen = rep_listen[static_cast<std::size_t>(i)];
    listen.unix_path = base + "_r" + std::to_string(i) + ".sock";
    listen.max_connections = 64;
    listen.read_timeout_ms = read_timeout_ms;
    listen.write_timeout_ms = read_timeout_ms;
    listen.idle_timeout_ms = 2000.0;
    reps[static_cast<std::size_t>(i)] =
        std::make_unique<ls::serve::ServeServer>(engine, listen);
    reps[static_cast<std::size_t>(i)]->start();
    endpoints.push_back(
        ls::route::ReplicaEndpoint{listen.unix_path, -1});
  }

  // Aggressive prober/breaker settings: a dead replica must leave the
  // rotation within a few tens of ms, or the kill windows eat the retry
  // budget of every request hashed to it.
  ls::route::RouterOptions ropts;
  ropts.probe.interval_ms = 50.0;
  ropts.probe.probe_timeout_ms = 200.0;
  ropts.probe.backoff_max_ms = 400.0;
  ropts.breaker.failure_threshold = 3;
  ropts.breaker.open_ms = 150.0;
  ropts.upstream_connect_timeout_ms = 250.0;
  ropts.upstream_request_timeout_ms = timeout_ms;
  ls::route::Router router(endpoints, ropts);
  router.start();

  ls::serve::ServerOptions front_listen;
  front_listen.unix_path = base + "_router.sock";
  front_listen.max_connections = 64;
  front_listen.read_timeout_ms = read_timeout_ms;
  front_listen.write_timeout_ms = read_timeout_ms;
  front_listen.idle_timeout_ms = 2000.0;
  ls::serve::ServeServer front(router, front_listen);
  front.start();
  const std::string& socket_path = front_listen.unix_path;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done_count{0};
  std::atomic<bool> workers_done{false};
  std::atomic<std::size_t> ok{0}, shed{0}, errors{0};
  std::atomic<std::int64_t> retries_used{0};
  std::atomic<std::size_t> chaos_conns{0};
  std::atomic<std::size_t> health_probes{0};
  std::atomic<int> kills_done{0};
  std::atomic<int> rolling_done{0};

  const ls::Timer wall;

  // --- well-behaved population (aimed at the router) ---
  std::vector<std::thread> workers;
  for (int t = 0; t < concurrency; ++t) {
    workers.emplace_back([&, t] {
      ls::serve::ClientOptions copts;
      copts.request_timeout_ms = timeout_ms;
      copts.max_retries = static_cast<int>(cli.get_int("retries"));
      copts.backoff_base_ms = 5.0;
      copts.backoff_max_ms = 100.0;
      copts.jitter_seed = 0x2017ul + static_cast<std::uint64_t>(t);
      std::optional<ls::serve::ServeClient> client;
      std::int64_t observed = 0;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= total) break;
        try {
          if (!client) {
            client =
                ls::serve::ServeClient::connect_unix(socket_path, copts);
            observed = 0;
          }
          const ls::serve::PredictResult r =
              client->predict("chaos", requests[i % requests.size()]);
          retries_used.fetch_add(client->retries_observed() - observed);
          observed = client->retries_observed();
          if (r.status == ls::serve::Status::kOk) {
            ok.fetch_add(1);
          } else if (r.status == ls::serve::Status::kOverloaded ||
                     r.status == ls::serve::Status::kShuttingDown) {
            shed.fetch_add(1);
          } else {
            errors.fetch_add(1);
          }
        } catch (const std::exception&) {
          errors.fetch_add(1);
          client.reset();
        }
        done_count.fetch_add(1);
      }
    });
  }

  // --- hostile population (also aimed at the router) ---
  std::thread chaos_thread;
  if (chaos) {
    chaos_thread = std::thread([&] {
      ls::Rng rng(0xBADF00D);
      int scenario = 0;
      while (!workers_done.load(std::memory_order_acquire)) {
        if (chaos_attack(socket_path, scenario, rng,
                         read_timeout_ms + 150.0)) {
          chaos_conns.fetch_add(1);
        }
        ++scenario;
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    });
  }

  // --- operator population ---
  std::thread monitor([&] {
    ls::serve::ClientOptions copts;
    copts.request_timeout_ms = 500.0;
    copts.max_retries = 3;
    copts.jitter_seed = 0x4EA17;
    while (!workers_done.load(std::memory_order_acquire)) {
      try {
        ls::serve::ServeClient probe =
            ls::serve::ServeClient::connect_unix(socket_path, copts);
        (void)probe.health();
        (void)probe.stats();
        health_probes.fetch_add(1);
      } catch (const std::exception&) {
        // Router restarting is not part of this scenario, but be lenient.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });

  // --- the killer: one replica bounce, then a full rolling restart ---
  std::thread killer([&] {
    if (!restart) return;
    auto progressed_past = [&](std::size_t target) {
      while (done_count.load(std::memory_order_acquire) < target &&
             !workers_done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return !workers_done.load(std::memory_order_acquire);
    };
    auto bounce = [&](int i, int down_ms) {
      const auto idx = static_cast<std::size_t>(i);
      {
        std::lock_guard<std::mutex> lock(reps_mu);
        reps[idx]->stop();
        reps[idx].reset();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(down_ms));
      {
        std::lock_guard<std::mutex> lock(reps_mu);
        reps[idx] = std::make_unique<ls::serve::ServeServer>(
            engine, rep_listen[idx]);
        reps[idx]->start();
      }
    };
    if (progressed_past(total / 4)) {
      bounce(0, 150);
      kills_done.fetch_add(1);
    }
    if (progressed_past(total / 2)) {
      // Rolling restart: every replica in sequence, with a gap long
      // enough for the prober to notice each one coming back before the
      // next goes down — the way an operator would actually roll a fleet.
      for (int i = 0; i < n_replicas; ++i) {
        bounce(i, 80);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
      rolling_done.fetch_add(1);
    }
  });

  for (std::thread& th : workers) th.join();
  workers_done.store(true, std::memory_order_release);
  killer.join();
  if (chaos_thread.joinable()) chaos_thread.join();
  monitor.join();
  const double wall_s = wall.seconds();

  const bool drained = front.drain(5000.0);
  const ls::serve::ServerStats fstats = front.server_stats();
  const ls::route::RouterStats rstats = router.stats();
  const std::string router_text = router.stats_text();
  front.stop();
  router.stop();
  {
    std::lock_guard<std::mutex> lock(reps_mu);
    for (auto& rep : reps) {
      if (rep) rep->stop();
      rep.reset();
    }
  }
  engine.stop();

  const std::size_t accounted = ok.load() + shed.load() + errors.load();
  const double shed_rate =
      total > 0
          ? static_cast<double>(shed.load()) / static_cast<double>(total)
          : 0.0;

  ls::Table table({"metric", "value"});
  table.add_row({"replicas", std::to_string(n_replicas)});
  table.add_row({"requests", std::to_string(total)});
  table.add_row({"ok", std::to_string(ok.load())});
  table.add_row({"shed", std::to_string(shed.load())});
  table.add_row({"errors", std::to_string(errors.load())});
  table.add_row({"client retries", std::to_string(retries_used.load())});
  table.add_row({"shed rate", ls::fmt_double(shed_rate, 4)});
  table.add_row({"rps", ls::fmt_double(
                            wall_s > 0 ? static_cast<double>(total) / wall_s
                                       : 0.0,
                            1)});
  table.add_row({"chaos connections", std::to_string(chaos_conns.load())});
  table.add_row({"health probes", std::to_string(health_probes.load())});
  table.add_row({"replica kills", std::to_string(kills_done.load())});
  table.add_row({"rolling restarts", std::to_string(rolling_done.load())});
  table.add_row({"router failovers", std::to_string(rstats.failover_total)});
  table.add_row(
      {"router exhausted", std::to_string(rstats.exhausted_total)});
  table.add_row({"breaker short circuits",
                 std::to_string(rstats.breaker_short_circuit_total)});
  table.add_row(
      {"open connections", std::to_string(fstats.connections_open)});
  table.add_row({"drained", drained ? "yes" : "NO"});
  std::printf("%s", table.str().c_str());
  std::printf("--- router ---\n%s", router_text.c_str());

  ls::CsvWriter csv(ls::bench::csv_path("serve_chaos_replicated"),
                    {"replicas", "requests", "ok", "shed", "errors",
                     "retries", "shed_rate", "rps", "failovers",
                     "exhausted", "kills", "rolling"});
  csv.write_row(
      {std::to_string(n_replicas), std::to_string(total),
       std::to_string(ok.load()), std::to_string(shed.load()),
       std::to_string(errors.load()), std::to_string(retries_used.load()),
       ls::fmt_double(shed_rate, 4),
       ls::fmt_double(
           wall_s > 0 ? static_cast<double>(total) / wall_s : 0.0, 1),
       std::to_string(rstats.failover_total),
       std::to_string(rstats.exhausted_total),
       std::to_string(kills_done.load()),
       std::to_string(rolling_done.load())});
  ls::bench::finish(csv, "serve_chaos");

  bool pass = true;
  if (errors.load() != 0) {
    std::printf("FAIL: %zu well-behaved requests errored (want 0)\n",
                errors.load());
    pass = false;
  }
  if (accounted != total) {
    std::printf("FAIL: accounted %zu of %zu requests (lost %zd)\n",
                accounted, total,
                static_cast<std::ptrdiff_t>(total) -
                    static_cast<std::ptrdiff_t>(accounted));
    pass = false;
  }
  if (shed_rate > max_shed_rate) {
    std::printf("FAIL: shed rate %.4f exceeds bound %.4f\n", shed_rate,
                max_shed_rate);
    pass = false;
  }
  if (restart && kills_done.load() != 1) {
    std::printf("FAIL: replica kill never happened (run too short?)\n");
    pass = false;
  }
  if (restart && rolling_done.load() != 1) {
    std::printf("FAIL: rolling restart never happened (run too short?)\n");
    pass = false;
  }
  if (!drained) {
    std::printf("FAIL: router did not quiesce within the drain bound\n");
    pass = false;
  }
  std::printf("%s\n",
              pass ? "serve_chaos(replicated): PASS"
                   : "serve_chaos(replicated): FAIL");
  for (const auto& listen : rep_listen) ::unlink(listen.unix_path.c_str());
  ::unlink(socket_path.c_str());
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ls::CliParser cli("serve_chaos",
                    "Socket chaos soak: fault-injected serving must lose "
                    "nothing and hang never");
  cli.add_flag("requests", "10000", "well-behaved predict requests");
  cli.add_flag("concurrency", "8", "well-behaved client threads");
  cli.add_flag("workers", "2", "engine scoring threads");
  cli.add_flag("sv", "400", "support vectors in the synthetic model");
  cli.add_flag("features", "256", "feature dimension");
  cli.add_flag("density", "0.05", "nonzero fraction per row");
  cli.add_flag("chaos", "1", "run the hostile-socket + failpoint thread");
  cli.add_flag("restart", "1", "restart the socket server mid-run");
  cli.add_flag("replicas", "0",
               "run N replica servers behind the consistent-hash router "
               "instead of one bare server (replica kill + rolling "
               "restart replace the single-server restart)");
  cli.add_flag("retries", "8", "client retries per request");
  cli.add_flag("timeout-ms", "500",
               "per-request client budget (also the propagated deadline)");
  cli.add_flag("read-timeout-ms", "300", "server per-frame read budget");
  cli.add_flag("max-shed-rate", "0.2",
               "fail if shed/total exceeds this fraction");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_int("replicas") > 0) return run_replicated(cli);

  // Torn-frame writes hit dead sockets on purpose; that must be an error
  // return, not a process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);
  ls::metrics::set_enabled(true);

  const auto total = static_cast<std::size_t>(cli.get_int("requests"));
  const int concurrency =
      std::max(1, static_cast<int>(cli.get_int("concurrency")));
  const bool chaos = cli.get_int("chaos") != 0;
  const bool restart = cli.get_int("restart") != 0;
  const double timeout_ms = cli.get_double("timeout-ms");
  const double read_timeout_ms = cli.get_double("read-timeout-ms");
  const double max_shed_rate = cli.get_double("max-shed-rate");

  ls::bench::banner("serve_chaos",
                    "torn frames, slow loris, restarts — zero lost requests");

  const std::string model_path = "bench_results/serve_chaos_model.txt";
  std::filesystem::create_directories("bench_results");
  ls::save_model_file(
      model_path,
      synthetic_model(static_cast<index_t>(cli.get_int("sv")),
                      static_cast<index_t>(cli.get_int("features")),
                      cli.get_double("density"), 0xC4A05));
  const std::vector<ls::SparseVector> requests = synthetic_requests(
      256, static_cast<index_t>(cli.get_int("features")),
      cli.get_double("density"), 0x5EED5);

  const std::string socket_path =
      "/tmp/ls_serve_chaos_" + std::to_string(::getpid()) + ".sock";

  ls::serve::ServeOptions eopts;
  eopts.workers = static_cast<int>(cli.get_int("workers"));
  eopts.batcher.max_batch = 64;
  eopts.batcher.max_queue = 2048;
  ls::serve::ServeEngine engine(eopts);
  engine.load_model("chaos", model_path);
  engine.start();

  ls::serve::ServerOptions listen;
  listen.unix_path = socket_path;
  listen.max_connections = 64;
  listen.read_timeout_ms = read_timeout_ms;
  listen.write_timeout_ms = read_timeout_ms;
  listen.idle_timeout_ms = 2000.0;
  auto server = std::make_unique<ls::serve::ServeServer>(engine, listen);
  server->start();

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done_count{0};
  std::atomic<bool> workers_done{false};
  std::atomic<std::size_t> ok{0}, shed{0}, errors{0};
  std::atomic<std::int64_t> retries_used{0};
  std::atomic<std::size_t> chaos_conns{0};
  std::atomic<std::size_t> health_probes{0};
  std::atomic<int> restarts_done{0};

  const ls::Timer wall;

  // --- well-behaved population ---
  std::vector<std::thread> workers;
  for (int t = 0; t < concurrency; ++t) {
    workers.emplace_back([&, t] {
      ls::serve::ClientOptions copts;
      copts.request_timeout_ms = timeout_ms;
      copts.max_retries = static_cast<int>(cli.get_int("retries"));
      copts.backoff_base_ms = 5.0;
      copts.backoff_max_ms = 100.0;
      copts.jitter_seed = 0xC1A05u + static_cast<std::uint64_t>(t);
      std::optional<ls::serve::ServeClient> client;
      std::int64_t observed = 0;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= total) break;
        try {
          if (!client) {
            client =
                ls::serve::ServeClient::connect_unix(socket_path, copts);
            observed = 0;
          }
          const ls::serve::PredictResult r =
              client->predict("chaos", requests[i % requests.size()]);
          retries_used.fetch_add(client->retries_observed() - observed);
          observed = client->retries_observed();
          if (r.status == ls::serve::Status::kOk) {
            ok.fetch_add(1);
          } else if (r.status == ls::serve::Status::kOverloaded ||
                     r.status == ls::serve::Status::kShuttingDown) {
            // kShuttingDown past the retry budget counts as shed: the
            // request was refused, not corrupted.
            shed.fetch_add(1);
          } else {
            errors.fetch_add(1);
          }
        } catch (const std::exception&) {
          errors.fetch_add(1);
          client.reset();
        }
        done_count.fetch_add(1);
      }
    });
  }

  // --- hostile population ---
  std::thread chaos_thread;
  if (chaos) {
    chaos_thread = std::thread([&] {
      ls::Rng rng(0xBADF00D);
      int scenario = 0;
      while (!workers_done.load(std::memory_order_acquire)) {
        if (chaos_attack(socket_path, scenario, rng,
                         read_timeout_ms + 150.0)) {
          chaos_conns.fetch_add(1);
        }
        // Failpoint pulses: one torn frame, then later a burst of read
        // delays. limit bounds each pulse so retries always converge.
        if (scenario % 5 == 1) {
          ls::failpoint::activate(
              "serve.frame.partial",
              {ls::failpoint::Action::kError, 0, 0, 1});
        }
        if (scenario % 7 == 3) {
          ls::failpoint::activate(
              "serve.conn.read",
              {ls::failpoint::Action::kDelay, 3, 0, 8});
        }
        ++scenario;
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      ls::failpoint::clear();
    });
  }

  // --- operator population ---
  std::thread monitor([&] {
    ls::serve::ClientOptions copts;
    copts.request_timeout_ms = 500.0;
    copts.max_retries = 3;
    copts.jitter_seed = 0x4EA17;
    while (!workers_done.load(std::memory_order_acquire)) {
      try {
        ls::serve::ServeClient probe =
            ls::serve::ServeClient::connect_unix(socket_path, copts);
        (void)probe.health();
        (void)probe.stats();
        health_probes.fetch_add(1);
      } catch (const std::exception&) {
        // Mid-restart: the next probe will find the successor.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });

  // --- mid-run restart ---
  std::thread restarter([&] {
    if (!restart) return;
    while (done_count.load(std::memory_order_acquire) < total / 2 &&
           !workers_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (workers_done.load(std::memory_order_acquire)) return;
    server->stop();
    server.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server = std::make_unique<ls::serve::ServeServer>(engine, listen);
    server->start();
    restarts_done.fetch_add(1);
  });

  for (std::thread& th : workers) th.join();
  workers_done.store(true, std::memory_order_release);
  restarter.join();
  if (chaos_thread.joinable()) chaos_thread.join();
  monitor.join();
  const double wall_s = wall.seconds();

  // Graceful teardown exercised on every run: drain must quiesce quickly
  // once the load stops.
  const bool drained = server->drain(5000.0);
  const ls::serve::ServerStats sstats = server->server_stats();
  server->stop();
  engine.stop();
  ls::failpoint::clear();

  const std::size_t accounted = ok.load() + shed.load() + errors.load();
  const double shed_rate =
      total > 0 ? static_cast<double>(shed.load()) /
                      static_cast<double>(total)
                : 0.0;

  ls::Table table({"metric", "value"});
  table.add_row({"requests", std::to_string(total)});
  table.add_row({"ok", std::to_string(ok.load())});
  table.add_row({"shed", std::to_string(shed.load())});
  table.add_row({"errors", std::to_string(errors.load())});
  table.add_row({"client retries", std::to_string(retries_used.load())});
  table.add_row({"shed rate", ls::fmt_double(shed_rate, 4)});
  table.add_row({"rps", ls::fmt_double(
                            wall_s > 0 ? static_cast<double>(total) / wall_s
                                       : 0.0,
                            1)});
  table.add_row({"chaos connections", std::to_string(chaos_conns.load())});
  table.add_row({"health probes", std::to_string(health_probes.load())});
  table.add_row({"restarts", std::to_string(restarts_done.load())});
  table.add_row({"evictions", std::to_string(sstats.evictions_total)});
  table.add_row({"read timeouts", std::to_string(sstats.read_timeouts_total)});
  table.add_row(
      {"idle timeouts", std::to_string(sstats.idle_timeouts_total)});
  table.add_row({"protocol errors",
                 std::to_string(sstats.protocol_errors_total)});
  table.add_row({"open connections", std::to_string(sstats.connections_open)});
  table.add_row({"drained", drained ? "yes" : "NO"});
  std::printf("%s", table.str().c_str());

  ls::CsvWriter csv(ls::bench::csv_path("serve_chaos"),
                    {"requests", "ok", "shed", "errors", "retries",
                     "shed_rate", "rps", "chaos_conns", "restarts",
                     "evictions", "read_timeouts", "protocol_errors"});
  csv.write_row({std::to_string(total), std::to_string(ok.load()),
                 std::to_string(shed.load()), std::to_string(errors.load()),
                 std::to_string(retries_used.load()),
                 ls::fmt_double(shed_rate, 4),
                 ls::fmt_double(wall_s > 0
                                    ? static_cast<double>(total) / wall_s
                                    : 0.0,
                                1),
                 std::to_string(chaos_conns.load()),
                 std::to_string(restarts_done.load()),
                 std::to_string(sstats.evictions_total),
                 std::to_string(sstats.read_timeouts_total),
                 std::to_string(sstats.protocol_errors_total)});
  ls::bench::finish(csv, "serve_chaos");

  bool pass = true;
  if (errors.load() != 0) {
    std::printf("FAIL: %zu well-behaved requests errored (want 0)\n",
                errors.load());
    pass = false;
  }
  if (accounted != total) {
    std::printf("FAIL: accounted %zu of %zu requests (lost %zd)\n",
                accounted, total,
                static_cast<std::ptrdiff_t>(total) -
                    static_cast<std::ptrdiff_t>(accounted));
    pass = false;
  }
  if (shed_rate > max_shed_rate) {
    std::printf("FAIL: shed rate %.4f exceeds bound %.4f\n", shed_rate,
                max_shed_rate);
    pass = false;
  }
  if (!drained) {
    std::printf("FAIL: server did not quiesce within the drain bound\n");
    pass = false;
  }
  std::printf("%s\n", pass ? "serve_chaos: PASS" : "serve_chaos: FAIL");
  ::unlink(socket_path.c_str());
  return pass ? 0 : 1;
}
