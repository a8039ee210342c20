// serve_tool — the standalone prediction-serving daemon.
//
// Hosts one or more trained SVM model files behind the framed socket
// protocol (see src/serve/protocol.hpp) and serves predict / reload /
// stats / ping / health / shutdown requests until a client asks it to stop
// or the process receives SIGTERM/SIGINT — either way it drains first:
// the listener closes, in-flight requests finish (bounded by --drain-ms)
// and only then do the worker pool and the handler threads come down.
//
//   # train something first (writes /tmp/ls_demo_model.txt)
//   ./svm_tool --mode demo --dataset breast_cancer
//
//   # serve it on a unix socket
//   ./serve_tool --socket /tmp/ls_serve.sock --models demo=/tmp/ls_demo_model.txt
//
//   # talk to it from another terminal
//   ./serve_client --socket /tmp/ls_serve.sock --mode ping
//   ./serve_client --socket /tmp/ls_serve.sock --mode health
//   ./serve_client --socket /tmp/ls_serve.sock --mode bench --model demo
//       --data /tmp/ls_demo_test.libsvm   (one line)
//   ./serve_client --socket /tmp/ls_serve.sock --mode shutdown
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/observability.hpp"
#include "sched/scheduler.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"

namespace {

/// Self-pipe for SIGTERM/SIGINT: the handler only writes one byte (the
/// single async-signal-safe thing worth doing) and a watcher thread runs
/// the actual drain sequence outside signal context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 1;
  // Best-effort: if the pipe is already closed we are shutting down anyway.
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

/// Parses "name=path[,name=path...]" into (name, path) pairs.
std::vector<std::pair<std::string, std::string>> parse_models(
    const std::string& spec) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    LS_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < item.size(),
             "--models expects name=path[,name=path...], got '" << item
                                                                << "'");
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    pos = comma + 1;
  }
  LS_CHECK(!out.empty(), "--models must name at least one model");
  return out;
}

int run(int argc, char** argv) {
  ls::CliParser cli("serve_tool",
                    "Persistent prediction-serving daemon with request "
                    "batching, admission control, graceful drain and hot "
                    "model reload");
  cli.add_flag("models", "", "models to host: name=path[,name=path...]");
  cli.add_flag("socket", "", "unix-domain socket path to listen on");
  cli.add_flag("port", "-1",
               "loopback TCP port to listen on instead of --socket "
               "(0 = kernel-assigned, printed at startup)");
  cli.add_flag("workers", "2", "scoring worker threads");
  cli.add_flag("max-batch", "64", "requests coalesced per SMSV flush");
  cli.add_flag("max-queue", "1024",
               "admission limit: queued requests beyond this are shed");
  cli.add_flag("latency-budget-ms", "0",
               "shed requests older than this at dequeue (0 = off)");
  cli.add_flag("max-connections", "256",
               "connection cap; at the cap the oldest idle connection is "
               "evicted (0 = unlimited)");
  cli.add_flag("read-timeout-ms", "5000",
               "per-frame receive budget once the first byte arrived "
               "(0 = unbounded)");
  cli.add_flag("write-timeout-ms", "5000",
               "per-frame send budget (0 = unbounded)");
  cli.add_flag("idle-timeout-ms", "0",
               "close connections idle between frames for this long "
               "(0 = keep forever)");
  cli.add_flag("drain-ms", "5000",
               "bound on finishing in-flight work after SIGTERM/SIGINT");
  cli.add_flag("policy", "empirical",
               "layout policy: empirical|heuristic|fixed");
  cli.add_flag("fixed-format", "CSR",
               "layout used when --policy fixed (DEN|CSR|COO|ELL|DIA)");
  cli.add_flag("reschedule", "false",
               "enable the online layout bandit: sample live per-layout "
               "timings and re-materialise models in a decisively better "
               "layout off-path");
  cli.add_flag("reschedule-interval-ms", "100",
               "cadence of the background layout-policy thread");
  cli.add_flag("reschedule-threshold", "1.2",
               "switch only when the candidate layout is at least this "
               "factor faster than the current one");
  cli.add_flag("reschedule-min-obs", "8",
               "batches observed on the current layout before the bandit "
               "may switch away from it");
  cli.add_flag("reschedule-max-switches", "4",
               "per-model lifetime budget of online layout switches");
  cli.add_flag("reschedule-hysteresis-ms", "500",
               "minimum dwell time between switches of the same model");
  ls::add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const ls::ObservabilityScope observability(cli);

  ls::serve::ServeOptions opts;
  opts.workers = static_cast<int>(cli.get_int("workers"));
  opts.batcher.max_batch = static_cast<ls::index_t>(cli.get_int("max-batch"));
  opts.batcher.max_queue =
      static_cast<std::size_t>(cli.get_int("max-queue"));
  opts.latency_budget_ms = cli.get_double("latency-budget-ms");
  opts.sched.policy = ls::parse_policy(cli.get("policy"));
  opts.sched.fixed_format = ls::parse_format(cli.get("fixed-format"));
  opts.reschedule.enabled = cli.get_bool("reschedule");
  opts.reschedule.interval_ms = cli.get_double("reschedule-interval-ms");
  opts.reschedule.switch_threshold = cli.get_double("reschedule-threshold");
  opts.reschedule.min_observations = cli.get_int("reschedule-min-obs");
  opts.reschedule.max_switches =
      static_cast<ls::index_t>(cli.get_int("reschedule-max-switches"));
  opts.reschedule.hysteresis_ms = cli.get_double("reschedule-hysteresis-ms");

  ls::serve::ServerOptions listen;
  listen.unix_path = cli.get("socket");
  listen.tcp_port = static_cast<int>(cli.get_int("port"));
  listen.max_connections =
      static_cast<std::size_t>(cli.get_int("max-connections"));
  listen.read_timeout_ms = cli.get_double("read-timeout-ms");
  listen.write_timeout_ms = cli.get_double("write-timeout-ms");
  listen.idle_timeout_ms = cli.get_double("idle-timeout-ms");
  const double drain_ms = cli.get_double("drain-ms");
  LS_CHECK(!listen.unix_path.empty() || listen.tcp_port >= 0,
           "pass --socket PATH or --port N (0 = kernel-assigned)");

  ls::serve::ServeEngine engine(opts);
  for (const auto& [name, path] : parse_models(cli.get("models"))) {
    engine.load_model(name, path);
    const auto m = engine.model(name);
    std::printf("loaded %-16s v%lld  layout=%s  from %s\n", name.c_str(),
                static_cast<long long>(m->version),
                std::string(ls::format_name(m->predictor.layout())).c_str(),
                path.c_str());
  }
  engine.start();

  ls::serve::ServeServer server(engine, listen);
  server.start();
  if (!listen.unix_path.empty()) {
    std::printf("serving on unix:%s  (workers=%d batch=%d queue=%zu)\n",
                listen.unix_path.c_str(), opts.workers,
                static_cast<int>(opts.batcher.max_batch),
                opts.batcher.max_queue);
  } else {
    std::printf("serving on tcp:127.0.0.1:%d  (workers=%d batch=%d "
                "queue=%zu)\n",
                server.port(), opts.workers,
                static_cast<int>(opts.batcher.max_batch),
                opts.batcher.max_queue);
  }
  if (opts.reschedule.enabled) {
    std::printf("online rescheduling on (interval=%gms threshold=%g "
                "min-obs=%lld max-switches=%d hysteresis=%gms)\n",
                opts.reschedule.interval_ms,
                opts.reschedule.switch_threshold,
                static_cast<long long>(opts.reschedule.min_observations),
                static_cast<int>(opts.reschedule.max_switches),
                opts.reschedule.hysteresis_ms);
  }
  std::fflush(stdout);

  // A dead peer must surface as a write error on its own connection, not
  // kill the whole daemon.
  std::signal(SIGPIPE, SIG_IGN);
  LS_CHECK(::pipe(g_signal_pipe) == 0, "serve_tool: pipe() failed");
  struct sigaction sa{};
  sa.sa_handler = on_terminate_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::thread signal_watcher([&] {
    char byte = 0;
    ssize_t n;
    do {
      n = ::read(g_signal_pipe[0], &byte, 1);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;  // write end closed: normal shutdown, nothing to do
    std::printf("signal received, draining (bound %gms)...\n", drain_ms);
    std::fflush(stdout);
    const bool quiesced = server.drain(drain_ms);
    std::printf("drain %s in %.3fs\n",
                quiesced ? "complete" : "timed out",
                server.server_stats().drain_seconds);
    std::fflush(stdout);
    server.stop();  // wakes server.wait() below
  });

  server.wait();  // until kShutdownReq, SIGTERM/SIGINT drain, or stop()

  // Unblock the watcher if it is still parked on the pipe (shutdown came
  // through the protocol verb), then finish teardown in one place.
  ::close(g_signal_pipe[1]);
  g_signal_pipe[1] = -1;
  signal_watcher.join();
  ::close(g_signal_pipe[0]);
  g_signal_pipe[0] = -1;

  server.stop();
  engine.stop();

  std::printf("--- final stats ---\n%s%s", engine.stats_text().c_str(),
              server.stats_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_tool: %s\n", e.what());
    return 1;
  }
}
