// train_tool — the streaming trainer daemon.
//
// Ingests labeled examples over the framed socket protocol (kIngest verb),
// keeps a bounded sliding window per model, retrains on a steady-clock
// cadence with the SMO solver warm-started from the previous alpha vector,
// writes each accepted model atomically (CRC-verified), and publishes it
// into the serve tier with a reload — against a single serve daemon or a
// router (fleet-wide fan-out). The full walkthrough lives in README.md
// ("Continuous learning").
//
//   # trainer listening on one socket, publishing into a serve daemon
//   ./train_tool --socket /tmp/ls_train.sock --models demo=/tmp/model.txt
//       --publish-socket /tmp/ls_serve.sock --retrain-interval-ms 500
//
//   # stream examples into it
//   ./serve_client --socket /tmp/ls_train.sock --mode ingest --model demo
//       --data /tmp/ls_demo_train.libsvm
//
//   # watch versions move
//   ./serve_client --socket /tmp/ls_train.sock --mode models
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
#include "formats/format.hpp"
#include "serve/server.hpp"
#include "train/continuous_trainer.hpp"
#include "train/handler.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

extern "C" void on_terminate_signal(int) {
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

/// Parses "name=path[,name=path...]" into (name, model_path) pairs.
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
  ls::CliParser cli("train_tool",
                    "Streaming trainer daemon: ingests labeled examples, "
                    "retrains on a cadence with warm-started SMO, writes "
                    "CRC-verified checkpoints and publishes accepted models "
                    "into the serve tier via reload");
  cli.add_flag("models", "",
               "training streams: name=model_path[,name=model_path...] "
               "(model_path is where accepted models are written — host "
               "the same path in serve_tool)");
  cli.add_flag("socket", "", "unix-domain socket path to listen on");
  cli.add_flag("port", "-1",
               "loopback TCP port to listen on instead of --socket "
               "(0 = kernel-assigned)");
  cli.add_flag("window", "4096", "sliding-window capacity in examples");
  cli.add_flag("retrain-interval-ms", "1000",
               "retrain cadence per model (steady clock)");
  cli.add_flag("min-new", "1",
               "skip a cadence tick unless at least this many new examples "
               "arrived since the last retrain");
  cli.add_flag("checkpoint-interval", "256",
               "solver iterations between mid-solve checkpoint saves");
  cli.add_flag("no-wal", "false",
               "disable the ingest journal: acked examples are memory-only "
               "and a crash loses the window (by default every model "
               "journals to <model_path>.wal and replays it on startup)");
  cli.add_flag("wal-sync", "always",
               "journal fsync policy: always (acked implies durable) | "
               "rotate (fsync per segment) | never (OS decides)");
  cli.add_flag("wal-segment-bytes", "262144", "journal segment size");
  cli.add_flag("publish-socket", "",
               "serve daemon or router unix socket to publish reloads to");
  cli.add_flag("publish-port", "-1",
               "serve daemon or router TCP port to publish reloads to");
  cli.add_flag("publish-timeout-ms", "5000", "per-publish request budget");
  cli.add_flag("kernel", "linear", "kernel type (linear|poly|gaussian|...)");
  cli.add_flag("gamma", "0.5", "kernel gamma");
  cli.add_flag("c", "1", "SVM box constraint C");
  cli.add_flag("tolerance", "0.001", "KKT tolerance");
  cli.add_flag("layout", "CSR",
               "training-matrix layout (DEN|CSR|COO|ELL|DIA)");
  cli.add_flag("max-connections", "256", "connection cap (0 = unlimited)");
  cli.add_flag("read-timeout-ms", "5000", "per-frame receive budget");
  cli.add_flag("write-timeout-ms", "5000", "per-frame send budget");
  cli.add_flag("idle-timeout-ms", "0",
               "close connections idle this long (0 = keep forever)");
  cli.add_flag("drain-ms", "5000",
               "bound on finishing in-flight work after SIGTERM/SIGINT");
  ls::add_observability_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const ls::ObservabilityScope observability(cli);

  ls::train::TrainerOptions opts;
  opts.svm.kernel.type = ls::parse_kernel(cli.get("kernel"));
  opts.svm.kernel.gamma = cli.get_double("gamma");
  opts.svm.c = cli.get_double("c");
  opts.svm.tolerance = cli.get_double("tolerance");
  opts.layout = ls::parse_format(cli.get("layout"));
  opts.retrain_interval_ms = cli.get_double("retrain-interval-ms");
  opts.min_new_examples = static_cast<std::size_t>(cli.get_int("min-new"));
  opts.checkpoint_interval =
      static_cast<ls::index_t>(cli.get_int("checkpoint-interval"));
  opts.publish_unix = cli.get("publish-socket");
  opts.publish_tcp = static_cast<int>(cli.get_int("publish-port"));
  opts.publish_timeout_ms = cli.get_double("publish-timeout-ms");
  const std::string wal_sync = cli.get("wal-sync");
  if (wal_sync == "always") {
    opts.wal_sync = ls::WalSyncPolicy::kAlways;
  } else if (wal_sync == "rotate") {
    opts.wal_sync = ls::WalSyncPolicy::kRotate;
  } else if (wal_sync == "never") {
    opts.wal_sync = ls::WalSyncPolicy::kNever;
  } else {
    LS_CHECK(false, "--wal-sync must be always|rotate|never, got '"
                        << wal_sync << "'");
  }
  opts.wal_segment_bytes =
      static_cast<std::size_t>(cli.get_int("wal-segment-bytes"));

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

  ls::train::ContinuousTrainer trainer(opts);
  const auto window = static_cast<std::size_t>(cli.get_int("window"));
  const bool no_wal = cli.get_bool("no-wal");
  for (const auto& [name, path] : parse_models(cli.get("models"))) {
    ls::train::TrainerModelConfig cfg;
    cfg.name = name;
    cfg.model_path = path;
    cfg.window_capacity = window;
    if (!no_wal) cfg.wal_dir = path + ".wal";
    trainer.add_model(cfg);
    const ls::train::TrainerModelStats ms = trainer.model_stats(name);
    std::printf("training %-16s -> %s  (window=%zu journal=%s replayed=%lld)\n",
                name.c_str(), path.c_str(), window,
                no_wal ? "off"
                       : ms.journal_degraded ? "degraded" : cfg.wal_dir.c_str(),
                static_cast<long long>(ms.journal_replayed));
  }
  trainer.start();

  ls::train::TrainFrameHandler handler(trainer);
  ls::serve::ServeServer server(handler, listen);
  server.start();
  if (!listen.unix_path.empty()) {
    std::printf("ingesting on unix:%s  (retrain=%gms min-new=%zu "
                "publish=%s)\n",
                listen.unix_path.c_str(), opts.retrain_interval_ms,
                opts.min_new_examples,
                opts.publish_unix.empty()
                    ? (opts.publish_tcp >= 0 ? "tcp" : "off")
                    : opts.publish_unix.c_str());
  } else {
    std::printf("ingesting on tcp:127.0.0.1:%d  (retrain=%gms min-new=%zu)\n",
                server.port(), opts.retrain_interval_ms,
                opts.min_new_examples);
  }
  std::fflush(stdout);

  std::signal(SIGPIPE, SIG_IGN);
  LS_CHECK(::pipe(g_signal_pipe) == 0, "train_tool: pipe() failed");
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
    if (n <= 0) return;
    std::printf("signal received, draining (bound %gms)...\n", drain_ms);
    std::fflush(stdout);
    const bool quiesced = server.drain(drain_ms);
    std::printf("drain %s in %.3fs\n", quiesced ? "complete" : "timed out",
                server.server_stats().drain_seconds);
    std::fflush(stdout);
    server.stop();
  });

  server.wait();

  ::close(g_signal_pipe[1]);
  g_signal_pipe[1] = -1;
  signal_watcher.join();
  ::close(g_signal_pipe[0]);
  g_signal_pipe[0] = -1;

  server.stop();
  trainer.stop();

  std::printf("--- final stats ---\n%s%s", trainer.stats_text().c_str(),
              server.stats_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_tool: %s\n", e.what());
    return 1;
  }
}
