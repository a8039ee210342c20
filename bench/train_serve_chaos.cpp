// train_serve_chaos — the continuous train-and-serve loop under fire.
//
// The question: does the closed loop (ingest -> windowed retrain ->
// checkpointed SMO -> atomic model publish -> live reload into a serving
// engine) survive the failures it was designed for, with zero lost
// requests and strictly monotone served model content?
//
// Four phases, one verdict:
//
//   A  bootstrap    stream the first examples into a ContinuousTrainer,
//                   train once, host the accepted model file in a
//                   ServeEngine behind a real unix-socket ServeServer;
//   B  live loop    predict-burst threads hammer the socket while the
//                   ingest stream keeps flowing and the trainer's cadence
//                   thread retrains and publishes reloads into the same
//                   socket mid-burst. A monitor thread samples the served
//                   (version, content generation) pair continuously.
//                   Asserts: zero errored/lost predicts, >=1 reload landed
//                   during the burst, and the sampled pairs never go
//                   backwards;
//   C  crash+resume a checkpoint-save failpoint kills a retrain mid-save.
//                   The trainer object is destroyed ("process death") and
//                   a fresh one replays the identical stream — the ids
//                   sidecar matches, so the solve resumes from the last
//                   CRC-valid checkpoint instead of starting cold;
//   D  fairness     weighted-fair batcher, one worker, slowed scoring:
//                   tenant A floods 20x tenant B's traffic up front,
//                   tenant B's paced requests must still meet their
//                   latency budget (no starvation in either direction);
//   E  durable      a journaling trainer is SIGKILLed mid-ingest (forked
//      ingest       child; in-process stand-in under TSan, where fork is
//                   unsafe). A fresh trainer on the same journal replays:
//                   zero acked examples lost, the rebuilt window's content
//                   digest matches a no-crash control run, and retried
//                   ingests of already-acked ids are absorbed as
//                   duplicates with the digest unchanged;
//   F  disk full    every journal append fails (wal.append failpoint =
//                   ENOSPC stand-in). Ingest keeps acking in a counted
//                   degraded memory-only mode — no crash — and once
//                   writes succeed the journal re-arms by rewriting
//                   itself from the live window, proven by a restart
//                   replaying everything including the degraded-era
//                   examples.
//
// Exit is nonzero on any failed assertion; scripts/check.sh runs this
// under a timeout, plain and under TSan.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/failpoint.hpp"
#include "common/fs_atomic.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "svm/serialize.hpp"
#include "train/continuous_trainer.hpp"

namespace {

using ls::index_t;
using ls::real_t;

int g_failures = 0;

#define EXPECT_MSG(cond, ...)                  \
  do {                                         \
    if (!(cond)) {                             \
      ++g_failures;                            \
      std::printf("FAIL: " __VA_ARGS__);       \
      std::printf("  [%s]\n", #cond);          \
    }                                          \
  } while (0)

struct Example {
  ls::SparseVector x;
  real_t label;
};

/// Deterministic two-class stream. The clusters overlap on purpose: a
/// noisy margin keeps many support vectors active, so the SMO solve runs
/// long enough to write several mid-solve checkpoints (phase C needs at
/// least three saves before the injected failure).
std::vector<Example> make_stream(std::size_t n, index_t d,
                                 std::uint64_t seed) {
  ls::Rng rng(seed);
  std::vector<Example> out;
  out.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const real_t label = rng.bernoulli(0.5) ? 1.0 : -1.0;
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (!rng.bernoulli(0.5)) continue;
      idx.push_back(c);
      val.push_back(rng.normal() + 0.3 * label);
    }
    if (idx.empty()) {
      idx.push_back(0);
      val.push_back(label);
    }
    out.push_back({ls::SparseVector(std::move(idx), std::move(val)), label});
  }
  return out;
}

void ingest_all(ls::train::ContinuousTrainer& trainer,
                const std::string& name, const std::vector<Example>& stream,
                std::size_t from, std::size_t to) {
  for (std::size_t r = from; r < to && r < stream.size(); ++r) {
    std::string message;
    const ls::serve::Status s =
        trainer.ingest(name, stream[r].x, stream[r].label, &message);
    EXPECT_MSG(s == ls::serve::Status::kOk, "ingest %zu rejected: %s %s\n",
               r, ls::serve::status_name(s), message.c_str());
  }
}

double percentile(std::vector<double>& ms, double p) {
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  return ms[static_cast<std::size_t>(p * static_cast<double>(ms.size() - 1))];
}

int run(int argc, char** argv) {
  ls::CliParser cli("train_serve_chaos",
                    "Chaos soak of the continuous train-and-serve loop");
  cli.add_flag("features", "24", "stream dimensionality");
  cli.add_flag("bootstrap", "128", "examples before the first train");
  cli.add_flag("stream", "600", "examples streamed during the burst");
  cli.add_flag("concurrency", "4", "predict-burst client threads");
  cli.add_flag("publishes", "2", "reloads that must land mid-burst");
  cli.add_flag("flood", "800", "tenant A requests in the fairness phase");
  cli.add_flag("paced", "40", "tenant B requests in the fairness phase");
  cli.add_flag("b-p95-budget-ms", "400",
               "tenant B p95 bound in the fairness phase");
  cli.add_flag("seed", "42", "stream RNG seed");
  cli.add_flag("kill", "auto",
               "phase E kill mode: fork (real SIGKILL) | inproc (destroy "
               "the trainer object) | auto (fork, except under TSan)");
  if (!cli.parse(argc, argv)) return 0;

  const auto d = static_cast<index_t>(cli.get_int("features"));
  const auto bootstrap = static_cast<std::size_t>(cli.get_int("bootstrap"));
  const auto stream_n = static_cast<std::size_t>(cli.get_int("stream"));
  const int concurrency =
      std::max(1, static_cast<int>(cli.get_int("concurrency")));
  const auto want_publishes =
      static_cast<std::int64_t>(cli.get_int("publishes"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("ls_train_serve_chaos." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string model_path = (dir / "stream_model.txt").string();
  const std::string socket_path = (dir / "serve.sock").string();

  // ---- Phase A: bootstrap the loop -------------------------------------
  std::printf("[A] bootstrap: %zu examples -> first model\n", bootstrap);
  const std::vector<Example> stream =
      make_stream(bootstrap + stream_n, d, seed);

  ls::train::TrainerOptions topts;
  topts.svm.kernel.type = ls::KernelType::kGaussian;
  topts.svm.kernel.gamma = 0.5;
  topts.svm.c = 4.0;
  topts.svm.tolerance = 1e-3;
  topts.layout = ls::Format::kCSR;
  topts.retrain_interval_ms = 50.0;
  topts.min_new_examples = 10;
  topts.checkpoint_interval = 64;
  topts.publish_unix = socket_path;
  topts.publish_timeout_ms = 2000.0;

  auto trainer = std::make_unique<ls::train::ContinuousTrainer>(topts);
  {
    ls::train::TrainerModelConfig cfg;
    cfg.name = "stream";
    cfg.model_path = model_path;
    cfg.window_capacity = 512;
    trainer->add_model(cfg);
  }
  ingest_all(*trainer, "stream", stream, 0, bootstrap);
  // The serve tier is not up yet, so this first publish fails — that is
  // the expected cold-start order (trainer first, then serve), and the
  // failure is counted, not fatal.
  EXPECT_MSG(trainer->train_once("stream"), "bootstrap train failed\n");
  EXPECT_MSG(ls::file_exists(model_path),
             "bootstrap produced no model file\n");

  ls::serve::ServeOptions sopts;
  sopts.workers = 2;
  sopts.batcher.max_batch = 16;
  sopts.batcher.max_queue = 4096;
  auto engine = std::make_unique<ls::serve::ServeEngine>(sopts);
  engine->load_model("stream", model_path);
  engine->start();
  ls::serve::ServerOptions lopts;
  lopts.unix_path = socket_path;
  auto server = std::make_unique<ls::serve::ServeServer>(*engine, lopts);
  server->start();

  // ---- Phase B: predict burst vs live retrain-and-publish --------------
  std::printf("[B] burst: %d clients vs cadence retrains publishing "
              "reloads into the same socket\n", concurrency);
  const std::int64_t gen0 = engine->model("stream")->content_gen;
  std::atomic<bool> burst_on{true};
  std::atomic<bool> monotone{true};
  std::atomic<std::int64_t> last_seen_gen{0};

  // Monitor: the served (version, content generation) pair must never go
  // backwards while reloads land mid-burst.
  std::thread monitor([&] {
    std::int64_t last_version = 0, last_gen = 0;
    while (burst_on.load(std::memory_order_acquire)) {
      const auto m = engine->model("stream");
      if (m) {
        if (m->version < last_version || m->content_gen < last_gen) {
          monotone.store(false, std::memory_order_release);
        }
        last_version = m->version;
        last_gen = m->content_gen;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    last_seen_gen.store(last_gen, std::memory_order_release);
  });

  std::thread ingester([&] {
    for (std::size_t r = bootstrap; r < stream.size(); ++r) {
      (void)trainer->ingest("stream", stream[r].x, stream[r].label);
      if (r % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  trainer->start();

  struct BurstCounts {
    std::size_t ok = 0, shed = 0, errors = 0, lost = 0;
    std::vector<double> latencies_ms;
  };
  std::vector<BurstCounts> burst(static_cast<std::size_t>(concurrency));
  std::vector<std::thread> clients;
  for (int t = 0; t < concurrency; ++t) {
    clients.emplace_back([&, t] {
      BurstCounts& mine = burst[static_cast<std::size_t>(t)];
      ls::serve::ClientOptions copts;
      copts.max_retries = 5;
      copts.request_timeout_ms = 2000.0;
      copts.jitter_seed ^= static_cast<std::uint64_t>(t + 1) * 0x9E37ULL;
      try {
        ls::serve::ServeClient client =
            ls::serve::ServeClient::connect_unix(socket_path, copts);
        std::size_t r = static_cast<std::size_t>(t);
        while (burst_on.load(std::memory_order_acquire)) {
          const ls::Timer timer;
          try {
            const ls::serve::PredictResult res =
                client.predict("stream", stream[r % stream.size()].x);
            mine.latencies_ms.push_back(timer.millis());
            if (res.status == ls::serve::Status::kOk) {
              ++mine.ok;
            } else if (res.status == ls::serve::Status::kOverloaded) {
              ++mine.shed;
            } else {
              ++mine.errors;
            }
          } catch (const std::exception&) {
            ++mine.lost;
          }
          r += static_cast<std::size_t>(concurrency);
        }
      } catch (const std::exception&) {
        ++mine.lost;  // could not even connect
      }
    });
  }

  // Run the burst until enough publishes landed (each one is a live
  // reload arriving through the same socket the clients hammer).
  const ls::Timer burst_wall;
  while (trainer->model_stats("stream").publishes_total < want_publishes &&
         burst_wall.seconds() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ingester.join();
  // One more beat so a reload that just landed overlaps live predicts.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  burst_on.store(false, std::memory_order_release);
  for (std::thread& th : clients) th.join();
  monitor.join();
  trainer->stop();

  std::size_t ok = 0, shed = 0, errors = 0, lost = 0;
  std::vector<double> all_ms;
  for (const BurstCounts& b : burst) {
    ok += b.ok;
    shed += b.shed;
    errors += b.errors;
    lost += b.lost;
    all_ms.insert(all_ms.end(), b.latencies_ms.begin(),
                  b.latencies_ms.end());
  }
  const ls::train::TrainerModelStats tstats =
      trainer->model_stats("stream");
  std::printf("[B] predicts ok=%zu shed=%zu errors=%zu lost=%zu  "
              "trains=%lld publishes=%lld publish_failures=%lld\n",
              ok, shed, errors, lost,
              static_cast<long long>(tstats.trains_total),
              static_cast<long long>(tstats.publishes_total),
              static_cast<long long>(tstats.publish_failures_total));
  EXPECT_MSG(errors == 0, "burst predicts errored: %zu\n", errors);
  EXPECT_MSG(lost == 0, "burst predicts lost: %zu\n", lost);
  EXPECT_MSG(ok > 0, "burst scored nothing\n");
  EXPECT_MSG(tstats.publishes_total >= want_publishes,
             "only %lld publishes landed (want >= %lld)\n",
             static_cast<long long>(tstats.publishes_total),
             static_cast<long long>(want_publishes));
  EXPECT_MSG(monotone.load(), "served version/generation went backwards\n");
  EXPECT_MSG(last_seen_gen.load() > gen0,
             "no reload landed during the burst (gen %lld -> %lld)\n",
             static_cast<long long>(gen0),
             static_cast<long long>(last_seen_gen.load()));

  // ---- Phase C: kill mid-save, restart, resume from checkpoint ---------
  std::printf("[C] crash the trainer mid-checkpoint-save, restart, "
              "replay, resume\n");
  ls::train::TrainerOptions copts_c;
  copts_c.svm.kernel.type = ls::KernelType::kGaussian;
  copts_c.svm.kernel.gamma = 0.5;
  copts_c.svm.c = 8.0;
  copts_c.svm.tolerance = 1e-4;
  copts_c.checkpoint_interval = 5;  // several saves before the kill
  const std::string resume_path = (dir / "resume_model.txt").string();
  const std::string control_path = (dir / "control_model.txt").string();
  const std::string ckpt_path = resume_path + ".ckpt";
  const std::vector<Example> stream_c = make_stream(300, d, seed + 1);

  const auto add_resume_model = [&](ls::train::ContinuousTrainer& t,
                                    const std::string& path) {
    ls::train::TrainerModelConfig cfg;
    cfg.name = "resume";
    cfg.model_path = path;
    cfg.window_capacity = 512;
    t.add_model(cfg);
  };

  index_t cold_iterations = 0;
  {
    ls::train::ContinuousTrainer control(copts_c);
    add_resume_model(control, control_path);
    ingest_all(control, "resume", stream_c, 0, stream_c.size());
    EXPECT_MSG(control.train_once("resume"), "control solve failed\n");
    cold_iterations = control.model_stats("resume").last_iterations;
  }

  {
    ls::train::ContinuousTrainer victim(copts_c);
    add_resume_model(victim, resume_path);
    ingest_all(victim, "resume", stream_c, 0, stream_c.size());
    ls::failpoint::Spec spec;
    spec.action = ls::failpoint::Action::kError;
    spec.skip = 2;   // let two checkpoint saves land, kill the third
    spec.limit = 1;
    ls::failpoint::Scoped fp("svm.checkpoint.save", spec);
    EXPECT_MSG(!victim.train_once("resume"),
               "train survived the mid-save kill\n");
    EXPECT_MSG(ls::failpoint::trigger_count("svm.checkpoint.save") == 1,
               "checkpoint-save failpoint never fired (solve too short?)\n");
    EXPECT_MSG(victim.model_stats("resume").train_failures_total == 1,
               "mid-save kill not counted as a train failure\n");
    EXPECT_MSG(ls::file_exists(ckpt_path),
               "no CRC-valid checkpoint survived the kill\n");
  }  // "process death": the trainer object and all its state are gone

  {
    ls::train::ContinuousTrainer reborn(copts_c);
    add_resume_model(reborn, resume_path);
    // Replay the identical stream: ids are deterministic (k-th append to a
    // fresh window gets id k), so the ids sidecar written before the
    // killed solve matches and the checkpoint is accepted.
    ingest_all(reborn, "resume", stream_c, 0, stream_c.size());
    EXPECT_MSG(reborn.train_once("resume"), "post-restart train failed\n");
    const ls::train::TrainerModelStats rs = reborn.model_stats("resume");
    EXPECT_MSG(rs.last_resumed_from_checkpoint,
               "restart did not resume from the checkpoint\n");
    EXPECT_MSG(rs.last_iterations <= cold_iterations,
               "resumed solve cost more than cold (%lld > %lld)\n",
               static_cast<long long>(rs.last_iterations),
               static_cast<long long>(cold_iterations));
    EXPECT_MSG(!ls::file_exists(ckpt_path),
               "converged solve left its checkpoint behind\n");
    try {
      (void)ls::load_model_file(resume_path);
    } catch (const std::exception& e) {
      EXPECT_MSG(false, "resumed model file unreadable: %s\n", e.what());
    }
  }

  // ---- Phase D: weighted-fair queuing under a tenant flood -------------
  const auto flood = static_cast<std::size_t>(cli.get_int("flood"));
  const auto paced = static_cast<std::size_t>(cli.get_int("paced"));
  const double b_budget_ms = cli.get_double("b-p95-budget-ms");
  std::printf("[D] fairness: tenant A floods %zu, tenant B paces %zu "
              "(B p95 budget %.0fms)\n", flood, paced, b_budget_ms);
  server->stop();
  server.reset();
  engine->stop();
  engine.reset();

  ls::serve::ServeOptions fopts;
  fopts.workers = 1;  // one scoring lane: extraction order IS the policy
  fopts.batcher.max_batch = 8;
  fopts.batcher.max_queue = 8192;
  fopts.batcher.fair = true;
  ls::serve::ServeEngine fair_engine(fopts);
  fair_engine.load_model("tenantA", model_path);
  fair_engine.load_model("tenantB", model_path);
  fair_engine.start();

  std::vector<std::future<ls::serve::PredictResult>> flood_futures;
  std::vector<double> b_ms;
  std::size_t b_ok = 0;
  {
    // Slow every batch down so queueing policy, not compute, dominates.
    ls::failpoint::Spec slow;
    slow.action = ls::failpoint::Action::kDelay;
    slow.delay_ms = 10;
    ls::failpoint::Scoped fp("serve.batch.compute", slow);

    flood_futures.reserve(flood);
    for (std::size_t r = 0; r < flood; ++r) {
      flood_futures.push_back(fair_engine.predict_async(
          "tenantA", stream[r % stream.size()].x));
    }
    for (std::size_t r = 0; r < paced; ++r) {
      const ls::Timer timer;
      const ls::serve::PredictResult res = fair_engine.predict(
          "tenantB", stream[r % stream.size()].x);
      b_ms.push_back(timer.millis());
      if (res.status == ls::serve::Status::kOk) ++b_ok;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::size_t a_ok = 0;
    for (auto& f : flood_futures) {
      if (f.get().status == ls::serve::Status::kOk) ++a_ok;
    }
    const double b_p95 = percentile(b_ms, 0.95);
    std::printf("[D] tenantA ok=%zu/%zu  tenantB ok=%zu/%zu p95=%.1fms\n",
                a_ok, flood, b_ok, paced, b_p95);
    EXPECT_MSG(b_ok == paced, "tenant B starved: %zu of %zu ok\n", b_ok,
               paced);
    EXPECT_MSG(a_ok == flood, "tenant A starved: %zu of %zu ok\n", a_ok,
               flood);
    EXPECT_MSG(b_p95 < b_budget_ms,
               "tenant B p95 %.1fms blew its %.0fms budget under the "
               "tenant A flood\n", b_p95, b_budget_ms);
  }
  fair_engine.stop();

  // ---- Phase E: SIGKILL mid-ingest, restart, durable replay ------------
  std::string kill_mode = cli.get("kill");
  if (kill_mode == "auto") {
#if defined(__SANITIZE_THREAD__)
    kill_mode = "inproc";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
    kill_mode = "inproc";
#else
    kill_mode = "fork";
#endif
#else
    kill_mode = "fork";
#endif
  }
  EXPECT_MSG(kill_mode == "fork" || kill_mode == "inproc",
             "--kill must be fork|inproc|auto\n");
  std::printf("[E] durable ingest: %s-kill a journaling trainer "
              "mid-burst, restart, replay\n", kill_mode.c_str());

  const std::vector<Example> stream_e = make_stream(400, d, seed + 2);
  constexpr std::size_t kDurableWindow = 128;
  const std::string durable_path = (dir / "durable_model.txt").string();
  ls::train::TrainerOptions eopts;
  eopts.svm = topts.svm;
  // Tiny segments force rotation + retention inside the kill window, so
  // replay also covers a journal whose oldest records were retired.
  eopts.wal_segment_bytes = 4096;
  const auto add_durable_model = [&](ls::train::ContinuousTrainer& t) {
    ls::train::TrainerModelConfig cfg;
    cfg.name = "durable";
    cfg.model_path = durable_path;
    cfg.window_capacity = kDurableWindow;
    cfg.wal_dir = durable_path + ".wal";
    t.add_model(cfg);
  };
  const auto ingest_with_id = [&](ls::train::ContinuousTrainer& t,
                                  std::size_t r, std::string* msg) {
    return t.ingest("durable", stream_e[r].x, stream_e[r].label, msg,
                    static_cast<std::int64_t>(r));
  };

  std::size_t acked = 0;  // lower bound on acked-and-confirmed examples
  if (kill_mode == "fork") {
    int ack_pipe[2] = {-1, -1};
    EXPECT_MSG(::pipe(ack_pipe) == 0, "pipe() failed\n");
    const ::pid_t child = ::fork();
    if (child == 0) {
      // Child: plain sequential ingest, one ack byte per kOk — the byte
      // is the client's proof the example was acknowledged. SIGKILL can
      // land between any two steps; no cleanup runs.
      ::close(ack_pipe[0]);
      ls::train::ContinuousTrainer victim(eopts);
      add_durable_model(victim);
      for (std::size_t r = 0; r < stream_e.size(); ++r) {
        if (ingest_with_id(victim, r, nullptr) == ls::serve::Status::kOk) {
          (void)!::write(ack_pipe[1], "a", 1);
        }
      }
      ::close(ack_pipe[1]);
      ::_exit(0);
    }
    ::close(ack_pipe[1]);
    // Kill mid-burst: wait for a healthy chunk of acks, then SIGKILL with
    // the stream still flowing.
    constexpr std::size_t kKillAfter = 150;
    char buf[64];
    while (acked < kKillAfter) {
      const ::ssize_t n = ::read(ack_pipe[0], buf, sizeof(buf));
      if (n <= 0) break;
      acked += static_cast<std::size_t>(n);
    }
    EXPECT_MSG(acked >= kKillAfter,
               "child finished before the kill (%zu acks)\n", acked);
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ::waitpid(child, &wstatus, 0);
    EXPECT_MSG(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL,
               "child did not die from SIGKILL\n");
    // Acks already in flight in the pipe were acked before death — count
    // every one of them; "zero acked examples lost" is measured against
    // this total.
    for (;;) {
      const ::ssize_t n = ::read(ack_pipe[0], buf, sizeof(buf));
      if (n <= 0) break;
      acked += static_cast<std::size_t>(n);
    }
    ::close(ack_pipe[0]);
  } else {
    // In-process stand-in (fork is unsafe under TSan): ingest a prefix,
    // then drop the trainer object with no orderly journal close.
    constexpr std::size_t kInprocAcked = 200;
    ls::train::ContinuousTrainer victim(eopts);
    add_durable_model(victim);
    for (std::size_t r = 0; r < kInprocAcked; ++r) {
      if (ingest_with_id(victim, r, nullptr) == ls::serve::Status::kOk) {
        ++acked;
      }
    }
  }

  std::int64_t wal_replayed = 0;
  {
    ls::train::ContinuousTrainer reborn(eopts);
    add_durable_model(reborn);
    ls::train::TrainerModelStats rs = reborn.model_stats("durable");
    wal_replayed = rs.journal_replayed;
    // Zero acked examples lost: every confirmed ack is in the rebuilt
    // window (the journal may hold a final un-acked straggler too).
    EXPECT_MSG(rs.journal_replayed >= static_cast<std::int64_t>(acked),
               "replay lost acked examples: %lld rebuilt < %zu acked\n",
               static_cast<long long>(rs.journal_replayed), acked);
    EXPECT_MSG(rs.journal_quarantines_total == 0,
               "replay quarantined a journal the crash should not have "
               "corrupted\n");
    EXPECT_MSG(!rs.journal_degraded, "replayed trainer came up degraded\n");

    // Digest check: a no-crash control run over the same prefix must land
    // on the identical window content.
    const auto replayed_n = static_cast<std::size_t>(rs.journal_replayed);
    ls::train::ContinuousTrainer control(topts);
    {
      ls::train::TrainerModelConfig cfg;
      cfg.name = "durable";
      cfg.model_path = (dir / "durable_control.txt").string();
      cfg.window_capacity = kDurableWindow;
      control.add_model(cfg);
    }
    for (std::size_t r = 0; r < replayed_n; ++r) {
      (void)control.ingest("durable", stream_e[r].x, stream_e[r].label);
    }
    const std::uint64_t control_digest =
        control.model_stats("durable").window_digest;
    EXPECT_MSG(rs.window_digest == control_digest,
               "rebuilt window digest %llx != no-crash digest %llx\n",
               static_cast<unsigned long long>(rs.window_digest),
               static_cast<unsigned long long>(control_digest));

    // Idempotent retries: re-sending the last window's worth of acked ids
    // is absorbed — every one a duplicate, digest untouched.
    const std::size_t dup_from =
        replayed_n > kDurableWindow ? replayed_n - kDurableWindow : 0;
    std::size_t dup_absorbed = 0;
    for (std::size_t r = dup_from; r < replayed_n; ++r) {
      std::string msg;
      if (ingest_with_id(reborn, r, &msg) == ls::serve::Status::kOk &&
          msg == "duplicate") {
        ++dup_absorbed;
      }
    }
    rs = reborn.model_stats("durable");
    EXPECT_MSG(dup_absorbed == replayed_n - dup_from,
               "retried acked ids not all deduped: %zu of %zu\n",
               dup_absorbed, replayed_n - dup_from);
    EXPECT_MSG(rs.window_digest == control_digest,
               "duplicate retries changed the window digest\n");
    EXPECT_MSG(rs.duplicates_total >=
                   static_cast<std::int64_t>(dup_absorbed),
               "duplicates_total undercounts\n");
    // And the rebuilt window trains.
    EXPECT_MSG(reborn.train_once("durable"),
               "post-crash rebuilt window failed to train\n");
    std::printf("[E] acked>=%zu replayed=%lld duplicates=%lld digest ok\n",
                acked, static_cast<long long>(wal_replayed),
                static_cast<long long>(rs.duplicates_total));
  }

  // ---- Phase F: disk full — degraded ingest, re-arm, full recovery -----
  std::printf("[F] ENOSPC: journal appends fail, ingest must keep acking "
              "(degraded), then re-arm\n");
  const std::string enospc_path = (dir / "enospc_model.txt").string();
  ls::train::TrainerOptions fopts_wal = eopts;
  std::uint64_t live_digest = 0;
  std::size_t live_size = 0;
  {
    ls::train::ContinuousTrainer t(fopts_wal);
    ls::train::TrainerModelConfig cfg;
    cfg.name = "durable";
    cfg.model_path = enospc_path;
    cfg.window_capacity = kDurableWindow;
    cfg.wal_dir = enospc_path + ".wal";
    t.add_model(cfg);
    for (std::size_t r = 0; r < 20; ++r) {
      EXPECT_MSG(ingest_with_id(t, r, nullptr) == ls::serve::Status::kOk,
                 "pre-ENOSPC ingest %zu failed\n", r);
    }
    {
      ls::failpoint::Scoped fp("wal.append");
      for (std::size_t r = 20; r < 40; ++r) {
        EXPECT_MSG(ingest_with_id(t, r, nullptr) == ls::serve::Status::kOk,
                   "ingest %zu failed under ENOSPC (must ack degraded)\n",
                   r);
      }
      EXPECT_MSG(t.journal_degraded(),
                 "trainer not degraded while every append fails\n");
      EXPECT_MSG(t.model_stats("durable").journal_failures_total >= 1,
                 "degraded mode not counted\n");
    }
    // Space is back: the next ingest re-arms (journal rewritten from the
    // live window) and the degraded flag clears.
    EXPECT_MSG(ingest_with_id(t, 40, nullptr) == ls::serve::Status::kOk,
               "post-ENOSPC ingest failed\n");
    EXPECT_MSG(!t.journal_degraded(), "journal did not re-arm\n");
    const ls::train::TrainerModelStats fs = t.model_stats("durable");
    EXPECT_MSG(fs.journal_rearms_total >= 1, "re-arm not counted\n");
    live_digest = fs.window_digest;
    live_size = fs.window_size;
  }
  {
    // Restart: the rewritten journal holds everything, including the
    // examples acked while the disk was full.
    ls::train::ContinuousTrainer t(fopts_wal);
    ls::train::TrainerModelConfig cfg;
    cfg.name = "durable";
    cfg.model_path = enospc_path;
    cfg.window_capacity = kDurableWindow;
    cfg.wal_dir = enospc_path + ".wal";
    t.add_model(cfg);
    const ls::train::TrainerModelStats fs = t.model_stats("durable");
    EXPECT_MSG(fs.window_size == live_size,
               "post-ENOSPC replay lost examples: %zu != %zu\n",
               fs.window_size, live_size);
    EXPECT_MSG(fs.window_digest == live_digest,
               "post-ENOSPC replay digest mismatch\n");
    std::printf("[F] degraded acked=20 rearmed, restart replayed %zu "
                "examples, digest ok\n", fs.window_size);
  }

  // ---- Verdict ---------------------------------------------------------
  ls::CsvWriter csv(ls::bench::csv_path("train_serve_chaos"),
                    {"burst_ok", "burst_shed", "burst_errors", "burst_lost",
                     "publishes", "cold_iterations", "b_p95_ms",
                     "wal_acked", "wal_replayed", "failures"});
  csv.write_row({std::to_string(ok), std::to_string(shed),
                 std::to_string(errors), std::to_string(lost),
                 std::to_string(tstats.publishes_total),
                 std::to_string(cold_iterations),
                 ls::fmt_double(percentile(b_ms, 0.95), 1),
                 std::to_string(acked), std::to_string(wal_replayed),
                 std::to_string(g_failures)});
  ls::bench::finish(csv, "train_serve_chaos");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::printf("train_serve_chaos: %s (%d failed assertions)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "train_serve_chaos: %s\n", e.what());
    return 1;
  }
}
