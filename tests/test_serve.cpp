// Tests of the serving subsystem: wire protocol, micro-batcher, engine
// semantics (admission control, hot reload, error contract) and the socket
// front-end.
#include <gtest/gtest.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "svm/serialize.hpp"
#include "test_util.hpp"

namespace ls::serve {
namespace {

// --- shared fixtures ---------------------------------------------------

/// Hand-built Gaussian model over `d` features.
SvmModel make_model(index_t n_sv, index_t d, std::uint64_t seed,
                    double coef_scale = 1.0) {
  Rng rng(seed);
  SvmModel model;
  model.kernel.type = KernelType::kGaussian;
  model.kernel.gamma = 0.5;
  model.rho = 0.0;  // keeps coef-scaling FP-exact (see HotReload test)
  model.num_features = d;
  for (index_t s = 0; s < n_sv; ++s) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (rng.bernoulli(0.3)) {
        idx.push_back(c);
        val.push_back(rng.normal());
      }
    }
    if (idx.empty()) {
      idx.push_back(0);
      val.push_back(1.0);
    }
    model.support_vectors.emplace_back(std::move(idx), std::move(val));
    model.coef.push_back((s % 2 == 0 ? 1.0 : -1.0) * coef_scale);
  }
  return model;
}

std::vector<SparseVector> make_requests(index_t count, index_t d,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseVector> rows;
  for (index_t r = 0; r < count; ++r) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (rng.bernoulli(0.3)) {
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

std::string temp_model_path(const std::string& name) {
  return ::testing::TempDir() + "ls_serve_" + name;
}

/// Deterministic engine configuration for value-comparison tests: fixed
/// CSR layout, so two engines always score through identical kernels.
ServeOptions fixed_layout_options() {
  ServeOptions opts;
  opts.sched.policy = SchedulePolicy::kFixed;
  opts.sched.fixed_format = Format::kCSR;
  return opts;
}

// --- protocol: pure encode/decode --------------------------------------

TEST(ServeProtocol, PredictRequestRoundTrip) {
  const SparseVector x({1, 5, 9}, {0.5, -2.0, 3.25});
  const std::string payload = encode_predict_request("mymodel", x);
  std::string model;
  SparseVector decoded;
  decode_predict_request(payload, model, decoded);
  EXPECT_EQ(model, "mymodel");
  ASSERT_EQ(decoded.nnz(), 3);
  EXPECT_EQ(decoded.indices()[1], 5);
  EXPECT_EQ(decoded.values()[2], 3.25);
}

TEST(ServeProtocol, EmptyVectorRoundTrip) {
  const SparseVector x;
  const std::string payload = encode_predict_request("m", x);
  std::string model;
  SparseVector decoded;
  decode_predict_request(payload, model, decoded);
  EXPECT_EQ(model, "m");
  EXPECT_TRUE(decoded.empty());
}

TEST(ServeProtocol, PredictResponseRoundTrip) {
  const PredictResult r{Status::kOk, -1.25, -1.0};
  const PredictResult back =
      decode_predict_response(encode_predict_response(r));
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_EQ(back.decision, -1.25);
  EXPECT_EQ(back.label, -1.0);
}

TEST(ServeProtocol, StatusResponseRoundTrip) {
  const std::string payload =
      encode_status_response(Status::kOverloaded, "queue full");
  Status s = Status::kOk;
  std::string text;
  decode_status_response(payload, s, text);
  EXPECT_EQ(s, Status::kOverloaded);
  EXPECT_EQ(text, "queue full");
}

TEST(ServeProtocol, ReloadRequestRoundTrip) {
  EXPECT_EQ(decode_reload_request(encode_reload_request("demo")), "demo");
}

TEST(ServeProtocol, TruncatedPayloadThrows) {
  const SparseVector x({1, 2}, {1.0, 2.0});
  std::string payload = encode_predict_request("model", x);
  payload.resize(payload.size() - 3);  // cut mid-value
  std::string model;
  SparseVector decoded;
  EXPECT_THROW(decode_predict_request(payload, model, decoded), Error);
}

TEST(ServeProtocol, TrailingGarbageThrows) {
  std::string payload = encode_reload_request("demo");
  payload += "extra";
  EXPECT_THROW(decode_reload_request(payload), Error);
}

TEST(ServeProtocol, UnsortedIndicesThrow) {
  // Forge a predict request whose indices are not strictly increasing
  // (SparseVector itself refuses to build one, so patch the bytes).
  const SparseVector x({1, 2}, {1.0, 2.0});
  std::string payload = encode_predict_request("m", x);
  // Layout: u16 name_len, name "m", f64 deadline_ms, u32 nnz, then
  // (u32 idx, f64 val) pairs; the second pair's index starts at offset
  // 2 + 1 + 8 + 4 + 12.
  const std::size_t second_idx = 2 + 1 + 8 + 4 + 12;
  const std::uint32_t dup = 1;
  std::memcpy(payload.data() + second_idx, &dup, sizeof(dup));
  std::string model;
  SparseVector decoded;
  EXPECT_THROW(decode_predict_request(payload, model, decoded), Error);
}

TEST(ServeProtocol, StatusNamesAreStable) {
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kOverloaded), "overloaded");
}

// --- protocol: framed fd I/O -------------------------------------------

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(ServeProtocol, FrameRoundTripOverSocket) {
  SocketPair sp;
  write_frame(sp.a, MsgType::kPingReq, "hello");
  Frame f;
  ASSERT_TRUE(read_frame(sp.b, f));
  EXPECT_EQ(f.type, MsgType::kPingReq);
  EXPECT_EQ(f.payload, "hello");
}

TEST(ServeProtocol, CleanEofReturnsFalse) {
  SocketPair sp;
  ::close(sp.a);
  sp.a = -1;
  Frame f;
  EXPECT_FALSE(read_frame(sp.b, f));
}

TEST(ServeProtocol, BadMagicThrows) {
  SocketPair sp;
  const char garbage[12] = {'n', 'o', 'p', 'e', 1, 1, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(::write(sp.a, garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  Frame f;
  EXPECT_THROW(read_frame(sp.b, f), Error);
}

TEST(ServeProtocol, OversizedPayloadRejectedBeforeAllocation) {
  SocketPair sp;
  // Forge a header announcing a payload beyond kMaxPayload.
  std::string header;
  const std::uint32_t magic = kMagic;
  const std::uint8_t version = kVersion;
  const std::uint8_t type = static_cast<std::uint8_t>(MsgType::kPingReq);
  const std::uint16_t reserved = 0;
  const std::uint32_t len = kMaxPayload + 1;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.append(reinterpret_cast<const char*>(&version), 1);
  header.append(reinterpret_cast<const char*>(&type), 1);
  header.append(reinterpret_cast<const char*>(&reserved), 2);
  header.append(reinterpret_cast<const char*>(&len), 4);
  ASSERT_EQ(::write(sp.a, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  Frame f;
  EXPECT_THROW(read_frame(sp.b, f), Error);
}

// --- engine: request semantics -----------------------------------------

TEST(ServeEngine, PredictMatchesDirectModelEvaluation) {
  const std::string path = temp_model_path("basic.txt");
  const SvmModel model = make_model(12, 24, 0xA11CE);
  save_model_file(path, model);

  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", path);
  engine.start();
  for (const SparseVector& x : make_requests(16, 24, 0xB0B)) {
    const PredictResult r = engine.predict("m", x);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_NEAR(r.decision, model.decision(x), 1e-9);
    EXPECT_EQ(r.label, r.decision >= 0 ? 1.0 : -1.0);
  }
  engine.stop();
}

TEST(ServeEngine, UnknownModelIsRejected) {
  ServeEngine engine;
  engine.start();
  const PredictResult r = engine.predict("nope", SparseVector({0}, {1.0}));
  EXPECT_EQ(r.status, Status::kUnknownModel);
  EXPECT_EQ(engine.stats().unknown_model_total, 1);
}

TEST(ServeEngine, OversizedFeatureIndexIsRejectedNotScored) {
  const std::string path = temp_model_path("dim.txt");
  save_model_file(path, make_model(8, 16, 0xD1));
  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", path);
  engine.start();
  // Feature 16 is one past the model's width — scattering it would write
  // out of bounds; the engine must answer kBadDimension instead.
  const PredictResult r =
      engine.predict("m", SparseVector({3, 16}, {1.0, 1.0}));
  EXPECT_EQ(r.status, Status::kBadDimension);
  EXPECT_EQ(engine.stats().bad_dimension_total, 1);
  // An in-range request still works.
  EXPECT_EQ(engine.predict("m", SparseVector({15}, {1.0})).status,
            Status::kOk);
}

TEST(ServeEngine, RequestsAfterStopAreShuttingDown) {
  const std::string path = temp_model_path("stopped.txt");
  save_model_file(path, make_model(4, 8, 0x51));
  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", path);
  engine.start();
  engine.stop();
  EXPECT_EQ(engine.predict("m", SparseVector({0}, {1.0})).status,
            Status::kShuttingDown);
}

TEST(ServeEngine, UnloadedModelBecomesUnknown) {
  const std::string path = temp_model_path("unload.txt");
  save_model_file(path, make_model(4, 8, 0x52));
  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", path);
  engine.start();
  EXPECT_EQ(engine.predict("m", SparseVector({0}, {1.0})).status, Status::kOk);
  EXPECT_TRUE(engine.unload_model("m"));
  EXPECT_FALSE(engine.unload_model("m"));
  EXPECT_EQ(engine.predict("m", SparseVector({0}, {1.0})).status,
            Status::kUnknownModel);
}

// The load-time layout is decided on the single-row SMSV that training
// probes, not on the batched kernel the micro-batcher runs. On this SV
// matrix (256 x 64, ~30 % dense, one OpenMP thread) the two shapes disagree
// on a 4-vCPU AVX-512 host: the single-row race picks DEN, a 64-row race
// picks CSR. An engine that raced the batched shape would publish a layout
// that is not the argmin of its own single-row scores.
TEST(ServeEngine, LoadTimeLayoutIsTheSingleRowSmsvArgmin) {
  const std::string path = temp_model_path("single_row_race.txt");
  save_model_file(path, make_model(256, 64, 0x5106));
  ServeEngine engine;  // default: empirical load-time decision
  test::with_threads(1, [&] {
    engine.load_model("m", path);
    return 0;
  });
  const ScheduleDecision& d = engine.model("m")->predictor.decision();
  Format argmin = Format::kCSR;
  for (Format f : kAllFormats) {
    if (d.score_of(f) < d.score_of(argmin)) argmin = f;
  }
  EXPECT_EQ(format_name(d.format), format_name(argmin)) << d.rationale;
  // The race times exactly the cost model's top two, so the argmin above
  // chooses between two measured scores. Which two depends on the SIMD
  // level's calibration: DEN is one of them at AVX2 and AVX-512, while the
  // scalar level races CSR and COO.
  int raced = 0;
  for (Format f : kAllFormats) raced += std::isfinite(d.score_of(f)) ? 1 : 0;
  EXPECT_EQ(raced, 2) << d.rationale;
}

// The micro-batching correctness keystone: scores must not depend on how
// requests were coalesced. A single-threaded batch=1 engine and a
// concurrent batch=64 engine must produce bit-identical decisions (the
// per-lane bit-identity of multiply_dense_batch, PR 3).
TEST(ServeEngine, ConcurrentBatchedScoresBitIdenticalToSequential) {
  const std::string path = temp_model_path("bitident.txt");
  save_model_file(path, make_model(20, 40, 0xB17));
  const std::vector<SparseVector> requests = make_requests(64, 40, 0x1DE);

  ServeOptions seq = fixed_layout_options();
  seq.workers = 1;
  seq.batcher.max_batch = 1;
  ServeEngine sequential(seq);
  sequential.load_model("m", path);
  sequential.start();
  std::vector<real_t> expected;
  for (const SparseVector& x : requests) {
    const PredictResult r = sequential.predict("m", x);
    ASSERT_EQ(r.status, Status::kOk);
    expected.push_back(r.decision);
  }
  sequential.stop();

  ServeOptions par = fixed_layout_options();
  par.workers = 4;
  par.batcher.max_batch = 64;
  ServeEngine batched(par);
  batched.load_model("m", path);
  batched.start();
  std::vector<real_t> got(requests.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t r = static_cast<std::size_t>(t); r < requests.size();
           r += 8) {
        const PredictResult res = batched.predict("m", requests[r]);
        ASSERT_EQ(res.status, Status::kOk);
        got[r] = res.decision;
      }
    });
  }
  for (std::thread& th : clients) th.join();
  const double occupancy = batched.stats().mean_batch_occupancy();
  batched.stop();

  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(got[r], expected[r]) << "request " << r;
  }
  EXPECT_GE(occupancy, 1.0);
}

// --- engine: batcher flush policy --------------------------------------

// A lightly loaded engine must not hold a request back waiting for company:
// with the default options a lone predict is dequeued as soon as a worker
// is free.
TEST(ServeEngine, DefaultOptionsDoNotQueueSoloRequests) {
  const std::string path = temp_model_path("solo.txt");
  save_model_file(path, make_model(4, 8, 0x5010));
  ServeEngine engine{ServeOptions{}};
  engine.load_model("m", path);
  engine.start();
  metrics::reset();
  metrics::set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(engine.predict("m", SparseVector({i % 8}, {1.0})).status,
              Status::kOk);
  }
  const metrics::Report r = metrics::snapshot();
  metrics::set_enabled(false);
  metrics::reset();
  engine.stop();

  const metrics::TimerStats& queue = r.timers.at("serve.stage.queue_seconds");
  EXPECT_EQ(queue.count, 20);
  EXPECT_LT(queue.p50, 1e-3);
}

// Batches still form under load: requests that arrive while the only worker
// is scoring are flushed together the moment it frees up.
TEST(ServeEngine, RequestsQueuedBehindBusyWorkerFlushAsOneBatch) {
  const std::string path = temp_model_path("busy.txt");
  save_model_file(path, make_model(8, 16, 0xB5B));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 100, 0, -1});
  std::vector<std::future<PredictResult>> futures;
  futures.push_back(engine.predict_async("m", SparseVector({0}, {1.0})));
  // Wait until the worker has taken the first request into compute.
  while (engine.stats().queue_depth != 0) std::this_thread::yield();
  for (int i = 1; i <= 5; ++i) {
    futures.push_back(engine.predict_async("m", SparseVector({i}, {1.0})));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);

  const ServeStats s = engine.stats();
  EXPECT_EQ(s.batches_total, 2);
  EXPECT_EQ(s.batched_rows_total, 6);
  engine.stop();
}

TEST(ServeEngine, GreedyModeDoesNotDelaySoloRequests) {
  const std::string path = temp_model_path("greedy.txt");
  save_model_file(path, make_model(8, 16, 0x64EE));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  opts.batcher.max_batch = 64;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(engine.predict("m", SparseVector({1}, {1.0})).status, Status::kOk);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  // A lone request must not wait for more traffic. Generous bound: the
  // score itself is microseconds.
  EXPECT_LT(ms, 500.0);
  engine.stop();
}

// --- engine: admission control -----------------------------------------

TEST(ServeEngine, QueueFullSubmissionsAreShed) {
  const std::string path = temp_model_path("shed.txt");
  save_model_file(path, make_model(8, 16, 0x5ED));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  opts.batcher.max_batch = 1;  // one request per (delayed) flush
  opts.batcher.max_queue = 2;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  // Each scored batch sleeps 30 ms, so 20 rapid submissions overwhelm a
  // queue of 2: most must be shed at the door.
  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 30, 0, -1});
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine.predict_async("m", SparseVector({1}, {1.0})));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    const Status s = f.get().status;
    if (s == Status::kOk) ++ok;
    if (s == Status::kOverloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, 20);
  EXPECT_GE(shed, 10);
  EXPECT_GE(ok, 1);
  EXPECT_EQ(engine.stats().shed_queue_total, shed);
  engine.stop();
}

TEST(ServeEngine, StaleRequestsAreShedAtDequeue) {
  const std::string path = temp_model_path("stale.txt");
  save_model_file(path, make_model(8, 16, 0x57A1E));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  opts.batcher.max_batch = 1;
  opts.latency_budget_ms = 5.0;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  // The worker spends 40 ms per batch; queued requests age past the 5 ms
  // budget and must be dropped at dequeue instead of scored.
  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 40, 0, -1});
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(engine.predict_async("m", SparseVector({1}, {1.0})));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    const Status s = f.get().status;
    if (s == Status::kOk) ++ok;
    if (s == Status::kOverloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, 6);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(engine.stats().shed_deadline_total, shed);
  engine.stop();
}

// --- engine: hot reload -------------------------------------------------

// Reload swaps an immutable LoadedModel behind a shared_ptr, so every
// response must come entirely from one version — never a torn mix. Version
// B's coefficients are exactly 2x version A's (rho = 0), and scaling by a
// power of two is FP-exact, so every decision must equal v or exactly 2v.
TEST(ServeEngine, HotReloadNeverTearsInFlightPredictions) {
  const std::string path = temp_model_path("reload.txt");
  const SvmModel a = make_model(10, 20, 0x4E10, 1.0);
  const SvmModel b = make_model(10, 20, 0x4E10, 2.0);  // same SVs, coef x2
  save_model_file(path, a);

  ServeOptions opts = fixed_layout_options();
  opts.workers = 2;
  opts.batcher.max_batch = 8;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  const std::vector<SparseVector> requests = make_requests(8, 20, 0x77);
  std::vector<real_t> v_a;
  for (const SparseVector& x : requests) {
    const PredictResult r = engine.predict("m", x);
    ASSERT_EQ(r.status, Status::kOk);
    v_a.push_back(r.decision);
  }

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t r = 0; r < requests.size(); ++r) {
          const PredictResult res = engine.predict("m", requests[r]);
          if (res.status != Status::kOk) continue;  // shutdown race only
          if (res.decision != v_a[r] && res.decision != 2.0 * v_a[r]) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (int reload = 0; reload < 10; ++reload) {
    save_model_file(path, reload % 2 == 0 ? b : a);
    engine.reload_model("m");
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : hammers) th.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(engine.stats().reloads_total, 10);
  EXPECT_EQ(engine.model("m")->version, 11);
  engine.stop();
}

TEST(ServeEngine, FailedReloadKeepsPreviousVersionServing) {
  const std::string path = temp_model_path("failedreload.txt");
  save_model_file(path, make_model(6, 12, 0xFA11));
  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", path);
  engine.start();

  {
    // Deserialization blows up mid-reload; the registry must be untouched.
    failpoint::Scoped broken("serve.model.load");
    EXPECT_THROW(engine.reload_model("m"), Error);
  }
  EXPECT_EQ(engine.model("m")->version, 1);
  EXPECT_EQ(engine.predict("m", SparseVector({0}, {1.0})).status, Status::kOk);
  engine.stop();
}

// --- engine: stats under concurrency ------------------------------------

TEST(ServeEngine, StatsSnapshotsAreConsistentUnderLoad) {
  const std::string path = temp_model_path("stats.txt");
  save_model_file(path, make_model(8, 16, 0x57A7));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 2;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Hammer the snapshot path while workers score — the acquire/release
    // discipline makes this TSan-clean and monotone.
    std::int64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const ServeStats s = engine.stats();
      EXPECT_GE(s.ok_total, last);
      EXPECT_LE(s.ok_total, s.requests_total);
      last = s.ok_total;
    }
  });
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        engine.predict("m", SparseVector({1}, {0.5}));
      }
    });
  }
  for (std::thread& th : clients) th.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const ServeStats s = engine.stats();
  EXPECT_EQ(s.ok_total, 800);
  EXPECT_EQ(s.requests_total, 800);
  engine.stop();
}

// --- engine: version discipline under concurrent reloads -----------------

TEST(ServeEngine, ConcurrentReloadsMintStrictlyIncreasingVersions) {
  const std::string path = temp_model_path("versionrace.txt");
  save_model_file(path, make_model(6, 12, 0xBEEF));
  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", path);
  engine.start();

  constexpr int kThreads = 4;
  constexpr int kLoadsPerThread = 16;
  std::atomic<bool> done{false};
  std::atomic<int> regressions{0};
  std::thread watcher([&] {
    // The hosted version must never move backwards, no matter how the
    // loader threads interleave (versions are reserved under the registry
    // lock and stale builds are rejected at put).
    std::int64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto m = engine.model("m");
      if (m->version < last) regressions.fetch_add(1);
      last = m->version;
    }
  });
  std::vector<std::thread> loaders;
  for (int t = 0; t < kThreads; ++t) {
    loaders.emplace_back([&] {
      for (int i = 0; i < kLoadsPerThread; ++i) {
        engine.load_model("m", path);
      }
    });
  }
  for (std::thread& th : loaders) th.join();
  done.store(true, std::memory_order_release);
  watcher.join();

  // Every load minted a distinct version; the survivor is the highest one,
  // with no duplicates and no older build clobbering a newer one.
  EXPECT_EQ(regressions.load(), 0);
  EXPECT_EQ(engine.model("m")->version, 1 + kThreads * kLoadsPerThread);
  EXPECT_EQ(engine.stats().reloads_total, kThreads * kLoadsPerThread);
  engine.stop();
}

// --- engine: drain predicate vs in-flight batches ------------------------

TEST(ServeEngine, IdleNeverTrueWhileBatchIsInFlight) {
  const std::string path = temp_model_path("inflight.txt");
  save_model_file(path, make_model(6, 12, 0x1F17));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  // Widen the pop-to-scored window: the worker sleeps inside score_batch
  // while the queue is already empty, which is exactly the interval a
  // popped-but-uncounted batch used to fall through the drain predicate.
  failpoint::Spec slow;
  slow.action = failpoint::Action::kDelay;
  slow.delay_ms = 10;
  failpoint::Scoped scoped("serve.batch.compute", slow);

  for (int iter = 0; iter < 20; ++iter) {
    auto fut = engine.predict_async("m", SparseVector({0}, {1.0}));
    // idle() may only flip once the batch is fully scored: the in-flight
    // claim is taken in the same critical section that pops the queue, and
    // the promise is fulfilled before batch_done() releases it. So any
    // observation of idle()==true implies the future is already resolved —
    // sampling idle FIRST makes this race-free to assert. (The old atomic
    // was incremented after next_batch returned, leaving a window where
    // idle()==true with the batch popped but unscored.)
    for (;;) {
      const bool idle = engine.idle();
      const bool ready = fut.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      if (idle) ASSERT_TRUE(ready);
      if (ready) break;
    }
    EXPECT_EQ(fut.get().status, Status::kOk);
  }
  engine.stop();
}

// --- batcher: cohort extraction -----------------------------------------

TEST(ServeBatcher, InterleavedModelsFlushFrontCohortWithoutWaiting) {
  const std::string p1 = temp_model_path("cohort1.txt");
  const std::string p2 = temp_model_path("cohort2.txt");
  save_model_file(p1, make_model(4, 8, 0xC0A));
  save_model_file(p2, make_model(4, 8, 0xC0B));
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kFixed;
  sched.fixed_format = Format::kCSR;
  const auto m1 = std::make_shared<const LoadedModel>("m1", p1, sched, 8, 1);
  const auto m2 = std::make_shared<const LoadedModel>("m2", p2, sched, 8, 1);

  // The fastest of a few trials, so one preemption cannot fail the test.
  double fastest_ms = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    MicroBatcher batcher{BatcherOptions{}};
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(batcher.submit(m1, SparseVector({0}, {1.0 + i}), 0.0));
      ASSERT_TRUE(batcher.submit(m2, SparseVector({0}, {10.0 + i}), 0.0));
    }
    std::vector<BatchRequest> batch;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(batcher.next_batch(batch));
    fastest_ms = std::min(fastest_ms,
                          std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    ASSERT_EQ(batch.size(), 3u);
    for (const BatchRequest& r : batch) EXPECT_EQ(r.model.get(), m1.get());
    for (BatchRequest& r : batch) {
      r.done.set_value(PredictResult{Status::kOk, 0.0, 0.0});
    }
    batcher.batch_done();

    // The skipped m2 requests were re-prepended in arrival order.
    ASSERT_TRUE(batcher.next_batch(batch));
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      EXPECT_EQ(batch[k].model.get(), m2.get());
      EXPECT_EQ(batch[k].x.values()[0], 10.0 + static_cast<double>(k));
    }
    for (BatchRequest& r : batch) {
      r.done.set_value(PredictResult{Status::kOk, 0.0, 0.0});
    }
    batcher.batch_done();
    EXPECT_TRUE(batcher.quiesced());
    batcher.stop();
  }
  EXPECT_LT(fastest_ms, 1.0);
}

// --- socket server end-to-end -------------------------------------------

struct ServerFixture {
  std::string model_path;
  SvmModel model;
  ServeEngine engine;
  ServeServer server;

  explicit ServerFixture(ServerOptions listen)
      : model_path(temp_model_path("server.txt")),
        model(make_model(10, 20, 0x5E4E)),
        engine(fixed_layout_options()),
        server(engine, std::move(listen)) {
    save_model_file(model_path, model);
    engine.load_model("m", model_path);
    engine.start();
    server.start();
  }
  ~ServerFixture() {
    server.stop();
    engine.stop();
  }
};

std::string unique_socket_path(const char* tag) {
  return ::testing::TempDir() + "ls_serve_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(ServeServer, UnixSocketEndToEnd) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("e2e");
  ServerFixture fx(listen);

  ServeClient client = ServeClient::connect_unix(listen.unix_path);
  EXPECT_TRUE(client.ping());

  for (const SparseVector& x : make_requests(8, 20, 0xC11)) {
    const PredictResult wire = client.predict("m", x);
    ASSERT_EQ(wire.status, Status::kOk);
    // The wire path must agree with the in-process path bit-for-bit: same
    // engine, same layout, the protocol only moves doubles around.
    const PredictResult local = fx.engine.predict("m", x);
    EXPECT_EQ(wire.decision, local.decision);
  }

  const std::string stats = client.stats();
  EXPECT_NE(stats.find("requests_total"), std::string::npos);
  EXPECT_NE(stats.find("model m version 1"), std::string::npos);

  std::string msg;
  EXPECT_EQ(client.reload("m", &msg), Status::kOk);
  EXPECT_EQ(client.reload("ghost", &msg), Status::kInternal);
  EXPECT_EQ(client.predict("ghost", SparseVector({0}, {1.0})).status,
            Status::kUnknownModel);
}

TEST(ServeServer, TcpLoopbackEndToEnd) {
  ServerOptions listen;
  listen.tcp_port = 0;  // kernel-assigned
  ServerFixture fx(listen);
  ASSERT_GT(fx.server.port(), 0);

  ServeClient client = ServeClient::connect_tcp(fx.server.port());
  EXPECT_TRUE(client.ping());
  const PredictResult r =
      client.predict("m", SparseVector({2, 7}, {1.0, -1.0}));
  EXPECT_EQ(r.status, Status::kOk);
}

TEST(ServeServer, ShutdownRequestStopsWait) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("shutdown");
  ServerFixture fx(listen);

  std::thread waiter([&] { fx.server.wait(); });
  ServeClient client = ServeClient::connect_unix(listen.unix_path);
  EXPECT_EQ(client.shutdown_server(), Status::kOk);
  waiter.join();  // wait() must return once the shutdown frame is handled
}

TEST(ServeServer, ConcurrentWireClientsAllSucceed) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("conc");
  ServerFixture fx(listen);
  const std::vector<SparseVector> requests = make_requests(32, 20, 0xCC);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      ServeClient c = ServeClient::connect_unix(listen.unix_path);
      for (const SparseVector& x : requests) {
        if (c.predict("m", x).status != Status::kOk) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fx.engine.stats().ok_total, 6 * 32);
}

TEST(ServeServer, GarbageBytesGetBadFrameAndOnlyThatConnectionDies) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("garbage");
  ServerFixture fx(listen);

  // Hand-rolled client sending 12 bytes of garbage where a header belongs.
  ServeClient good = ServeClient::connect_unix(listen.unix_path);
  ServeClient bad = ServeClient::connect_unix(listen.unix_path);
  // Reach into the protocol layer directly: connect, then write junk.
  // (ServeClient has no raw-write API, so open a separate raw socket.)
  bad.close();
  int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, listen.unix_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char junk[12] = {'x', 'x', 'x', 'x', 9, 9, 9, 9, 9, 9, 9, 9};
  ASSERT_EQ(::write(raw, junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  // The server answers kBadFrame (best effort) and closes the connection.
  Frame reply;
  bool got_reply = false;
  try {
    got_reply = read_frame(raw, reply);
  } catch (const Error&) {
    // A torn read is acceptable: the server may close first.
  }
  if (got_reply) {
    Status s = Status::kOk;
    std::string text;
    decode_status_response(reply.payload, s, text);
    EXPECT_EQ(s, Status::kBadFrame);
  }
  ::close(raw);

  // The other client is unaffected.
  EXPECT_TRUE(good.ping());
  EXPECT_EQ(good.predict("m", SparseVector({1}, {1.0})).status, Status::kOk);
}

TEST(ServeServer, ConnectionReadFaultDegradesGracefully) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("readfault");
  ServerFixture fx(listen);

  {
    // The first connection's first read throws (injected I/O error); the
    // handler drops that client and the server keeps accepting. Depending
    // on timing the doomed client sees either a best-effort kBadFrame
    // answer (ping() returns false) or a torn connection (ping() throws).
    failpoint::Scoped fault("serve.conn.read",
                            {failpoint::Action::kError, 0, 0, 1});
    ServeClient doomed = ServeClient::connect_unix(listen.unix_path);
    bool failed = false;
    try {
      failed = !doomed.ping();
    } catch (const Error&) {
      failed = true;
    }
    EXPECT_TRUE(failed);
  }
  ServeClient healthy = ServeClient::connect_unix(listen.unix_path);
  EXPECT_TRUE(healthy.ping());
}

TEST(ServeServer, ConnectionWriteFaultDropsOnlyThatClient) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("writefault");
  ServerFixture fx(listen);

  {
    failpoint::Scoped fault("serve.conn.write",
                            {failpoint::Action::kError, 0, 0, 1});
    ServeClient doomed = ServeClient::connect_unix(listen.unix_path);
    EXPECT_THROW(doomed.predict("m", SparseVector({1}, {1.0})), Error);
  }
  ServeClient healthy = ServeClient::connect_unix(listen.unix_path);
  EXPECT_EQ(healthy.predict("m", SparseVector({1}, {1.0})).status,
            Status::kOk);
}

// --- protocol: deadlines and torn/partial frames ------------------------

TEST(ServeProtocol, PredictRequestCarriesDeadline) {
  const SparseVector x({1, 3}, {1.0, -1.0});
  const std::string payload = encode_predict_request("m", x, 123.5);
  std::string model;
  SparseVector decoded;
  double deadline = 0.0;
  decode_predict_request(payload, model, decoded, &deadline);
  EXPECT_EQ(model, "m");
  EXPECT_EQ(deadline, 123.5);
  ASSERT_EQ(decoded.nnz(), 2);
  // Callers that don't care may omit the out-param; the field is still
  // consumed so the vector decodes correctly.
  decode_predict_request(payload, model, decoded);
  ASSERT_EQ(decoded.nnz(), 2);
  EXPECT_EQ(decoded.values()[1], -1.0);
}

TEST(ServeProtocol, HalfFrameStallHitsReadTimeout) {
  SocketPair sp;
  // A valid header prefix that then stalls forever: classic slow-loris.
  const unsigned char half[6] = {0x4C, 0x53, 0x52, 0x56, kVersion, 5};
  ASSERT_EQ(::write(sp.a, half, sizeof(half)),
            static_cast<ssize_t>(sizeof(half)));
  FrameTimeouts t;
  t.read_ms = 50.0;
  Frame f;
  try {
    read_frame(sp.b, f, t);
    FAIL() << "read_frame should have timed out on the half frame";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kTimeout);
  }
}

TEST(ServeProtocol, SilentConnectionHitsIdleTimeout) {
  SocketPair sp;
  FrameTimeouts t;
  t.idle_ms = 50.0;
  Frame f;
  try {
    read_frame(sp.b, f, t);
    FAIL() << "read_frame should have hit the idle timeout";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kIdle);
  }
}

TEST(ServeProtocol, MidFrameDisconnectIsClosed) {
  SocketPair sp;
  // Full header announcing 100 payload bytes, but only 10 arrive before
  // the peer dies.
  std::string bytes;
  const std::uint32_t magic = kMagic;
  bytes.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  bytes.push_back(static_cast<char>(kVersion));
  bytes.push_back(static_cast<char>(MsgType::kPingReq));
  bytes.push_back(0);
  bytes.push_back(0);  // reserved
  const std::uint32_t len = 100;
  bytes.append(reinterpret_cast<const char*>(&len), sizeof(len));
  bytes.append(10, 'x');
  ASSERT_EQ(::write(sp.a, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(sp.a);
  sp.a = -1;
  Frame f;
  try {
    read_frame(sp.b, f);
    FAIL() << "mid-frame EOF must not look like a clean close";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kClosed);
  }
}

TEST(ServeProtocol, PartialHeaderThenCloseIsClosed) {
  SocketPair sp;
  const unsigned char some[6] = {0x4C, 0x53, 0x52, 0x56, kVersion, 5};
  ASSERT_EQ(::write(sp.a, some, sizeof(some)),
            static_cast<ssize_t>(sizeof(some)));
  ::close(sp.a);
  sp.a = -1;
  Frame f;
  try {
    read_frame(sp.b, f);
    FAIL() << "EOF inside the header must not look like a clean close";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kClosed);
  }
}

TEST(ServeProtocol, TornFrameFailpointTearsMidFrame) {
  SocketPair sp;
  failpoint::Scoped tear("serve.frame.partial",
                         {failpoint::Action::kError, 0, 0, 1});
  try {
    write_frame(sp.a, MsgType::kPingReq, "payload");
    FAIL() << "write_frame should have torn the frame";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kTorn);
  }
  // The peer received only a prefix of the frame; with the writer gone the
  // stream is unrecoverable.
  ::close(sp.a);
  sp.a = -1;
  Frame f;
  EXPECT_THROW(read_frame(sp.b, f), Error);
}

TEST(ServeProtocol, EintrDuringBlockedReadIsRetried) {
  // Install a do-nothing SIGUSR1 handler WITHOUT SA_RESTART so blocking
  // syscalls genuinely return EINTR instead of auto-resuming.
  struct sigaction sa{};
  sa.sa_handler = +[](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old{};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  SocketPair sp;
  std::atomic<bool> got{false};
  std::thread reader([&] {
    Frame f;
    if (read_frame(sp.b, f)) {
      got.store(f.type == MsgType::kPingReq && f.payload == "eintr");
    }
  });
  // Let the reader park inside poll(), then interrupt it a few times —
  // each EINTR must be absorbed, not surfaced as a failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (int i = 0; i < 3; ++i) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  write_frame(sp.a, MsgType::kPingReq, "eintr");
  reader.join();
  EXPECT_TRUE(got.load());
  ::sigaction(SIGUSR1, &old, nullptr);
}

// --- engine: deadline propagation + health ------------------------------

TEST(ServeEngine, ExpiredClientDeadlineIsShedBeforeCompute) {
  const std::string path = temp_model_path("deadline.txt");
  save_model_file(path, make_model(6, 12, 0xDEAD));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  opts.batcher.max_batch = 1;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  // The worker grabs the first (deadline-free) request and stalls in
  // compute; the second request's 5 ms budget expires while it queues, so
  // it must be shed at dequeue without any compute spent on it.
  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 60, 0, -1});
  auto f1 = engine.predict_async("m", SparseVector({1}, {1.0}));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto f2 = engine.predict_async("m", SparseVector({2}, {1.0}), 5.0);
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOverloaded);
  const ServeStats s = engine.stats();
  EXPECT_EQ(s.shed_expired_total, 1);
  EXPECT_EQ(s.ok_total, 1);
  engine.stop();
}

TEST(ServeEngine, HealthTracksDegradedReloads) {
  ServeEngine engine(fixed_layout_options());
  EXPECT_STREQ(engine.health_name(), "live");  // up, but not serving yet

  const std::string path = temp_model_path("health.txt");
  save_model_file(path, make_model(6, 12, 0x11EA));
  engine.load_model("m", path);
  engine.start();
  EXPECT_STREQ(engine.health_name(), "ready");

  {
    failpoint::Scoped broken("serve.model.load");
    EXPECT_THROW(engine.reload_model("m"), Error);
  }
  // The failed reload leaves the last-good version serving, flagged
  // degraded.
  EXPECT_STREQ(engine.health_name(), "degraded");
  const ServeStats s = engine.stats();
  EXPECT_EQ(s.reload_failures_total, 1);
  EXPECT_EQ(s.degraded_models, 1u);
  EXPECT_EQ(engine.predict("m", SparseVector({1}, {1.0})).status,
            Status::kOk);

  engine.reload_model("m");  // success clears the flag
  EXPECT_STREQ(engine.health_name(), "ready");
  EXPECT_EQ(engine.stats().degraded_models, 0u);
  engine.stop();
}

// --- server: timeouts, governance, drain, retries -----------------------

/// Raw (non-ServeClient) connection to a unix path, for byte-level abuse.
int raw_unix_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(ServeServer, StalledHalfFrameClientIsEvictedByReadTimeout) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("loris");
  listen.read_timeout_ms = 150.0;
  ServerFixture fx(listen);

  // Slow-loris: send a valid header prefix and go silent. Pre-hardening,
  // the handler's blocking read would pin a thread forever (and this test
  // would hang); now the read budget expires and the server closes us.
  const int raw = raw_unix_connect(listen.unix_path);
  const unsigned char half[6] = {0x4C, 0x53, 0x52, 0x56, kVersion, 1};
  ASSERT_EQ(::write(raw, half, sizeof(half)),
            static_cast<ssize_t>(sizeof(half)));
  pollfd p{};
  p.fd = raw;
  p.events = POLLIN;
  ASSERT_GT(::poll(&p, 1, 3000), 0) << "server never closed the stalled fd";
  char buf[16];
  EXPECT_EQ(::read(raw, buf, sizeof(buf)), 0);  // EOF: server hung up
  ::close(raw);
  EXPECT_GE(fx.server.server_stats().read_timeouts_total, 1);

  // The freed handler slot serves the next client normally.
  ServeClient ok = ServeClient::connect_unix(listen.unix_path);
  EXPECT_TRUE(ok.ping());
}

TEST(ServeServer, IdleConnectionsAreClosedAfterIdleTimeout) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("idle");
  listen.idle_timeout_ms = 100.0;
  ServerFixture fx(listen);

  const int raw = raw_unix_connect(listen.unix_path);
  write_frame(raw, MsgType::kPingReq, "");
  Frame reply;
  ASSERT_TRUE(read_frame(raw, reply));  // first frame served normally
  // Then go quiet: the idle window elapses and the server closes us.
  pollfd p{};
  p.fd = raw;
  p.events = POLLIN;
  ASSERT_GT(::poll(&p, 1, 3000), 0) << "server never closed the idle fd";
  char buf[16];
  EXPECT_EQ(::read(raw, buf, sizeof(buf)), 0);
  ::close(raw);
  EXPECT_GE(fx.server.server_stats().idle_timeouts_total, 1);
}

TEST(ServeServer, MaxConnectionsEvictsOldestIdle) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("evict");
  listen.max_connections = 1;
  ServerFixture fx(listen);

  ServeClient a = ServeClient::connect_unix(listen.unix_path);
  EXPECT_TRUE(a.ping());
  // Let a's handler park between frames — only idle connections are
  // eviction candidates; a newcomer racing a still-in-request a would be
  // rejected instead (which b's retry budget also absorbs).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ClientOptions copts;
  copts.max_retries = 5;
  copts.backoff_base_ms = 5.0;
  // b's accept hits the cap; a is idle between frames, so it is evicted.
  ServeClient b = ServeClient::connect_unix(listen.unix_path, copts);
  EXPECT_TRUE(b.ping());
  EXPECT_THROW(a.ping(), Error);  // a's connection was shut down
  EXPECT_EQ(fx.server.server_stats().evictions_total, 1);
  EXPECT_TRUE(b.ping());  // the admitted newcomer is unaffected
}

TEST(ServeServer, AcceptOverloadBacksOffAndRecovers) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("emfile");
  listen.accept_backoff_ms = 5.0;
  ServerFixture fx(listen);

  // Simulate EMFILE-class accept failures for the next two connections:
  // they are dropped (with backoff), not fatal, and the client's retry
  // loop rides through.
  failpoint::Scoped overload("serve.accept.overload",
                             {failpoint::Action::kError, 0, 0, 2});
  ClientOptions copts;
  copts.max_retries = 6;
  copts.backoff_base_ms = 5.0;
  copts.backoff_max_ms = 40.0;
  ServeClient c = ServeClient::connect_unix(listen.unix_path, copts);
  EXPECT_TRUE(c.ping());
  EXPECT_GE(c.retries_observed(), 1);
  EXPECT_EQ(fx.server.server_stats().accept_overload_total, 2);
  EXPECT_NE(c.stats().find("accept_overload_total 2"), std::string::npos);
}

TEST(ServeServer, HealthVerbReportsLifecycle) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("health");
  ServerFixture fx(listen);

  ServeClient client = ServeClient::connect_unix(listen.unix_path);
  EXPECT_EQ(client.health(), "ready");
  {
    failpoint::Scoped broken("serve.model.load");
    std::string msg;
    EXPECT_EQ(client.reload("m", &msg), Status::kInternal);
    EXPECT_EQ(client.health(), "degraded");
  }
  std::string msg;
  EXPECT_EQ(client.reload("m", &msg), Status::kOk);
  EXPECT_EQ(client.health(), "ready");
}

TEST(ServeServer, DrainFinishesInFlightAndRefusesNew) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("drain");
  ServerFixture fx(listen);
  // Accepted before the drain starts: keeps being served throughout.
  ServeClient pre = ServeClient::connect_unix(listen.unix_path);
  EXPECT_TRUE(pre.ping());

  std::vector<std::future<PredictResult>> inflight;
  {
    failpoint::Scoped slow("serve.batch.compute",
                           {failpoint::Action::kDelay, 50, 0, -1});
    for (int i = 0; i < 3; ++i) {
      inflight.push_back(
          fx.engine.predict_async("m", SparseVector({1}, {1.0})));
    }
    fx.server.begin_drain();
    EXPECT_TRUE(fx.server.draining());
    // Existing connections still get answers; predicts are refused with
    // kShuttingDown, probes tell the truth.
    EXPECT_EQ(pre.health(), "draining");
    EXPECT_EQ(pre.predict("m", SparseVector({1}, {1.0})).status,
              Status::kShuttingDown);
    // The listener is closed: nobody new gets in.
    EXPECT_THROW(ServeClient::connect_unix(listen.unix_path), Error);
    // In-flight work finishes within the bound.
    EXPECT_TRUE(fx.server.drain(5000.0));
  }
  for (auto& f : inflight) {
    EXPECT_EQ(f.get().status, Status::kOk);  // drained, not dropped
  }
  const ServerStats s = fx.server.server_stats();
  EXPECT_TRUE(s.draining);
  EXPECT_GT(s.drain_seconds, 0.0);
}

TEST(ServeServer, ClientRequestTimeoutBoundsStalledServer) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("reqtimeout");
  ServerFixture fx(listen);

  ClientOptions copts;
  copts.request_timeout_ms = 60.0;
  ServeClient c = ServeClient::connect_unix(listen.unix_path, copts);
  // The engine stalls well past the client's budget; the client must give
  // up at ~60ms instead of riding out the full compute delay.
  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 400, 0, 1});
  const auto t0 = std::chrono::steady_clock::now();
  try {
    c.predict("m", SparseVector({1}, {1.0}));
    FAIL() << "predict should have hit the request timeout";
  } catch (const IoError& e) {
    EXPECT_TRUE(e.kind() == IoErrorKind::kIdle ||
                e.kind() == IoErrorKind::kTimeout)
        << io_error_kind_name(e.kind());
  }
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(waited_ms, 3000.0);
}

TEST(ServeServer, ClientRetriesBridgeServerRestart) {
  const std::string model_path = temp_model_path("restart_model.txt");
  save_model_file(model_path, make_model(8, 16, 0x4E57));
  ServeEngine engine(fixed_layout_options());
  engine.load_model("m", model_path);
  engine.start();
  ServerOptions listen;
  listen.unix_path = unique_socket_path("restart");
  auto s1 = std::make_unique<ServeServer>(engine, listen);
  s1->start();

  ClientOptions copts;
  copts.max_retries = 10;
  copts.backoff_base_ms = 2.0;
  copts.backoff_max_ms = 20.0;
  ServeClient client = ServeClient::connect_unix(listen.unix_path, copts);
  EXPECT_EQ(client.predict("m", SparseVector({1}, {1.0})).status,
            Status::kOk);

  // Bounce the server. The client's connection dies with it; the next
  // predict must reconnect-and-resend without surfacing an error.
  s1->stop();
  s1.reset();
  ServeServer s2(engine, listen);
  s2.start();
  EXPECT_EQ(client.predict("m", SparseVector({1}, {1.0})).status,
            Status::kOk);
  EXPECT_GE(client.retries_observed(), 1);
  s2.stop();
  engine.stop();
}

TEST(ServeServer, TornResponseIsRetriedTransparently) {
  ServerOptions listen;
  listen.unix_path = unique_socket_path("tornresp");
  ServerFixture fx(listen);

  ClientOptions copts;
  copts.max_retries = 3;
  copts.backoff_base_ms = 1.0;
  ServeClient c = ServeClient::connect_unix(listen.unix_path, copts);
  EXPECT_TRUE(c.ping());
  {
    // skip=1: the client's request write passes through, the server's
    // response write tears (exactly once). The client sees a torn/closed
    // reply and must recover by reconnecting and resending.
    failpoint::Scoped tear("serve.frame.partial",
                           {failpoint::Action::kError, 0, 1, 1});
    EXPECT_EQ(c.predict("m", SparseVector({1}, {1.0})).status, Status::kOk);
  }
  EXPECT_GE(c.retries_observed(), 1);
}

// --- multi-tenant pressure control: quotas + weighted-fair queuing -------

TEST(ServeBatcher, PerModelQuotaShedsFloodButAdmitsOtherTenants) {
  const std::string p1 = temp_model_path("quota1.txt");
  const std::string p2 = temp_model_path("quota2.txt");
  save_model_file(p1, make_model(4, 8, 0x9A1));
  save_model_file(p2, make_model(4, 8, 0x9A2));
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kFixed;
  sched.fixed_format = Format::kCSR;
  const auto m1 = std::make_shared<const LoadedModel>("m1", p1, sched, 8, 1);
  const auto m2 = std::make_shared<const LoadedModel>("m2", p2, sched, 8, 1);

  BatcherOptions opts;
  opts.max_queue = 64;      // the shared queue has plenty of room...
  opts.max_per_model = 2;   // ...but each tenant may only hold 2 slots
  MicroBatcher batcher(opts);

  SubmitReject reject = SubmitReject::kNone;
  ASSERT_TRUE(batcher.submit(m1, SparseVector({0}, {1.0}), 0.0, &reject));
  ASSERT_TRUE(batcher.submit(m1, SparseVector({0}, {1.0}), 0.0, &reject));
  // Third same-tenant submission hits the quota, not the queue limit.
  EXPECT_FALSE(batcher.submit(m1, SparseVector({0}, {1.0}), 0.0, &reject));
  EXPECT_EQ(reject, SubmitReject::kModelQuota);
  // The other tenant is unaffected by m1's flood.
  reject = SubmitReject::kNone;
  EXPECT_TRUE(batcher.submit(m2, SparseVector({0}, {1.0}), 0.0, &reject));
  EXPECT_EQ(reject, SubmitReject::kNone);

  // Extraction frees quota: after m1's cohort is flushed, m1 may queue
  // again.
  std::vector<BatchRequest> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  for (BatchRequest& r : batch) {
    r.done.set_value(PredictResult{Status::kOk, 0.0, 0.0});
  }
  batcher.batch_done();
  EXPECT_TRUE(batcher.submit(m1, SparseVector({0}, {1.0}), 0.0, &reject));
  batcher.stop();
}

TEST(ServeEngine, QuotaShedsAreCountedSeparatelyFromQueueSheds) {
  const std::string path = temp_model_path("quotastats.txt");
  save_model_file(path, make_model(8, 16, 0x9A3));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;
  opts.batcher.max_batch = 1;
  opts.batcher.max_queue = 64;
  opts.batcher.max_per_model = 2;
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();

  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 20, 0, -1});
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(engine.predict_async("m", SparseVector({1}, {1.0})));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    const Status s = f.get().status;
    if (s == Status::kOk) ++ok;
    if (s == Status::kOverloaded) ++shed;
  }
  EXPECT_EQ(ok + shed, 12);
  EXPECT_GE(shed, 1);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.shed_quota_total, shed);
  EXPECT_EQ(stats.shed_queue_total, 0);  // the queue itself never filled
  EXPECT_EQ(stats.shed_total(), shed);
  engine.stop();
}

// The fairness keystone (DESIGN.md §17): tenant A floods the queue at 20x
// tenant B's rate; with weighted-fair extraction B's paced requests must
// still be served promptly (FIFO would park each one behind A's entire
// backlog) and neither tenant may starve. Latency bounds are generous —
// the FIFO failure mode is ~25-50x over budget, so the gate holds under
// TSan's slowdown too.
TEST(ServeEngine, WeightedFairQueuingKeepsPacedTenantWithinBudget) {
  const std::string path = temp_model_path("wfq.txt");
  save_model_file(path, make_model(8, 16, 0xFA1));
  ServeOptions opts = fixed_layout_options();
  opts.workers = 1;  // one scoring lane: extraction order IS the policy
  opts.batcher.max_batch = 8;
  opts.batcher.max_queue = 4096;
  opts.batcher.fair = true;
  ServeEngine engine(opts);
  engine.load_model("tenantA", path);
  engine.load_model("tenantB", path);
  engine.start();

  // Every batch takes ~10ms: queueing policy, not compute, decides who
  // waits. A's 400-deep backlog is ~50 batches = ~500ms of work.
  failpoint::Scoped slow("serve.batch.compute",
                         {failpoint::Action::kDelay, 10, 0, -1});
  std::vector<std::future<PredictResult>> flood;
  for (int i = 0; i < 400; ++i) {
    flood.push_back(engine.predict_async("tenantA", SparseVector({1}, {1.0})));
  }
  std::vector<double> b_ms;
  int b_ok = 0;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (engine.predict("tenantB", SparseVector({1}, {1.0})).status ==
        Status::kOk) {
      ++b_ok;
    }
    b_ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  int a_ok = 0;
  for (auto& f : flood) {
    if (f.get().status == Status::kOk) ++a_ok;
  }
  std::sort(b_ms.begin(), b_ms.end());
  const double b_p95 = b_ms[static_cast<std::size_t>(
      0.95 * static_cast<double>(b_ms.size() - 1))];

  EXPECT_EQ(b_ok, 20);    // B never starves...
  EXPECT_EQ(a_ok, 400);   // ...and A is throttled, not starved
  // FIFO would give B a p95 around the full backlog drain (>= 400ms);
  // fair extraction serves B within a few batch times.
  EXPECT_LT(b_p95, 400.0);
  engine.stop();
}

}  // namespace
}  // namespace ls::serve
