// stream_fresh: reads and writes together.
//
//   - An open-loop ingest stream of adult-shaped examples goes over the
//     socket to a ContinuousTrainer behind TrainFrameHandler; the journal
//     uses the default always-fsync policy under the work directory.
//   - The benchmark calls train_once on the trainer's default cadence: once
//     per retrain interval when new examples were acked, and right away
//     when the previous retrain overran the interval. The ingest sender
//     pauses between two examples while train_once is entered, so each
//     retrain covers the examples acked before the call.
//   - The trainer publishes through a Router to two in-process replicas.
//   - A paced predict stream goes through the router at the same time.
//
// serve handles reloads beside reads, sched runs on every publish (each
// replica's load-time decision), and route, train, svm warm start and the
// WAL all work, while the batched kernels do little.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/wal.hpp"
#include "data/profiles.hpp"
#include "formats/any_matrix.hpp"
#include "harness.hpp"
#include "route/router.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "svm/batch_predict.hpp"
#include "svm/model.hpp"
#include "svm/serialize.hpp"
#include "train/continuous_trainer.hpp"
#include "train/handler.hpp"

namespace perfbench {
namespace {

constexpr const char* kModel = "fresh";
/// Open-loop rates (per second). Nothing in the repo fixes them; README.md
/// gives the headroom each leaves on the layers it loads.
constexpr double kIngestRps = 100.0;
constexpr double kPredictRps = 200.0;
constexpr int kPredictThreads = 2;
/// The trainer's shipped defaults: window capacity and retrain cadence.
const std::size_t kWindow = ls::train::TrainerModelConfig{}.window_capacity;
const double kRetrainIntervalS =
    ls::train::TrainerOptions{}.retrain_interval_ms / 1e3;
/// Examples in the journal before the run: one full window, as a daemon
/// that has been running for a while would replay at restart.
const std::size_t kPrefill = kWindow;
/// Distinct predict request vectors.
constexpr std::size_t kPredictVectors = 256;

/// A served decision agrees with the local reference score.
bool same_decision(double got, double want) {
  return std::fabs(got - want) <= 1e-6 * (1.0 + std::fabs(want));
}

/// p50 of a library timer, in ms (0 when it has no samples).
double timer_p50_ms(const char* name) {
  const ls::metrics::Report rep = ls::metrics::snapshot();
  const auto it = rep.timers.find(name);
  return it == rep.timers.end() ? 0.0 : it->second.p50 * 1e3;
}

/// multiply_dense_batch (kMaxSmsvBatch right-hand sides, best of five) on
/// each served support-vector matrix in the layout its engine chose, in ns
/// per stored nonzero per right-hand side over all of them.
double batch_ns_per_nnz(
    const std::vector<std::shared_ptr<const ls::serve::LoadedModel>>& served,
    ls::Rng& rng) {
  double seconds = 0.0;
  double work = 0.0;
  for (const auto& m : served) {
    const ls::CooMatrix coo = ls::support_vector_matrix(m->model);
    const ls::AnyMatrix sv = ls::AnyMatrix::from_coo(coo, m->predictor.layout());
    const ls::index_t b = ls::kMaxSmsvBatch;
    std::vector<ls::real_t> w(static_cast<std::size_t>(sv.cols() * b));
    for (auto& x : w) x = rng.normal();
    std::vector<ls::real_t> y(static_cast<std::size_t>(sv.rows() * b));
    ScopedSpan span("multiply_dense_batch:" + m->name, "kernels");
    double best = std::numeric_limits<double>::infinity();
    for (int trial = 0; trial < 5; ++trial) {
      const double t0 = now_s();
      sv.multiply_dense_batch(w, b, y);
      best = std::min(best, now_s() - t0);
    }
    seconds += best;
    work += static_cast<double>(coo.nnz()) * static_cast<double>(b);
  }
  return work > 0 ? seconds * 1e9 / work : 0.0;
}

struct Example {
  ls::SparseVector x;
  ls::real_t y = 0.0;
};

/// Adult-shaped examples: the adult profile scaled to `rows` rows.
std::vector<Example> adult_stream(std::size_t rows, std::uint64_t seed) {
  ls::DatasetProfile p = ls::profile_by_name("adult");
  const double per_row = static_cast<double>(p.gen_nnz) /
                         static_cast<double>(p.gen_rows);
  p.gen_rows = static_cast<ls::index_t>(rows);
  p.gen_nnz = static_cast<ls::index_t>(per_row * static_cast<double>(rows));
  const ls::Dataset ds = p.generate(seed);
  std::vector<std::vector<std::pair<ls::index_t, ls::real_t>>> by_row(rows);
  const auto ri = ds.X.row_indices();
  const auto ci = ds.X.col_indices();
  const auto v = ds.X.values();
  for (std::size_t k = 0; k < v.size(); ++k) {
    by_row[static_cast<std::size_t>(ri[k])].emplace_back(ci[k], v[k]);
  }
  std::vector<Example> out(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    auto& e = by_row[r];
    std::sort(e.begin(), e.end());
    std::vector<ls::index_t> idx;
    std::vector<ls::real_t> val;
    for (const auto& [c, x] : e) {
      idx.push_back(c);
      val.push_back(x);
    }
    out[r].x = ls::SparseVector(std::move(idx), std::move(val));
    out[r].y = ds.y[r];
  }
  return out;
}


/// Trainer + two replicas + router, each behind its own socket.
struct Fleet {
  std::unique_ptr<ls::train::ContinuousTrainer> trainer;
  std::unique_ptr<ls::train::TrainFrameHandler> trainer_handler;
  std::unique_ptr<ls::serve::ServeServer> trainer_server;
  std::unique_ptr<ls::serve::ServeEngine> engines[2];
  std::unique_ptr<ls::serve::ServeServer> replica_servers[2];
  std::unique_ptr<ls::route::Router> router;
  std::unique_ptr<ls::serve::ServeServer> router_server;
  double replay_s = 0.0;
  double load_s = 0.0;

  void stop() {
    // Front doors first, then what they call into.
    trainer_server.reset();
    router_server.reset();
    router.reset();
    for (auto& s : replica_servers) s.reset();
    for (auto& e : engines) e.reset();
    trainer_handler.reset();
    trainer.reset();
  }
};

struct Paths {
  std::string dir, journal, model, trainer_sock, router_sock, replica_sock[2];
};

ls::train::TrainerModelConfig model_config(const Paths& p) {
  ls::train::TrainerModelConfig cfg;
  cfg.name = kModel;
  cfg.model_path = p.model;
  cfg.wal_dir = p.journal;
  return cfg;
}

/// Set-up under measurement: journal replay, replica start, router start
/// and the first publish.
void start_fleet(Fleet& f, const Paths& p) {
  ls::train::TrainerOptions topts;
  topts.publish_unix = p.router_sock;
  f.trainer = std::make_unique<ls::train::ContinuousTrainer>(topts);
  {
    ScopedSpan span("add_model(replay)", "train");
    const double t0 = now_s();
    f.trainer->add_model(model_config(p));
    f.replay_s = now_s() - t0;
  }
  std::vector<ls::route::ReplicaEndpoint> eps;
  for (int k = 0; k < 2; ++k) {
    f.engines[k] = std::make_unique<ls::serve::ServeEngine>();
    {
      ScopedSpan span("load_model", "serve");
      const double t0 = now_s();
      f.engines[k]->load_model(kModel, p.model);
      f.load_s += now_s() - t0;
    }
    f.engines[k]->start();
    ls::serve::ServerOptions so;
    so.unix_path = p.replica_sock[k];
    f.replica_servers[k] =
        std::make_unique<ls::serve::ServeServer>(*f.engines[k], so);
    f.replica_servers[k]->start();
    ls::route::ReplicaEndpoint ep;
    ep.unix_path = p.replica_sock[k];
    eps.push_back(ep);
  }
  f.router = std::make_unique<ls::route::Router>(eps);
  f.router->start();
  ls::serve::ServerOptions ro;
  ro.unix_path = p.router_sock;
  f.router_server = std::make_unique<ls::serve::ServeServer>(*f.router, ro);
  f.router_server->start();
  f.trainer_handler =
      std::make_unique<ls::train::TrainFrameHandler>(*f.trainer);
  ls::serve::ServerOptions to;
  to.unix_path = p.trainer_sock;
  f.trainer_server =
      std::make_unique<ls::serve::ServeServer>(*f.trainer_handler, to);
  f.trainer_server->start();
  ScopedSpan span("train_once(first publish)", "train");
  if (!f.trainer->train_once(kModel) ||
      f.trainer->model_stats(kModel).publishes_total != 1) {
    throw std::runtime_error("stream_fresh: first publish failed");
  }
}

/// One published model version and what it should answer.
struct Version {
  std::vector<ls::real_t> expected;  // per predict vector
  double ack_last = 0.0;             // ack time of the last covered example
  double published = 0.0;            // train_once returned
  double first_seen = std::numeric_limits<double>::infinity();
};

struct Answer {
  std::size_t vec = 0;
  double decision = 0.0;
  double done = 0.0;
  int lo = 0;  // oldest version that may answer
  int hi = 0;  // newest version that may answer
};

}  // namespace

int run_stream_fresh(const Args& args, Report& r) {
  Paths p;
  p.dir = args.work_dir;
  p.journal = p.dir + "/journal";
  p.model = p.dir + "/fresh.model";
  p.trainer_sock = p.dir + "/trainer.sock";
  p.router_sock = p.dir + "/router.sock";
  p.replica_sock[0] = p.dir + "/replica0.sock";
  p.replica_sock[1] = p.dir + "/replica1.sock";

  // Inputs: prefill + stream + predict vectors, all from the seed.
  const std::size_t stream_n =
      static_cast<std::size_t>(kIngestRps * args.seconds * 1.5) + 200;
  std::vector<Example> data;
  {
    ScopedSpan span("generate", "data");
    data = adult_stream(kPrefill + stream_n + kPredictVectors,
                        args.seed * 1000003ULL + 17);
  }
  std::vector<ls::SparseVector> queries;
  for (std::size_t k = 0; k < kPredictVectors; ++k) {
    queries.push_back(data[kPrefill + stream_n + k].x);
  }

  // Prefill the journal and write the first model (input preparation,
  // untimed): a trainer without publishing, fsync off.
  {
    ls::train::TrainerOptions popts;
    popts.wal_sync = ls::WalSyncPolicy::kNever;
    ls::train::ContinuousTrainer prefill(popts);
    prefill.add_model(model_config(p));
    for (std::size_t i = 0; i < kPrefill; ++i) {
      prefill.ingest(kModel, data[i].x, data[i].y, nullptr,
                     static_cast<std::int64_t>(i));
    }
    if (!prefill.train_once(kModel)) {
      throw std::runtime_error("stream_fresh: prefill retrain failed");
    }
  }

  if (args.trace) ls::metrics::set_enabled(true);

  // Set-up, kSetups times; the last fleet serves the measured phase.
  std::vector<double> setups;
  std::vector<double> replays;
  std::vector<double> loads;
  Fleet fleet;
  for (int k = 0; k < kSetups; ++k) {
    fleet.stop();
    fleet = Fleet{};
    const double t0 = now_s();
    start_fleet(fleet, p);
    setups.push_back(now_s() - t0);
    replays.push_back(fleet.replay_s);
    loads.push_back(fleet.load_s / 2);
  }
  r.e2e("setup_s", median(setups), "s");
  r.fact("setup_each_s", json_list(setups));

  const auto local_version = [&]() {
    const ls::SvmModel m = ls::load_model_file(p.model);
    ls::SchedulerOptions fixed;
    fixed.policy = ls::SchedulePolicy::kFixed;
    const ls::BatchPredictor pred(m, fixed);
    Version v;
    v.expected.resize(queries.size());
    pred.decision_values(queries, v.expected);
    return v;
  };
  std::vector<Version> versions;
  versions.push_back(local_version());
  versions.back().published = now_s();

  const auto layouts = [&]() {
    std::string s = "[";
    for (int k = 0; k < 2; ++k) {
      s += std::string(k ? ", " : "") +
           json_str(std::string(ls::format_name(
               fleet.engines[k]->model(kModel)->predictor.layout())));
    }
    return s + "]";
  };
  std::string published_layouts = "[" + layouts();

  const ls::train::TrainerModelStats stats0 =
      fleet.trainer->model_stats(kModel);
  const ls::route::RouterStats rstats0 = fleet.router->stats();

  // Shared state between the ingest, retrain and predict threads.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<double> ack_at(stream_n, 0.0);
  std::size_t acked = 0;
  bool ingest_done = false;
  int published = 1;       // versions whose train_once returned
  bool training = false;   // a train_once is in flight
  // Snapshot handshake between the retrain loop and the ingest sender.
  enum class Snap { kNone, kWanted, kCalling } snap = Snap::kNone;
  bool in_flight = false;  // an ingest is on the wire

  // Side journal for wal.append_us (traced run only).
  std::unique_ptr<ls::WriteAheadLog> side_wal;
  std::vector<double> wal_append_us;
  if (args.trace) {
    side_wal = std::make_unique<ls::WriteAheadLog>(p.dir + "/side_wal",
                                                   ls::WalOptions{});
  }

  const double t0 = now_s() + 0.02;
  const double t_stop = t0 + args.seconds;

  // Ingest: one connection, open loop.
  const std::vector<double> ingest_sched =
      poisson_schedule(kIngestRps, args.seconds, args.seed * 7 + 1);
  std::vector<double> ack_ms;
  std::vector<double> gen_late_ms;
  std::int64_t ingest_failed = 0;
  const auto ingest_stream = [&] {
    ls::serve::ClientOptions copts;
    copts.request_timeout_ms = 5000.0;
    ls::serve::ServeClient c =
        ls::serve::ServeClient::connect_unix(p.trainer_sock, copts);
    const std::size_t n = std::min(ingest_sched.size(), stream_n);
    for (std::size_t i = 0; i < n; ++i) {
      const double due = t0 + ingest_sched[i];
      if (now_s() < due) {
        sleep_until_s(due);
        gen_late_ms.push_back((now_s() - due) * 1e3);
      }
      {
        // While a retrain is being entered, wait: train_once snapshots
        // the window a few instructions after the trainer stops being
        // idle, sooner than this example can cross the socket.
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return snap != Snap::kWanted; });
        while (snap == Snap::kCalling && fleet.trainer->idle()) {
          lk.unlock();
          std::this_thread::yield();
          lk.lock();
        }
        in_flight = true;
      }
      const Example& e = data[kPrefill + i];
      const auto id = static_cast<std::int64_t>(kPrefill + i);
      ls::serve::Status st = ls::serve::Status::kInternal;
      {
        ScopedSpan span("ingest", "train", 0, id);
        try {
          st = c.ingest(kModel, id, e.y, e.x);
        } catch (const std::exception&) {
          st = ls::serve::Status::kInternal;
        }
      }
      const double done = now_s();
      if (st != ls::serve::Status::kOk) {
        ++ingest_failed;
        std::lock_guard<std::mutex> lk(mu);
        in_flight = false;
        cv.notify_all();
        continue;
      }
      ack_ms.push_back((done - due) * 1e3);
      if (side_wal) {
        const std::string rec =
            ls::serve::encode_ingest_request(kModel, id, e.y, e.x);
        ScopedSpan span("side_wal.append", "wal", 0, id);
        const double w0 = now_s();
        side_wal->append(rec);
        wal_append_us.push_back((now_s() - w0) * 1e6);
      }
      std::lock_guard<std::mutex> lk(mu);
      ack_at[acked++] = done;
      in_flight = false;
      cv.notify_all();
    }
  };
  // Predicts through the router, open loop; answers are checked at the
  // end, once every version's local predictor exists.
  std::vector<std::vector<Answer>> answers(kPredictThreads);
  std::vector<ls::serve::ServeClient> pclients;
  ls::serve::ClientOptions popts;
  popts.request_timeout_ms = 5000.0;
  for (int t = 0; t < kPredictThreads; ++t) {
    pclients.push_back(
        ls::serve::ServeClient::connect_unix(p.router_sock, popts));
  }
  const std::vector<double> predict_sched =
      poisson_schedule(kPredictRps, args.seconds, args.seed * 7 + 2);
  std::vector<std::size_t> predict_vec(predict_sched.size());
  for (std::size_t i = 0; i < predict_vec.size(); ++i) {
    predict_vec[i] = (i * 2654435761ULL + args.seed) % kPredictVectors;
  }
  OpenLoopResult pres;
  std::exception_ptr ingest_error;

  // The load threads are joined on every way out, exceptions included:
  // join_all is destroyed before the thread objects it joins.
  std::thread ingest_thread;
  std::thread predict_thread;
  struct JoinAll {
    std::thread* threads[2];
    ~JoinAll() {
      for (std::thread* t : threads) {
        if (t->joinable()) t->join();
      }
    }
  } join_all{{&ingest_thread, &predict_thread}};
  ingest_thread = std::thread([&] {
    try {
      ingest_stream();
    } catch (...) {
      ingest_error = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu);
    ingest_done = true;  // also on failure: the retrain loop waits on it
    cv.notify_all();
  });
  predict_thread = std::thread([&] {
    pres = run_open_loop(predict_sched, t0, kPredictThreads,
                         [&](int t, std::size_t i) {
      Answer a;
      a.vec = predict_vec[i];
      {
        std::lock_guard<std::mutex> lk(mu);
        a.lo = published - 1;
      }
      ScopedSpan span("predict(routed)", "route", 0,
                      static_cast<std::int64_t>(i));
      const ls::serve::PredictResult pr =
          pclients[static_cast<std::size_t>(t)].predict(kModel,
                                                        queries[a.vec]);
      a.done = now_s();
      {
        std::lock_guard<std::mutex> lk(mu);
        a.hi = published - 1 + (training ? 1 : 0);
      }
      if (pr.status != ls::serve::Status::kOk) return false;
      a.decision = pr.decision;
      answers[static_cast<std::size_t>(t)].push_back(a);
      return true;
    });
  });

  // Retrains on the trainer's default cadence, on this thread: one per
  // retrain interval when examples were acked since the last one, and
  // right away when the previous retrain overran the interval.
  ls::serve::ServeClient probe =
      ls::serve::ServeClient::connect_unix(p.router_sock, popts);
  std::vector<double> trigger_wait_s, train_once_s;
  std::vector<double> decide_s, probe_s, mat_s, solve_s;
  std::vector<double> iterations, warm_ratio;
  std::vector<Answer> probe_answers;
  std::int64_t retrain_failed = 0;
  std::int64_t retrains = 0;
  std::int64_t publishes_before = stats0.publishes_total;
  std::int64_t publish_failures_before = stats0.publish_failures_total;
  std::size_t covered = 0;  // stream examples the last retrain covered
  std::string new_per_retrain = "[";
  double due = t0 + kRetrainIntervalS;
  for (std::size_t j = 1; now_s() <= t_stop; ++j) {
    sleep_until_s(due);
    double ack_last = 0.0;
    {
      // Quiet the sender between two examples, so the acked examples are
      // the ones this retrain's snapshot covers.
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return acked > covered || ingest_done; });
      if (acked == covered) break;
      snap = Snap::kWanted;
      cv.wait(lk, [&] { return !in_flight; });
      new_per_retrain += (j > 1 ? ", " : "") + std::to_string(acked - covered);
      covered = acked;
      ack_last = ack_at[covered - 1];
      training = true;
      snap = Snap::kCalling;
      cv.notify_all();
    }
    const double d0 = args.trace ? timer_total("sched.decide_seconds") : 0.0;
    const double pr0 = args.trace ? timer_total("sched.probe_seconds.")
                                  : 0.0;
    const double m0 =
        args.trace ? timer_total("sched.materialize_seconds") : 0.0;
    const double s0 = args.trace ? timer_total("svm.smo.solve_seconds") : 0.0;
    const double start = now_s();
    due = start + kRetrainIntervalS;
    const auto op = static_cast<std::int64_t>(j);
    const std::int64_t span_id = tracer().reserve();
    const bool ok = fleet.trainer->train_once(kModel);
    const double end = now_s();
    tracer().add_with_id(span_id, "train_once", "train", start, end, 0, op);
    {
      std::lock_guard<std::mutex> lk(mu);
      snap = Snap::kNone;
      cv.notify_all();
    }
    ++retrains;
    // train_once returns true when the model was saved, also when its
    // publish failed; the trainer's publish counters tell the two apart.
    const ls::train::TrainerModelStats ms = fleet.trainer->model_stats(kModel);
    const bool publish_ok =
        ms.publishes_total == publishes_before + 1 &&
        ms.publish_failures_total == publish_failures_before;
    publishes_before = ms.publishes_total;
    publish_failures_before = ms.publish_failures_total;
    if (!publish_ok) ++retrain_failed;  // also when the retrain failed
    if (!ok) {
      std::lock_guard<std::mutex> lk(mu);
      training = false;
      continue;
    }
    Version v = local_version();
    v.ack_last = ack_last;
    v.published = end;
    // Visibility probe: one routed predict right after the publish.
    Answer a;
    a.vec = j % kPredictVectors;
    {
      ScopedSpan span("predict(probe)", "route", 0, op);
      const ls::serve::PredictResult pr = probe.predict(kModel, queries[a.vec]);
      a.done = now_s();
      a.decision = pr.status == ls::serve::Status::kOk
                       ? pr.decision
                       : std::numeric_limits<double>::quiet_NaN();
    }
    {
      std::lock_guard<std::mutex> lk(mu);
      versions.push_back(std::move(v));
      ++published;
      training = false;
      a.lo = a.hi = published - 1;
    }
    probe_answers.push_back(a);
    published_layouts += ", " + layouts();
    trigger_wait_s.push_back(start - ack_last);
    train_once_s.push_back(end - start);
    iterations.push_back(static_cast<double>(ms.last_iterations));
    warm_ratio.push_back(static_cast<double>(ms.last_warm_seeded) /
                         static_cast<double>(std::max<std::size_t>(
                             1, ms.window_size)));
    if (args.trace) {
      decide_s.push_back(timer_total("sched.decide_seconds") - d0);
      probe_s.push_back(timer_total("sched.probe_seconds.") - pr0);
      mat_s.push_back(timer_total("sched.materialize_seconds") - m0);
      solve_s.push_back(timer_total("svm.smo.solve_seconds") - s0);
      // train_once solves first and publishes last; the replicas' layout
      // decisions run inside the publish. Child spans are placed in that
      // order from the library's timer totals.
      tracer().add("solve", "svm", start, start + solve_s.back(), span_id, op);
      tracer().add("decide(replicas)", "sched",
                   std::max(start, end - decide_s.back()), end, span_id, op);
    }
  }
  ingest_thread.join();
  predict_thread.join();
  if (ingest_error) std::rethrow_exception(ingest_error);
  r.fact("published_layouts", published_layouts + "]");
  r.fact("retrain_new_examples", new_per_retrain + "]");
  r.fact("retrain_s", json_list(train_once_s));
  r.fact("retrain_iterations", json_list(iterations));

  // Check every routed answer against the versions that could have served
  // it, and find when each new version was first seen.
  std::int64_t wrong = 0;
  const auto judge = [&](const Answer& a) {
    bool ok = false;
    for (int v = std::max(0, a.lo);
         v <= std::min<int>(a.hi, static_cast<int>(versions.size()) - 1);
         ++v) {
      if (!same_decision(a.decision, versions[v].expected[a.vec])) continue;
      ok = true;
      const bool old_too =
          v > 0 && same_decision(a.decision, versions[v - 1].expected[a.vec]);
      if (!old_too) versions[v].first_seen = std::min(versions[v].first_seen, a.done);
    }
    if (!ok) ++wrong;
  };
  for (const auto& per : answers) {
    for (const Answer& a : per) judge(a);
  }
  for (const Answer& a : probe_answers) judge(a);
  std::vector<double> fresh_s;
  std::vector<double> visible;
  for (std::size_t v = 1; v < versions.size(); ++v) {
    if (!std::isfinite(versions[v].first_seen)) continue;
    fresh_s.push_back(versions[v].first_seen - versions[v].ack_last);
    // Signed: a replica can answer with the new weights before train_once
    // returns, since the publish runs inside it.
    visible.push_back(versions[v].first_seen - versions[v].published);
  }
  const std::int64_t answered = static_cast<std::int64_t>(
      probe_answers.size()) + pres.attempted;
  r.check("predict.ok_and_matches_serving_version", answered,
          pres.failed + wrong);
  if (wrong > 0) {
    r.note_failure(std::to_string(wrong) +
                   " routed predicts matched no version that could serve");
  }
  r.check("train.retrain_published", retrains, retrain_failed);
  if (retrain_failed > 0) {
    r.note_failure(std::to_string(retrain_failed) +
                   " retrains were not accepted and published");
  }

  // Every acked ingest is counted, and the journal replays the live window.
  const ls::train::TrainerModelStats stats1 =
      fleet.trainer->model_stats(kModel);
  const std::int64_t n_acked = static_cast<std::int64_t>(ack_ms.size());
  const bool counted = stats1.ingested - stats0.ingested == n_acked &&
                       stats1.duplicates_total == stats0.duplicates_total &&
                       stats1.journal_failures_total == 0 &&
                       !stats1.journal_degraded;
  r.check("ingest.acked", n_acked + ingest_failed, ingest_failed);
  const ls::route::RouterStats rstats1 = fleet.router->stats();

  // Route overhead (traced): routed against direct-to-replica p50 on two
  // short probe streams at the same rate, with ingest stopped.
  // Arrivals alternate between a routed and a direct connection, so both
  // streams see the same replica state.
  double route_overhead_ms = 0.0;
  if (args.trace) {
    ls::serve::ServeClient via[2] = {
        ls::serve::ServeClient::connect_unix(p.router_sock, popts),
        ls::serve::ServeClient::connect_unix(p.replica_sock[0], popts)};
    std::vector<double> ms[2];
    const std::vector<double> s =
        poisson_schedule(kPredictRps, 2.0, args.seed * 7 + 3);
    run_open_loop(s, now_s() + 0.01, 2, [&](int t, std::size_t i) {
      const double s0 = now_s();
      const bool ok = via[t].predict(kModel, queries[i % kPredictVectors])
                          .status == ls::serve::Status::kOk;
      if (ok) ms[t].push_back((now_s() - s0) * 1e3);
      return ok;
    });
    route_overhead_ms = median(ms[0]) - median(ms[1]);
    // The replicas' engines over the whole traced run.
    const double request_ms = timer_p50_ms("serve.request_seconds");
    const double batch_ms = timer_p50_ms("serve.batch_seconds");
    ls::serve::ServeStats st;  // both replicas
    std::int64_t shed = 0;
    for (const auto& e : fleet.engines) {
      const ls::serve::ServeStats s = e->stats();
      st.requests_total += s.requests_total;
      st.batches_total += s.batches_total;
      st.batched_rows_total += s.batched_rows_total;
      shed += s.shed_total();
    }
    r.layer("serve.request_ms", request_ms, "ms");
    r.layer("serve.batch_ms", batch_ms, "ms");
    r.layer("serve.queue_ms", request_ms - batch_ms, "ms");
    r.layer("serve.wire_ms", median(ms[1]) - request_ms, "ms");
    r.layer("serve.batch_occupancy", st.mean_batch_occupancy(), "rows");
    r.layer("serve.shed_ratio",
            st.requests_total > 0
                ? static_cast<double>(shed) /
                      static_cast<double>(st.requests_total)
                : 0.0,
            "ratio");
    ls::Rng rng(args.seed);
    std::vector<std::shared_ptr<const ls::serve::LoadedModel>> served;
    for (const auto& e : fleet.engines) served.push_back(e->model(kModel));
    r.layer("kernels.batch_ns_per_nnz", batch_ns_per_nnz(served, rng),
            "ns/nnz");
  }
  pclients.clear();
  probe.close();
  fleet.stop();

  {
    ls::train::TrainerOptions ropts;
    ls::train::ContinuousTrainer replayed(ropts);
    replayed.add_model(model_config(p));
    const ls::train::TrainerModelStats rs = replayed.model_stats(kModel);
    const bool same_window = rs.window_size == stats1.window_size &&
                             rs.window_digest == stats1.window_digest;
    r.check("ingest.counted_and_replayed", 1, counted && same_window ? 0 : 1);
    if (!counted || !same_window) {
      r.note_failure("acked examples lost: counted=" +
                     std::to_string(counted) +
                     " replayed_window_matches=" + std::to_string(same_window));
    }
  }

  std::fprintf(stderr,
               "stream_fresh: %zu acks, %lld retrains, %zu predicts, "
               "fresh p50 %.3f s\n",
               ack_ms.size(), static_cast<long long>(retrains),
               pres.latency_ms.size(), median(fresh_s));
  r.e2e("predict.p50_ms", quantile(pres.latency_ms, 0.5), "ms");
  r.e2e("predict.p90_ms", quantile(pres.latency_ms, 0.9), "ms");
  r.e2e("predict.p99_ms", quantile(pres.latency_ms, 0.99), "ms");
  r.e2e("predict.samples", static_cast<double>(pres.latency_ms.size()),
        "count");
  r.e2e("ingest.ack_p50_ms", quantile(ack_ms, 0.5), "ms");
  r.e2e("ingest.ack_p99_ms", quantile(ack_ms, 0.99), "ms");
  r.e2e("ingest.samples", static_cast<double>(ack_ms.size()), "count");
  r.e2e("fresh.p50_s", median(fresh_s), "s");
  r.e2e("fresh.max_s", quantile(fresh_s, 1.0), "s");
  r.e2e("fresh.samples", static_cast<double>(fresh_s.size()), "count");
  if (!args.trace) return 0;

  r.layer("train.replay_s", median(replays), "s");
  r.layer("serve.load_s", median(loads), "s");
  r.layer("train.trigger_wait_s", median(trigger_wait_s), "s");
  r.layer("train.train_once_s", median(train_once_s), "s");
  r.layer("train.visible_s", median(visible), "s");
  r.layer("sched.decide_s", median(decide_s), "s");
  r.layer("sched.probe_s", median(probe_s), "s");
  r.layer("sched.materialize_s", median(mat_s), "s");
  r.layer("svm.solve_s", median(solve_s), "s");
  r.layer("svm.iterations", median(iterations), "count");
  r.layer("svm.warm_seeded_ratio", median(warm_ratio), "ratio");
  r.layer("route.overhead_ms", route_overhead_ms, "ms");
  r.layer("route.failover_total",
          static_cast<double>(rstats1.failover_total - rstats0.failover_total),
          "count");
  r.layer("route.exhausted_total",
          static_cast<double>(rstats1.exhausted_total -
                              rstats0.exhausted_total),
          "count");
  r.layer("wal.append_us", median(wal_append_us), "us");
  std::vector<double> late = gen_late_ms;
  late.insert(late.end(), pres.late_ms.begin(), pres.late_ms.end());
  r.layer("gen.late_ms", quantile(late, 0.99), "ms");
  return 0;
}

}  // namespace perfbench
