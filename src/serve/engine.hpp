// ServeEngine: the persistent in-process prediction-serving runtime.
//
// The one-shot CLI path pays the scheduler's layout decision and the
// support-vector materialisation on every invocation; the engine pays them
// once per model *load* and then amortises them over a long-lived request
// stream — the paper's runtime-scheduling argument applied to inference.
// Components:
//
//   ModelRegistry   N hosted models, layouts chosen at load time
//                   (probed on the single-row SMSV, as in training)
//   MicroBatcher    bounded queue; coalesces concurrent requests
//   worker pool     scores batches via BatchPredictor's re-entrant
//                   span API (one multiply_dense_batch per flush)
//   admission ctl   queue-depth shedding at submit, latency-budget
//                   shedding at dequeue
//
// All statistics are atomics written with release and read with acquire,
// so stats() is a race-free snapshot while workers run (TSan-clean).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sched/scheduler.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/rescheduler.hpp"

namespace ls::serve {

/// Engine configuration.
struct ServeOptions {
  int workers = 2;                  ///< scoring threads
  BatcherOptions batcher;           ///< flush policy + admission limit
  /// Requests that already waited longer than this when a worker dequeues
  /// them are shed with kOverloaded instead of scored — compute spent on a
  /// request the client has given up on is pure waste. 0 disables.
  double latency_budget_ms = 0.0;
  /// Load-time scheduler options, used as given: the decision races the
  /// same single-row SMSV as training does.
  SchedulerOptions sched;
  /// Online layout re-scheduling policy (off unless reschedule.enabled).
  ReschedulerOptions reschedule;
};

/// Engine-level health, surfaced through the protocol's health verb (the
/// server adds the "draining" state on top).
enum class EngineHealth {
  kLive,      ///< process up, but not serving (no models or not started)
  kReady,     ///< serving traffic
  kDegraded,  ///< serving, but the latest reload of >=1 model failed and
              ///< the last-good version is still live
};

/// Human-readable health-state name (the health verb's reply text).
const char* engine_health_name(EngineHealth h);

/// Race-free point-in-time statistics snapshot.
struct ServeStats {
  std::int64_t requests_total = 0;       ///< admitted + rejected
  std::int64_t ok_total = 0;             ///< scored successfully
  std::int64_t shed_queue_total = 0;     ///< rejected at submit (queue full)
  std::int64_t shed_quota_total = 0;     ///< rejected at submit (tenant quota)
  std::int64_t shed_deadline_total = 0;  ///< dropped at dequeue (stale)
  std::int64_t shed_expired_total = 0;   ///< client deadline already blown
  std::int64_t unknown_model_total = 0;
  std::int64_t bad_dimension_total = 0;
  std::int64_t internal_error_total = 0;
  std::int64_t batches_total = 0;
  std::int64_t batched_rows_total = 0;   ///< sum of batch occupancies
  std::int64_t reloads_total = 0;        ///< load_model calls that replaced
  std::int64_t reload_failures_total = 0;
  std::int64_t reschedules_total = 0;    ///< online layout swaps performed
  std::int64_t reschedule_failures_total = 0;
  std::size_t degraded_models = 0;       ///< models serving a stale version
  std::size_t queue_depth = 0;
  std::size_t models = 0;

  /// Mean requests per flush — the micro-batching payoff indicator.
  double mean_batch_occupancy() const {
    return batches_total > 0 ? static_cast<double>(batched_rows_total) /
                                   static_cast<double>(batches_total)
                             : 0.0;
  }
  std::int64_t shed_total() const {
    return shed_queue_total + shed_quota_total + shed_deadline_total +
           shed_expired_total;
  }
};

/// Persistent serving engine. start() spawns the worker pool; predict()
/// blocks the calling thread (one server connection handler each) until
/// its batch is scored. Thread-safe throughout.
class ServeEngine {
 public:
  explicit ServeEngine(ServeOptions opts = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Spawns the worker pool (idempotent).
  void start();

  /// Drains the queue (pending requests fail with kShuttingDown) and joins
  /// the workers. Idempotent; the destructor calls it.
  void stop();

  /// Loads (or hot-reloads) `name` from `path`: deserializes the
  /// CRC-verified model file, runs the load-time layout decision, and
  /// atomically swaps the registry entry. In-flight requests keep the
  /// version they resolved at submit. Throws ls::Error on unreadable or
  /// corrupt files — the previously served version (if any) stays live,
  /// so a bad reload never takes a model down.
  void load_model(const std::string& name, const std::string& path);

  /// Reloads `name` from the path it was originally loaded from. On
  /// failure the previous version keeps serving and the model is flagged
  /// degraded (cleared by the next successful load).
  void reload_model(const std::string& name);

  /// Removes `name`; returns false when it was not hosted.
  bool unload_model(const std::string& name);

  /// Current version of a hosted model (nullptr when absent).
  std::shared_ptr<const LoadedModel> model(const std::string& name) const;

  /// Every hosted model, ordered by name.
  std::vector<std::shared_ptr<const LoadedModel>> models() const;

  /// Validates and enqueues one request; the future resolves when a worker
  /// scores its batch (or immediately for rejections — unknown model, bad
  /// dimension, shed, shutting down). Never throws on bad requests: the
  /// status codes are the error contract.
  /// `deadline_ms` is the client's remaining latency budget (propagated
  /// from the request header; 0 = none): a request still queued past it is
  /// shed with kOverloaded before any compute is spent on it.
  std::future<PredictResult> predict_async(const std::string& model,
                                           SparseVector x,
                                           double deadline_ms = 0.0);

  /// Blocking convenience wrapper around predict_async().
  PredictResult predict(const std::string& model, SparseVector x,
                        double deadline_ms = 0.0);

  /// True when no request is queued and no batch is being scored — the
  /// drain predicate of the socket server.
  bool idle() const;

  EngineHealth health() const;
  const char* health_name() const { return engine_health_name(health()); }

  ServeStats stats() const;

  /// Human-readable stats block (the kStatsReq reply).
  std::string stats_text() const;

  /// Per-model inventory block (the kModelsReq reply): one line per hosted
  /// model with its name, version, content generation and active layout —
  /// the fields scripts need to verify that a published reload actually
  /// landed (version moved) versus a re-layout (generation unchanged).
  std::string models_text() const;

  const ServeOptions& options() const { return opts_; }

  /// The online layout policy, or nullptr when opts.reschedule.enabled is
  /// false. Exposed so tests and tools can drive tick()/inspect stats().
  LayoutRescheduler* rescheduler() { return rescheduler_.get(); }
  const LayoutRescheduler* rescheduler() const { return rescheduler_.get(); }

 private:
  void worker_loop();
  void score_batch(std::vector<BatchRequest>& batch);

  ServeOptions opts_;
  index_t predictor_batch_rows_;  ///< SMSV width models are built with
  ModelRegistry registry_;
  MicroBatcher batcher_;
  std::unique_ptr<LayoutRescheduler> rescheduler_;  ///< null when disabled
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};

  // Statistics: release on write, acquire on read (stats()).
  std::atomic<std::int64_t> requests_total_{0};
  std::atomic<std::int64_t> ok_total_{0};
  std::atomic<std::int64_t> shed_queue_total_{0};
  std::atomic<std::int64_t> shed_quota_total_{0};
  std::atomic<std::int64_t> shed_deadline_total_{0};
  std::atomic<std::int64_t> shed_expired_total_{0};
  std::atomic<std::int64_t> unknown_model_total_{0};
  std::atomic<std::int64_t> bad_dimension_total_{0};
  std::atomic<std::int64_t> internal_error_total_{0};
  std::atomic<std::int64_t> batches_total_{0};
  std::atomic<std::int64_t> batched_rows_total_{0};
  std::atomic<std::int64_t> reloads_total_{0};
  std::atomic<std::int64_t> reload_failures_total_{0};

  /// Models whose latest reload failed (last-good version still serving).
  mutable std::mutex degraded_mu_;
  std::set<std::string> degraded_;
};

}  // namespace ls::serve
