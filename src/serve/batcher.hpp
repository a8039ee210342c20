// Work-conserving micro-batcher: the bounded request queue of the serving
// engine.
//
// Concurrent predict requests are coalesced into batches that the worker
// pool scores with one multiply_dense_batch stream instead of one SMSV per
// request. Flush policy (the batcher state machine, DESIGN.md §12):
//
//   empty   --submit------------------------------------->  pending
//   pending --a worker is free, cohort >= max_batch------>  flush (full:
//                                                           max_batch taken,
//                                                           the rest stays)
//   pending --a worker is free--------------------------->  flush (take the
//                                                           whole cohort)
//
// No request ever waits for company: a free worker takes whatever is
// pending at once, and batches form naturally while every worker is busy
// scoring. A flush extracts one model's queued requests in arrival order
// (batches never mix models — they share one BatchPredictor call), up to
// max_batch requests. Admission control happens at submit(): when the
// queue already holds max_queue requests the submission is rejected
// immediately — shedding at the door is cheaper than timing out after
// queueing.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "formats/sparse_vector.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace ls::serve {

/// One queued request: the model version pinned at submit time, the
/// request vector, the client's remaining latency budget (0 = none) and
/// the promise the worker fulfills.
struct BatchRequest {
  std::shared_ptr<const LoadedModel> model;
  SparseVector x;
  double budget_ms = 0.0;
  std::chrono::steady_clock::time_point enqueued;
  std::promise<PredictResult> done;
};

/// Batcher configuration.
struct BatcherOptions {
  /// Requests per flush; also the SMSV batch width (clamped to
  /// [1, kMaxSmsvBatch] by the engine).
  index_t max_batch = 64;
  /// Admission limit: submissions beyond this queue depth are shed.
  std::size_t max_queue = 1024;
  /// Per-tenant admission quota: a model name with this many requests
  /// already queued has further submissions shed (kOverloaded) even while
  /// the shared queue has room — one tenant's burst cannot monopolise the
  /// queue. 0 = no per-tenant limit (default).
  std::size_t max_per_model = 0;
  /// Weighted-fair extraction (DESIGN.md §17): instead of always flushing
  /// the front request's cohort, pick the queued tenant with the least
  /// normalised service (service / weight, start-time virtual clock), so a
  /// flooding tenant cannot starve a trickling one. Off by default — the
  /// plain FIFO cohort policy has lower jitter for cooperating tenants.
  bool fair = false;
  /// Tenant weights for fair mode, keyed by model name; absent = 1.0.
  /// A tenant with weight 2 receives twice the service share of weight 1.
  std::unordered_map<std::string, double> weights;
};

/// Why submit() rejected a request (reported via its out-parameter so the
/// engine can count queue sheds and quota sheds separately).
enum class SubmitReject : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,
  kModelQuota = 2,
};

/// Bounded, work-conserving request queue (thread-safe).
class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions opts);

  /// Enqueues a request and returns the future its worker will fulfill, or
  /// std::nullopt when the queue is full or the model's tenant quota is
  /// exhausted (admission control; the caller maps that to
  /// Status::kOverloaded, with the reject kind reported through `reject`
  /// when non-null). After stop() the returned future is already satisfied
  /// with kShuttingDown.
  std::optional<std::future<PredictResult>> submit(
      std::shared_ptr<const LoadedModel> model, SparseVector x,
      double budget_ms = 0.0, SubmitReject* reject = nullptr);

  /// Blocks until a request is pending, then moves the cohort chosen by
  /// the flush policy into `out` (previous contents discarded). Returns
  /// false when the batcher was stopped and the queue fully drained — the
  /// worker's exit signal. A successful extraction claims one in-flight
  /// batch *under the queue lock*, so there is no instant at which a batch
  /// has left the queue but is not yet accounted for — the drain predicate
  /// (quiesced()) can never observe "empty and idle" while a batch is
  /// about to be scored. The worker releases the claim with batch_done().
  bool next_batch(std::vector<BatchRequest>& out);

  /// Releases the in-flight claim of one extracted batch once its every
  /// request has been answered.
  void batch_done();

  /// True when no request is queued and no extracted batch is still being
  /// scored — evaluated under one lock, so it is an atomic statement about
  /// both conditions (the engine's drain predicate).
  bool quiesced() const;

  /// Fails every queued request with kShuttingDown and wakes all waiting
  /// workers, whose next_batch() calls then return false. Idempotent;
  /// submissions after stop() are rejected with kShuttingDown.
  void stop();

  /// Current queue depth (requests admitted but not yet extracted).
  std::size_t depth() const;

  const BatcherOptions& options() const { return opts_; }

 private:
  /// Fair-mode cohort choice: the model of the frontmost queued request
  /// belonging to the tenant with minimal normalised service. mu_ held.
  const LoadedModel* fair_cohort_locked() const;
  /// Tenant weight (1.0 unless configured).
  double weight_of(const std::string& name) const;

  BatcherOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchRequest> queue_;
  /// Per-tenant accounting, keyed by model *name* (a tenant spans versions
  /// across reloads). `queued` backs the admission quota; `service` is the
  /// weighted-fair virtual clock: it advances by batch_size / weight on
  /// every extraction, and a tenant going from idle to active starts at the
  /// current virtual time (start-time fairness — an idle tenant banks no
  /// credit). Entries are erased at queued == 0, so the map only holds
  /// active tenants (mu_).
  struct TenantState {
    double service = 0.0;
    std::size_t queued = 0;
  };
  std::unordered_map<std::string, TenantState> tenants_;
  /// Normalised service of the most recently served tenant (mu_).
  double virtual_time_ = 0.0;
  /// Batches extracted by next_batch() but not yet batch_done() (mu_).
  int in_flight_ = 0;
  bool stopped_ = false;
};

}  // namespace ls::serve
