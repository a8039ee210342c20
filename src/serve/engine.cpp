#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "formats/format.hpp"
#include "kernels/simd.hpp"

namespace ls::serve {

namespace {

PredictResult immediate(Status s) { return PredictResult{s, 0.0, 0.0}; }

std::future<PredictResult> ready_future(PredictResult r) {
  std::promise<PredictResult> p;
  p.set_value(r);
  return p.get_future();
}

double ms_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

const char* engine_health_name(EngineHealth h) {
  switch (h) {
    case EngineHealth::kLive: return "live";
    case EngineHealth::kReady: return "ready";
    case EngineHealth::kDegraded: return "degraded";
  }
  return "?";
}

ServeEngine::ServeEngine(ServeOptions opts)
    : opts_(opts),
      predictor_batch_rows_(
          std::clamp<index_t>(opts.batcher.max_batch, 1, kMaxSmsvBatch)),
      batcher_(opts.batcher) {
  opts_.workers = std::max(1, opts_.workers);
  if (opts_.reschedule.enabled) {
    rescheduler_ = std::make_unique<LayoutRescheduler>(
        registry_, predictor_batch_rows_, opts_.reschedule);
  }
}

ServeEngine::~ServeEngine() { stop(); }

void ServeEngine::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int w = 0; w < opts_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (rescheduler_) rescheduler_->start();
}

void ServeEngine::stop() {
  // Policy thread first: a layout swap concurrent with drain is harmless,
  // but there is no point re-materialising models nobody will query.
  if (rescheduler_) rescheduler_->stop();
  batcher_.stop();
  running_.store(false);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void ServeEngine::load_model(const std::string& name,
                             const std::string& path) {
  LS_FAILPOINT("serve.load_model");
  const bool previous = registry_.get(name) != nullptr;
  // Reserve the version AND content generation BEFORE the expensive build:
  // concurrent reloads of the same name each get distinct, strictly
  // increasing numbers, so the snapshot-then-put race (two loads minting
  // the same version, or an older build clobbering a newer one) cannot
  // occur. The expensive part — deserialize + layout decision +
  // materialise — still happens off the registry lock; traffic keeps
  // hitting the previous version until the single-pointer swap below.
  const LoadTicket ticket = registry_.reserve_load(name);
  auto loaded = std::make_shared<LoadedModel>(name, path, opts_.sched,
                                              predictor_batch_rows_,
                                              ticket.version,
                                              ticket.content_gen);
  if (!registry_.put_if_newer(std::move(loaded))) {
    // A concurrent load that reserved a later content generation already
    // finished: its content is at least as fresh as ours, so losing this
    // race is a success from the caller's point of view — just account
    // for it. (A rescheduler re-layout of older content can NOT cause
    // this: put_if_newer re-mints our version past it and installs — new
    // on-disk content is never clobbered by a re-layout of old weights.)
    metrics::counter_add("serve.stale_loads_total");
  }
  {
    // A successful load clears any degraded flag a failed reload left.
    std::lock_guard<std::mutex> lk(degraded_mu_);
    degraded_.erase(name);
  }
  if (previous) {
    reloads_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.reloads_total");
  }
}

void ServeEngine::reload_model(const std::string& name) {
  const auto current = registry_.get(name);
  LS_CHECK(current != nullptr, "cannot reload unknown model '" << name << "'");
  try {
    load_model(name, current->source_path);
  } catch (const std::exception&) {
    // Last-good version keeps serving; report it through the health verb.
    reload_failures_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.reload_failures_total");
    {
      std::lock_guard<std::mutex> lk(degraded_mu_);
      degraded_.insert(name);
    }
    throw;
  }
}

bool ServeEngine::unload_model(const std::string& name) {
  return registry_.erase(name);
}

std::shared_ptr<const LoadedModel> ServeEngine::model(
    const std::string& name) const {
  return registry_.get(name);
}

std::vector<std::shared_ptr<const LoadedModel>> ServeEngine::models() const {
  return registry_.list();
}

std::future<PredictResult> ServeEngine::predict_async(const std::string& model,
                                                      SparseVector x,
                                                      double deadline_ms) {
  requests_total_.fetch_add(1, std::memory_order_release);
  metrics::counter_add("serve.requests_total");
  if (!running_.load(std::memory_order_acquire)) {
    return ready_future(immediate(Status::kShuttingDown));
  }
  auto loaded = registry_.get(model);
  if (!loaded) {
    unknown_model_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.unknown_model_total");
    return ready_future(immediate(Status::kUnknownModel));
  }
  // Dimension gate: a request vector wider than the model would scatter
  // out of bounds in the dense SMSV workspace. Reject it as a protocol
  // error instead of reading past the buffer.
  if (!loaded->model.accepts(x)) {
    bad_dimension_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.bad_dimension_total");
    return ready_future(immediate(Status::kBadDimension));
  }
  SubmitReject reject = SubmitReject::kNone;
  auto fut =
      batcher_.submit(std::move(loaded), std::move(x), deadline_ms, &reject);
  if (!fut) {
    metrics::counter_add("serve.shed_total");
    if (reject == SubmitReject::kModelQuota) {
      shed_quota_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.shed_quota_total");
    } else {
      shed_queue_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.shed_queue_total");
    }
    return ready_future(immediate(Status::kOverloaded));
  }
  return std::move(*fut);
}

PredictResult ServeEngine::predict(const std::string& model, SparseVector x,
                                   double deadline_ms) {
  return predict_async(model, std::move(x), deadline_ms).get();
}

bool ServeEngine::idle() const {
  // Queue emptiness and in-flight batches are judged under one lock — a
  // batch is claimed in-flight by next_batch() in the same critical
  // section that pops it, so there is no instant where a popped-but-not-
  // yet-counted batch makes the engine look idle.
  return batcher_.quiesced();
}

EngineHealth ServeEngine::health() const {
  {
    std::lock_guard<std::mutex> lk(degraded_mu_);
    if (!degraded_.empty()) return EngineHealth::kDegraded;
  }
  if (running_.load(std::memory_order_acquire) && registry_.size() > 0) {
    return EngineHealth::kReady;
  }
  return EngineHealth::kLive;
}

void ServeEngine::worker_loop() {
  std::vector<BatchRequest> batch;
  // next_batch() claims the batch in-flight under the batcher's lock;
  // batch_done() releases the claim once every promise is fulfilled.
  while (batcher_.next_batch(batch)) {
    score_batch(batch);
    batcher_.batch_done();
  }
}

void ServeEngine::score_batch(std::vector<BatchRequest>& batch) {
  const auto now = std::chrono::steady_clock::now();

  // Deadline + latency-budget shedding: a request whose propagated client
  // deadline already expired in the queue, or that overstayed the server's
  // own latency budget, is answered kOverloaded without spending compute
  // on it — the client has given up (or will before the reply lands).
  std::vector<BatchRequest*> live;
  live.reserve(batch.size());
  for (BatchRequest& req : batch) {
    const double waited_ms = ms_since(req.enqueued, now);
    // Queue stage (enqueue to dequeue), timed whatever the outcome.
    metrics::timer_record("serve.stage.queue_seconds", waited_ms / 1e3);
    if (req.budget_ms > 0 && waited_ms > req.budget_ms) {
      shed_expired_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.shed_total");
      metrics::counter_add("serve.shed_expired_total");
      req.done.set_value(immediate(Status::kOverloaded));
    } else if (opts_.latency_budget_ms > 0 &&
               waited_ms > opts_.latency_budget_ms) {
      shed_deadline_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.shed_total");
      metrics::counter_add("serve.shed_deadline_total");
      req.done.set_value(immediate(Status::kOverloaded));
    } else {
      live.push_back(&req);
    }
  }
  if (live.empty()) return;

  const LoadedModel& model = *live.front()->model;
  std::vector<SparseVector> rows;
  std::vector<real_t> values(live.size());
  rows.reserve(live.size());
  for (BatchRequest* req : live) rows.push_back(std::move(req->x));

  batches_total_.fetch_add(1, std::memory_order_release);
  batched_rows_total_.fetch_add(static_cast<std::int64_t>(live.size()),
                                std::memory_order_release);
  metrics::counter_add("serve.batches_total");
  metrics::counter_add("serve.batched_rows_total",
                       static_cast<std::int64_t>(live.size()));
  metrics::gauge_set("serve.batch_occupancy",
                     static_cast<double>(live.size()));
  metrics::gauge_set("serve.queue_depth",
                     static_cast<double>(batcher_.depth()));

  double compute_seconds = 0.0;
  try {
    LS_FAILPOINT("serve.batch.compute");
    const auto t0 = std::chrono::steady_clock::now();
    model.predictor.decision_values(rows, values);
    compute_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    metrics::timer_record("serve.batch_seconds", compute_seconds);
    if (metrics::enabled()) {
      metrics::timer_record(
          "serve.batch_seconds." + model.name + "." +
              std::string(format_name(model.predictor.layout())),
          compute_seconds);
    }
  } catch (const std::exception&) {
    // Scoring died (failpoint, OOM, ...): fail this batch, keep serving.
    for (BatchRequest* req : live) {
      internal_error_total_.fetch_add(1, std::memory_order_release);
      metrics::counter_add("serve.internal_error_total");
      req->done.set_value(immediate(Status::kInternal));
    }
    return;
  }

  // Telemetry for the online layout policy: this batch's rows took
  // compute_seconds in the model's current layout.
  if (rescheduler_) {
    rescheduler_->observe(model, static_cast<index_t>(live.size()),
                          compute_seconds);
  }

  const auto done = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < live.size(); ++k) {
    PredictResult r;
    r.status = Status::kOk;
    r.decision = values[k];
    r.label = values[k] >= 0 ? 1.0 : -1.0;
    ok_total_.fetch_add(1, std::memory_order_release);
    metrics::timer_record("serve.request_seconds",
                          ms_since(live[k]->enqueued, done) / 1e3);
    live[k]->done.set_value(r);
  }
}

ServeStats ServeEngine::stats() const {
  ServeStats s;
  // Outcome counters are read BEFORE requests_total: every outcome
  // increment happens after its request's requests_total increment, so
  // this order keeps `ok + shed + errors <= requests_total` true in any
  // snapshot taken while traffic is in flight (the reverse order can
  // observe outcomes of requests it has not counted yet).
  s.ok_total = ok_total_.load(std::memory_order_acquire);
  s.shed_queue_total = shed_queue_total_.load(std::memory_order_acquire);
  s.shed_quota_total = shed_quota_total_.load(std::memory_order_acquire);
  s.shed_deadline_total =
      shed_deadline_total_.load(std::memory_order_acquire);
  s.shed_expired_total = shed_expired_total_.load(std::memory_order_acquire);
  s.unknown_model_total =
      unknown_model_total_.load(std::memory_order_acquire);
  s.bad_dimension_total =
      bad_dimension_total_.load(std::memory_order_acquire);
  s.internal_error_total =
      internal_error_total_.load(std::memory_order_acquire);
  s.requests_total = requests_total_.load(std::memory_order_acquire);
  s.batches_total = batches_total_.load(std::memory_order_acquire);
  s.batched_rows_total = batched_rows_total_.load(std::memory_order_acquire);
  s.reloads_total = reloads_total_.load(std::memory_order_acquire);
  s.reload_failures_total =
      reload_failures_total_.load(std::memory_order_acquire);
  if (rescheduler_) {
    s.reschedules_total = rescheduler_->reschedules_total();
    s.reschedule_failures_total = rescheduler_->reschedule_failures_total();
  }
  {
    std::lock_guard<std::mutex> lk(degraded_mu_);
    s.degraded_models = degraded_.size();
  }
  s.queue_depth = batcher_.depth();
  s.models = registry_.size();
  return s;
}

std::string ServeEngine::stats_text() const {
  const ServeStats s = stats();
  std::ostringstream os;
  os << "requests_total " << s.requests_total << '\n'
     << "ok_total " << s.ok_total << '\n'
     << "shed_queue_total " << s.shed_queue_total << '\n'
     << "shed_quota_total " << s.shed_quota_total << '\n'
     << "shed_deadline_total " << s.shed_deadline_total << '\n'
     << "shed_expired_total " << s.shed_expired_total << '\n'
     << "unknown_model_total " << s.unknown_model_total << '\n'
     << "bad_dimension_total " << s.bad_dimension_total << '\n'
     << "internal_error_total " << s.internal_error_total << '\n'
     << "batches_total " << s.batches_total << '\n'
     << "batched_rows_total " << s.batched_rows_total << '\n'
     << "mean_batch_occupancy " << s.mean_batch_occupancy() << '\n'
     << "reloads_total " << s.reloads_total << '\n'
     << "reload_failures_total " << s.reload_failures_total << '\n'
     << "reschedules_total " << s.reschedules_total << '\n'
     << "reschedule_failures_total " << s.reschedule_failures_total << '\n'
     << "degraded_models " << s.degraded_models << '\n'
     << "health " << health_name() << '\n'
     << "queue_depth " << s.queue_depth << '\n'
     << "simd " << simd::level_name(simd::active_level()) << " width "
     << simd::kernels().width << '\n'
     << "simd_fallbacks_total " << simd::fallback_events() << '\n'
     << "models " << s.models << '\n';
  for (const auto& m : registry_.list()) {
    os << "model " << m->name << " version " << m->version << " format "
       << format_name(m->predictor.layout()) << " num_features "
       << m->model.num_features << " num_sv "
       << m->model.support_vectors.size() << '\n';
  }
  if (rescheduler_) {
    for (const ModelBanditStats& mb : rescheduler_->stats()) {
      os << "bandit " << mb.model << " current "
         << format_name(mb.current) << " switches " << mb.switches << '\n';
      for (const ArmStats& a : mb.arms) {
        os << "arm " << mb.model << ' ' << format_name(a.format)
           << " pulls " << a.pulls << " rows " << a.rows
           << " mean_row_seconds " << a.mean_row_seconds
           << " prior_row_seconds " << a.prior_row_seconds << '\n';
      }
    }
  }
  return os.str();
}

std::string ServeEngine::models_text() const {
  std::ostringstream os;
  for (const auto& m : registry_.list()) {
    os << "model " << m->name << " version " << m->version << " content_gen "
       << m->content_gen << " layout " << format_name(m->predictor.layout())
       << " num_features " << m->model.num_features << " num_sv "
       << m->model.support_vectors.size() << '\n';
  }
  return os.str();
}

}  // namespace ls::serve
