#include "serve/batcher.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

namespace ls::serve {

namespace {

std::future<PredictResult> ready_future(Status s) {
  std::promise<PredictResult> p;
  p.set_value(PredictResult{s, 0.0, 0.0});
  return p.get_future();
}

}  // namespace

MicroBatcher::MicroBatcher(BatcherOptions opts) : opts_(opts) {
  opts_.max_batch = std::max<index_t>(1, opts_.max_batch);
  opts_.max_queue = std::max<std::size_t>(1, opts_.max_queue);
}

std::optional<std::future<PredictResult>> MicroBatcher::submit(
    std::shared_ptr<const LoadedModel> model, SparseVector x,
    double budget_ms, SubmitReject* reject) {
  if (reject) *reject = SubmitReject::kNone;
  BatchRequest req;
  req.model = std::move(model);
  req.x = std::move(x);
  req.budget_ms = budget_ms;
  req.enqueued = std::chrono::steady_clock::now();
  std::future<PredictResult> fut = req.done.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return ready_future(Status::kShuttingDown);
    if (queue_.size() >= opts_.max_queue) {
      if (reject) *reject = SubmitReject::kQueueFull;
      return std::nullopt;
    }
    const std::string& name = req.model->name;
    auto [it, inserted] = tenants_.try_emplace(name);
    if (opts_.max_per_model > 0 && it->second.queued >= opts_.max_per_model) {
      if (reject) *reject = SubmitReject::kModelQuota;
      return std::nullopt;
    }
    if (it->second.queued == 0) {
      // Tenant just became active: start its virtual clock at the current
      // virtual time so idle periods bank no service credit.
      it->second.service =
          std::max(it->second.service, virtual_time_ * weight_of(name));
    }
    ++it->second.queued;
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return fut;
}

bool MicroBatcher::next_batch(std::vector<BatchRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lk(mu_);
  // Work-conserving: a free worker takes whatever is pending right away.
  // Under load, batches still form while the workers are busy scoring.
  cv_.wait(lk, [&] { return stopped_ || !queue_.empty(); });
  if (stopped_) return false;

  // Choose the cohort to flush: plain mode takes the front request's
  // model (FIFO); fair mode takes the least-served tenant's frontmost
  // model so a flooding tenant cannot push a trickling one behind its
  // whole backlog. Extraction preserves arrival order within the cohort.
  const LoadedModel* cohort =
      opts_.fair ? fair_cohort_locked() : queue_.front().model.get();
  std::deque<BatchRequest> rest;
  while (!queue_.empty() &&
         static_cast<index_t>(out.size()) < opts_.max_batch) {
    if (queue_.front().model.get() == cohort) {
      out.push_back(std::move(queue_.front()));
    } else {
      rest.push_back(std::move(queue_.front()));
    }
    queue_.pop_front();
  }
  // Re-prepend the skipped other-model requests in their original order.
  for (auto it = rest.rbegin(); it != rest.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  // Advance the served tenant's virtual clock and release its queued
  // quota slots.
  if (!out.empty()) {
    const std::string& name = out.front().model->name;
    const auto it = tenants_.find(name);
    if (it != tenants_.end()) {
      it->second.service += static_cast<double>(out.size()) / weight_of(name);
      virtual_time_ = it->second.service / weight_of(name);
      it->second.queued -= std::min(it->second.queued, out.size());
      if (it->second.queued == 0) tenants_.erase(it);
    }
  }
  if (!queue_.empty()) {
    // Leftover work (other models, or overflow past max_batch): hand it
    // to another worker instead of waiting for the next submit.
    cv_.notify_one();
  }
  // Claim the in-flight slot before the lock drops: from here until
  // batch_done() the batcher is not quiesced, with no gap in between.
  ++in_flight_;
  return true;
}

void MicroBatcher::batch_done() {
  std::lock_guard<std::mutex> lk(mu_);
  --in_flight_;
}

bool MicroBatcher::quiesced() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.empty() && in_flight_ == 0;
}

const LoadedModel* MicroBatcher::fair_cohort_locked() const {
  // Least normalised service among tenants with queued work. The queue is
  // non-empty here, so at least one queued tenant exists.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [name, st] : tenants_) {
    if (st.queued == 0) continue;
    best = std::min(best, st.service / weight_of(name));
  }
  // The chosen tenant's frontmost request names the model version to flush
  // (a tenant can span two versions across a reload; the older one queued
  // first). Ties across tenants resolve FIFO: first match from the front.
  for (const BatchRequest& r : queue_) {
    const auto it = tenants_.find(r.model->name);
    if (it != tenants_.end() &&
        it->second.service / weight_of(r.model->name) <= best) {
      return r.model.get();
    }
  }
  return queue_.front().model.get();  // unreachable fallback
}

double MicroBatcher::weight_of(const std::string& name) const {
  const auto it = opts_.weights.find(name);
  const double w = it == opts_.weights.end() ? 1.0 : it->second;
  return w > 0.0 ? w : 1.0;
}

void MicroBatcher::stop() {
  std::deque<BatchRequest> drained;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
    drained.swap(queue_);
    tenants_.clear();
  }
  cv_.notify_all();
  for (BatchRequest& req : drained) {
    req.done.set_value(PredictResult{Status::kShuttingDown, 0.0, 0.0});
  }
}

std::size_t MicroBatcher::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

}  // namespace ls::serve
