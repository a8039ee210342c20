#include "serve/rescheduler.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "data/features.hpp"
#include "sched/cost_model.hpp"

namespace ls::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

bool decisively_better(double current_score, double best_score,
                       double switch_threshold) {
  return std::isfinite(best_score) &&
         (!std::isfinite(current_score) ||
          current_score >= switch_threshold * best_score);
}

LayoutRescheduler::LayoutRescheduler(ModelRegistry& registry,
                                     index_t predictor_batch_rows,
                                     ReschedulerOptions opts)
    : registry_(&registry),
      predictor_batch_rows_(predictor_batch_rows),
      opts_(opts) {
  opts_.interval_ms = std::max(1.0, opts_.interval_ms);
  opts_.min_observations = std::max<std::int64_t>(1, opts_.min_observations);
  opts_.switch_threshold = std::max(1.0, opts_.switch_threshold);
}

LayoutRescheduler::~LayoutRescheduler() { stop(); }

void LayoutRescheduler::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_requested_ = false;
  }
  policy_thread_ = std::thread([this] { policy_loop(); });
}

void LayoutRescheduler::stop() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (policy_thread_.joinable()) policy_thread_.join();
  running_.store(false);
}

void LayoutRescheduler::policy_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(wake_mu_);
      wake_cv_.wait_for(lk, ms_duration(opts_.interval_ms),
                        [&] { return stop_requested_; });
      if (stop_requested_) return;
    }
    tick();
  }
}

void LayoutRescheduler::observe(const LoadedModel& model, index_t rows,
                                double seconds) {
  observe_arm(model.name, model.content_gen, model.predictor.layout(), rows,
              seconds);
}

void LayoutRescheduler::observe_arm(const std::string& model,
                                    std::int64_t content_gen, Format layout,
                                    index_t rows, double seconds) {
  if (rows <= 0 || !(seconds >= 0.0)) return;
  std::lock_guard<std::mutex> lk(mu_);
  ModelState& s = models_[model];
  if (content_gen < s.content_gen) return;  // batch of replaced content
  if (content_gen > s.content_gen) {
    if (s.content_gen != 0) {
      // A content-generation bump: a hot reload shipped different weights
      // — every timing the arms hold describes the old model. Start the
      // bandit over (priors survive only if the shape is unchanged;
      // cheapest is to reseed). Our own layout swaps keep the generation,
      // so a worker observing a freshly swapped-in model — even before
      // consider() finishes bookkeeping — lands here with an *equal*
      // generation and the arms survive, as they must: they still
      // describe the same weights.
      s.arms = {};
      s.priors_ready = false;
    }
    s.content_gen = content_gen;
  }
  Arm& arm = s.arms[static_cast<std::size_t>(layout)];
  arm.pulls += 1;
  arm.rows += rows;
  arm.total_seconds += seconds;
}

void LayoutRescheduler::seed_priors(const std::string& name,
                                    const LoadedModel& model) {
  // Feature extraction and calibration run outside mu_ — the first pass
  // pays the one-time cost-model calibration, which must not block the
  // telemetry hook.
  const std::array<double, kNumBasicFormats> priors = predicted_arm_priors(
      extract_features(support_vector_matrix(model.model)),
      CostCalibration::instance());
  std::lock_guard<std::mutex> lk(mu_);
  ModelState& s = models_[name];
  s.priors = priors;
  s.priors_ready = true;
}

double LayoutRescheduler::arm_exploit_locked(const ModelState& s,
                                             Format f) const {
  const auto i = static_cast<std::size_t>(f);
  const Arm& arm = s.arms[i];
  // Measured mean once the arm has been pulled, cost-model prior before
  // that (the seeding that replaces UCB1's "play every arm once").
  return arm.rows > 0 ? arm.mean_row_seconds()
                      : (s.priors[i] > 0.0 ? s.priors[i] : kInf);
}

double LayoutRescheduler::arm_value_locked(const ModelState& s,
                                           Format f) const {
  const auto i = static_cast<std::size_t>(f);
  const Arm& arm = s.arms[i];
  const double value = arm_exploit_locked(s, f);
  if (!std::isfinite(value)) return value;
  if (opts_.ucb_exploration <= 0.0) return value;
  // UCB1 for minimisation: optimism subtracts the confidence radius. The
  // radius is scaled by the best prior so it lives in the same unit as the
  // values (seconds per row) regardless of model size.
  std::int64_t total_pulls = 0;
  for (const Arm& a : s.arms) total_pulls += a.pulls;
  double scale = kInf;
  for (double p : s.priors) {
    if (p > 0.0) scale = std::min(scale, p);
  }
  if (!std::isfinite(scale)) scale = value;
  const double radius =
      opts_.ucb_exploration * scale *
      std::sqrt(std::log(static_cast<double>(total_pulls) + 1.0) /
                (static_cast<double>(arm.pulls) + 1.0));
  return value - radius;
}

std::optional<Format> LayoutRescheduler::best_arm_locked(
    const ModelState& s) const {
  if (!s.priors_ready) return std::nullopt;
  std::optional<Format> best;
  double best_value = kInf;
  for (Format f : kAllFormats) {
    const double v = arm_value_locked(s, f);
    if (v < best_value) {
      best_value = v;
      best = f;
    }
  }
  return best;
}

std::optional<Format> LayoutRescheduler::preferred(
    const std::string& model) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = models_.find(model);
  if (it == models_.end()) return std::nullopt;
  return best_arm_locked(it->second);
}

void LayoutRescheduler::tick() {
  for (const auto& m : registry_->list()) consider(m);
}

void LayoutRescheduler::consider(
    const std::shared_ptr<const LoadedModel>& current) {
  const std::string& name = current->name;
  metrics::counter_add("serve.reschedule.checks_total");

  bool need_priors = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = models_.find(name);
    // No telemetry yet: nothing to judge (and nothing worth seeding).
    if (it == models_.end()) return;
    need_priors = !it->second.priors_ready;
  }
  if (need_priors) seed_priors(name, *current);

  const auto now = std::chrono::steady_clock::now();
  Format target = Format::kCSR;
  double current_mean = 0.0;
  double candidate_value = 0.0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ModelState& s = models_[name];
    // Arms describing other content than the hosted entry (a reload we
    // have not observed yet, or in-flight telemetry of replaced weights)
    // must not drive a swap of THIS entry.
    if (s.content_gen != current->content_gen) return;
    if (s.switches >= opts_.max_switches) return;
    if (s.switched_once && now - s.last_switch < ms_duration(
                                                     opts_.hysteresis_ms)) {
      return;
    }
    const Format cur = current->predictor.layout();
    const Arm& cur_arm = s.arms[static_cast<std::size_t>(cur)];
    if (cur_arm.pulls < opts_.min_observations) return;
    const auto best = best_arm_locked(s);
    if (!best || *best == cur) return;
    // The gate compares exploitation estimates on both sides: the UCB
    // exploration bonus steers which arm gets *considered*, but a
    // re-materialisation must be justified by the candidate's measured
    // mean (or its cost-model prior) actually clearing the threshold —
    // optimism alone, on an arm with zero measurements, is not a reason
    // to spend a swap.
    candidate_value = arm_exploit_locked(s, *best);
    current_mean = cur_arm.mean_row_seconds();
    if (!decisively_better(current_mean, candidate_value,
                           opts_.switch_threshold)) {
      return;
    }
    target = *best;
  }

  // Decisive: re-materialise the model in the target layout off-path. The
  // version is reserved first so the swap obeys the same monotone-version
  // discipline as hot reload; a failed build just leaves a gap.
  const std::int64_t version = registry_->reserve_version(name);
  std::shared_ptr<const LoadedModel> fresh;
  try {
    fresh = std::make_shared<const LoadedModel>(*current, target,
                                                predictor_batch_rows_,
                                                version);
  } catch (const std::exception&) {
    // Re-materialisation failed (failpoint, OOM, ...): the last-good
    // layout keeps serving; back off for one hysteresis window so a
    // persistently failing build cannot spin the policy thread.
    reschedule_failures_total_.fetch_add(1, std::memory_order_release);
    metrics::counter_add("serve.reschedule_failures_total");
    std::lock_guard<std::mutex> lk(mu_);
    ModelState& s = models_[name];
    s.last_switch = now;
    s.switched_once = true;
    return;
  }

  if (!registry_->replace_if_current(current.get(), fresh)) {
    // A hot reload replaced the entry while we were re-materialising: its
    // content wins, our layout opinion is stale. Drop the build.
    metrics::counter_add("serve.reschedule.lost_races_total");
    return;
  }

  reschedules_total_.fetch_add(1, std::memory_order_release);
  metrics::counter_add("serve.reschedules_total");
  metrics::annotate("serve.model." + name + ".reschedule",
                    std::string(format_name(current->predictor.layout())) +
                        "->" + std::string(format_name(target)));
  trace::emit_instant(
      "serve.reschedule:" + name + ":" +
          std::string(format_name(current->predictor.layout())) + "->" +
          std::string(format_name(target)),
      "serve");
  std::lock_guard<std::mutex> lk(mu_);
  ModelState& s = models_[name];
  // No generation bookkeeping: the swap changed layout only, `fresh`
  // carries the same content generation, so the arms keep applying and a
  // worker's observe() of the new entry is indistinguishable from one of
  // the old — no window in which it could be mistaken for a hot reload.
  s.switches += 1;
  s.last_switch = now;
  s.switched_once = true;
}

std::vector<ModelBanditStats> LayoutRescheduler::stats() const {
  std::vector<ModelBanditStats> out;
  const auto hosted = registry_->list();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& m : hosted) {
    const auto it = models_.find(m->name);
    ModelBanditStats mb;
    mb.model = m->name;
    mb.current = m->predictor.layout();
    if (it != models_.end()) {
      const ModelState& s = it->second;
      mb.switches = s.switches;
      for (Format f : kAllFormats) {
        const auto i = static_cast<std::size_t>(f);
        ArmStats a;
        a.format = f;
        a.pulls = s.arms[i].pulls;
        a.rows = s.arms[i].rows;
        a.mean_row_seconds = s.arms[i].mean_row_seconds();
        a.prior_row_seconds = s.priors_ready ? s.priors[i] : 0.0;
        mb.arms.push_back(a);
      }
    }
    out.push_back(std::move(mb));
  }
  return out;
}

}  // namespace ls::serve
