// Online layout re-scheduling for the serving engine — the paper's
// runtime-scheduling claim closed into a loop over live traffic.
//
// The load-time layout decision (a single-row scheduler probe) is made
// once, against probe matrices, before a single real request has arrived.
// This module revisits it continuously: the engine reports every batch it
// scores (model, layout, rows, seconds) through observe(), a background
// policy thread runs a UCB1 bandit per model over candidate layouts, and
// when another layout is decisively better the model is re-materialised in
// that layout OFF the request path and swapped in through the registry's
// compare-and-swap — zero downtime, in-flight batches keep the version
// they resolved at submit.
//
//   telemetry        observe(): mean per-row seconds per (model, layout)
//   priors           sched/cost_model::predicted_arm_priors — unexplored
//                    arms start at their *predicted* single-row SMSV
//                    cost, not infinity
//   bandit           UCB1 for minimisation: value - c * scale * sqrt(
//                    ln(total)/pulls); the exploration bonus shrinks as an
//                    arm accumulates pulls
//   switch gate      decisively_better() + dwell-time hysteresis + a
//                    per-model max-switch budget, so near-ties never flap
//                    and a pathological workload cannot make the engine
//                    re-materialise forever
//   swap             LoadedModel re-materialisation ctor + ModelRegistry::
//                    replace_if_current — a swap loses (and is dropped) if
//                    a hot reload shipped new content meanwhile
//
// bench/ablation_serve_reschedule measures the recovery when serving
// starts from a deliberately bad layout; scripts/check.sh smoke-tests the
// full daemon loop.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "formats/format.hpp"
#include "serve/registry.hpp"

namespace ls::serve {

/// Policy knobs.
struct ReschedulerOptions {
  /// Master switch; a disabled rescheduler is never constructed.
  bool enabled = false;
  /// Cadence of the background policy thread's decision pass.
  double interval_ms = 100.0;
  /// Batches observed on a model's *current* layout before the bandit may
  /// judge it — the measured mean needs support before it can lose.
  std::int64_t min_observations = 8;
  /// Re-materialise only when the chosen arm is at least this much faster
  /// than the current layout (see decisively_better()).
  double switch_threshold = 1.2;
  /// Per-model lifetime switch budget (0 = rescheduling effectively off).
  index_t max_switches = 4;
  /// Minimum dwell time after any switch of a model before the next one —
  /// time-domain hysteresis on top of the threshold.
  double hysteresis_ms = 500.0;
  /// UCB1 exploration weight c: the bonus is c * prior_scale *
  /// sqrt(ln(total_pulls) / arm_pulls). 0 = pure exploitation.
  double ucb_exploration = 0.25;
};

/// One bandit arm's public statistics (the stats verb's per-model lines).
struct ArmStats {
  Format format = Format::kCSR;
  std::int64_t pulls = 0;         ///< batches observed in this layout
  std::int64_t rows = 0;          ///< requests those batches carried
  double mean_row_seconds = 0.0;  ///< 0 when unobserved
  double prior_row_seconds = 0.0; ///< cost-model seed
};

/// Point-in-time per-model bandit state.
struct ModelBanditStats {
  std::string model;
  Format current = Format::kCSR;
  index_t switches = 0;
  std::vector<ArmStats> arms;
};

/// Background layout policy of one ServeEngine. Construction is cheap;
/// start() spawns the policy thread. observe() is the telemetry hook the
/// engine's workers call once per scored batch — one mutex acquisition,
/// no allocation on the steady path.
class LayoutRescheduler {
 public:
  /// `registry` must outlive the rescheduler. `predictor_batch_rows` is
  /// the SMSV width re-materialised predictors are built with (the same
  /// width the engine loads models with, so a swap changes layout only).
  LayoutRescheduler(ModelRegistry& registry, index_t predictor_batch_rows,
                    ReschedulerOptions opts);
  ~LayoutRescheduler();

  LayoutRescheduler(const LayoutRescheduler&) = delete;
  LayoutRescheduler& operator=(const LayoutRescheduler&) = delete;

  /// Spawns the policy thread (idempotent).
  void start();

  /// Stops and joins the policy thread (idempotent; destructor calls it).
  void stop();

  /// Telemetry hook: one scored batch of `rows` requests took `seconds`
  /// on `model`'s current layout. Called by the engine's workers.
  void observe(const LoadedModel& model, index_t rows, double seconds);

  /// Test seam: credit `seconds` for `rows` requests to an explicit
  /// (model, layout) arm, bypassing the "current layout" attribution.
  /// `content_gen` is the content generation the timing was measured on —
  /// a generation bump (hot reload: new weights) resets the arms, while a
  /// layout-only swap keeps the generation and therefore the arms.
  void observe_arm(const std::string& model, std::int64_t content_gen,
                   Format layout, index_t rows, double seconds);

  /// One decision pass over every hosted model — what the policy thread
  /// runs each interval. Public so tests and benches can drive the policy
  /// deterministically without racing a timer.
  void tick();

  /// The bandit's current lowest-UCB arm for `model` (nullopt before any
  /// priors/observations exist). Exposed for tests.
  std::optional<Format> preferred(const std::string& model) const;

  std::int64_t reschedules_total() const {
    return reschedules_total_.load(std::memory_order_acquire);
  }
  std::int64_t reschedule_failures_total() const {
    return reschedule_failures_total_.load(std::memory_order_acquire);
  }

  /// Per-model bandit state snapshot, ordered by model name.
  std::vector<ModelBanditStats> stats() const;

  const ReschedulerOptions& options() const { return opts_; }

 private:
  struct Arm {
    std::int64_t pulls = 0;
    std::int64_t rows = 0;
    double total_seconds = 0.0;
    double mean_row_seconds() const {
      return rows > 0 ? total_seconds / static_cast<double>(rows) : 0.0;
    }
  };

  struct ModelState {
    /// Content generation whose timings the arms describe. A generation
    /// bump (a hot reload — new weights, possibly a different best
    /// layout) resets the arms; our own layout swaps keep the generation,
    /// so telemetry from workers racing a swap can never be misread as a
    /// reload (version numbers bump on both and cannot tell them apart).
    std::int64_t content_gen = 0;
    std::array<Arm, kNumBasicFormats> arms{};
    std::array<double, kNumBasicFormats> priors{};
    bool priors_ready = false;
    index_t switches = 0;
    std::chrono::steady_clock::time_point last_switch{};
    bool switched_once = false;  ///< last_switch is meaningful
  };

  void policy_loop();
  /// Decision pass for one model. mu_ NOT held (takes it as needed).
  void consider(const std::shared_ptr<const LoadedModel>& current);
  /// Lowest-UCB arm given state. mu_ held.
  std::optional<Format> best_arm_locked(const ModelState& s) const;
  /// Optimistic per-row seconds of one arm (exploitation value minus the
  /// exploration bonus) — steers arm *selection* only. mu_ held.
  double arm_value_locked(const ModelState& s, Format f) const;
  /// Exploitation estimate of one arm: measured mean once pulled, the
  /// cost-model prior before that, no optimism — what the switch gate
  /// compares, so the threshold margin is real. mu_ held.
  double arm_exploit_locked(const ModelState& s, Format f) const;
  /// Ensures priors are seeded from the cost model. mu_ held by caller?
  /// No — computes features outside the lock, then stores under it.
  void seed_priors(const std::string& name, const LoadedModel& model);

  ModelRegistry* registry_;
  index_t predictor_batch_rows_;
  ReschedulerOptions opts_;

  mutable std::mutex mu_;  ///< guards models_
  std::map<std::string, ModelState> models_;

  std::atomic<std::int64_t> reschedules_total_{0};
  std::atomic<std::int64_t> reschedule_failures_total_{0};

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;  ///< wake_mu_
  std::thread policy_thread_;
  std::atomic<bool> running_{false};
};

/// The bandit's switch gate: switch only when the measured/estimated best
/// is decisively better than the current format. An infinite or NaN
/// current score means the current format would not even be considered
/// (storage-inadmissible or never measured against a finite alternative)
/// — the strongest possible signal to switch; a non-finite best is never
/// worth switching to. Otherwise require the configured multiplicative
/// margin, which is the hysteresis that keeps near-ties from flapping.
bool decisively_better(double current_score, double best_score,
                       double switch_threshold);

}  // namespace ls::serve
