// Top-level runtime layout scheduler — the public entry point that ties
// feature extraction, selection policy and materialisation together.
//
// Typical use (what the quickstart example does):
//
//   LayoutScheduler sched;                       // empirical policy
//   AnyMatrix X = sched.schedule(dataset.X);     // decide + materialise
//   SvmModel model = train_svm(X, dataset.y, params);
#pragma once

#include <string>

#include "data/features.hpp"
#include "formats/any_matrix.hpp"
#include "formats/coo.hpp"
#include "sched/selector.hpp"

namespace ls {

/// Selection policy.
enum class SchedulePolicy {
  kEmpirical,  ///< time real SMSVs per candidate (default; ground truth)
  kHeuristic,  ///< calibrated analytic cost model (O(1) after features)
  kFixed,      ///< always use `fixed_format` (the non-adaptive baseline)
};

/// Scheduler configuration.
struct SchedulerOptions {
  SchedulePolicy policy = SchedulePolicy::kEmpirical;
  Format fixed_format = Format::kCSR;  ///< used by kFixed only
  AutotuneOptions autotune;            ///< used by kEmpirical only
};

/// Runtime data-layout scheduler.
///
/// The empirical policy degrades gracefully rather than failing: a
/// candidate format that throws, exhausts memory, or busts its budget is
/// dropped; if every empirical candidate fails, decide() falls back to the
/// heuristic cost model; and if even the chosen format cannot be
/// materialised, materialize_or_degrade() falls back to CSR. Every
/// fallback is recorded in the returned ScheduleDecision (`degraded`,
/// `dropped`, rationale) so callers can observe the path taken.
class LayoutScheduler {
 public:
  explicit LayoutScheduler(SchedulerOptions opts = {}) : opts_(opts) {}

  /// Chooses a format for `x` under the configured policy. Under the
  /// empirical policy, falls back to the heuristic model (decision flagged
  /// `degraded`) when no empirical candidate survives.
  ScheduleDecision decide(const CooMatrix& x) const;

  /// Materialises `x` in the decided format; throws on failure.
  AnyMatrix materialize(const CooMatrix& x, const ScheduleDecision& d) const;

  /// Materialises `x` in d.format, falling back to CSR (and flagging `d`
  /// as degraded) when that format cannot be built.
  AnyMatrix materialize_or_degrade(const CooMatrix& x,
                                   ScheduleDecision& d) const;

  /// decide() + materialize_or_degrade() in one call. When `decision` is
  /// non-null the final (possibly degraded) decision is stored there.
  AnyMatrix schedule(const CooMatrix& x,
                     ScheduleDecision* decision = nullptr) const;

  const SchedulerOptions& options() const { return opts_; }

 private:
  SchedulerOptions opts_;
};

/// Parses a policy name ("empirical", "heuristic", "fixed").
SchedulePolicy parse_policy(const std::string& name);

/// Records a *final* schedule decision into the metrics registry: chosen
/// format, per-candidate scores, degradation flag and drop notes. Called by
/// the trainer facade and LayoutScheduler::schedule once per decision — a
/// no-op when metrics collection is disabled.
void record_decision_metrics(const ScheduleDecision& d);

}  // namespace ls
