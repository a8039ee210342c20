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

/// Deployment shape of a model loaded for serving: what the layout
/// decision should optimise for.
enum class DeploymentHint {
  kLatency,     ///< single-request path: race the single-rhs SMSV
  kThroughput,  ///< micro-batched path: race multiply_dense_batch
};

/// Load-time decision API for the serving subsystem: returns `base` tuned
/// for the deployment shape. Latency-optimized probes candidates on the
/// single-rhs SMSV a lone request issues; throughput-optimized probes the
/// batched kernel (kMaxSmsvBatch right-hand sides) the micro-batcher runs,
/// which can prefer a different format (see bench/ablation_batch_rows).
/// Only the empirical policy has a probe dimension to tune; other policies
/// pass through unchanged.
SchedulerOptions tuned_for_deployment(SchedulerOptions base,
                                      DeploymentHint hint);

/// Parses a hint name ("latency", "throughput").
DeploymentHint parse_deployment_hint(const std::string& name);

/// Hint name for logs and metrics annotations.
const char* deployment_hint_name(DeploymentHint hint);

/// Records a *final* schedule decision into the metrics registry: chosen
/// format, per-candidate scores, degradation flag and drop notes. Called by
/// the trainer facade and LayoutScheduler::schedule once per decision — a
/// no-op when metrics collection is disabled.
void record_decision_metrics(const ScheduleDecision& d);

}  // namespace ls
