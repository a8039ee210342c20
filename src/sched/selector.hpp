// Format selection policies — the decision system of Section III-B.
//
// Two selectors are provided and benchmarked against each other
// (bench/ablation_selector):
//   * HeuristicSelector: O(1) after feature extraction; ranks formats by the
//     calibrated analytic cost model. This is the "influencing parameter"
//     decision system the paper describes.
//   * EmpiricalAutotuner: ranks the admissible formats with the same cost
//     model, then builds only the two cheapest on (a window of) the actual
//     matrix, times real SMSV iterations of both in interleaved rounds and
//     picks the faster. The model prunes; the measurement settles the call
//     where the model is least sure. Because SMO then runs thousands of
//     iterations over the chosen layout, the tuning cost is amortised away
//     (the paper's "runtime scheduling").
//
// Both race one shape: the single-row SMSV (one gathered row times the
// matrix) that SMO issues twice per iteration. Serving scores about one row
// per micro-batch too, so the serving engine's load-time decision and the
// bandit's priors use the same shape; no caller picks a probe shape.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "data/features.hpp"
#include "formats/coo.hpp"
#include "formats/format.hpp"
#include "sched/cost_model.hpp"

namespace ls {

/// Outcome of a selection: the chosen format plus per-format scores
/// (predicted or measured seconds per SMSV) for reporting.
struct ScheduleDecision {
  Format format = Format::kCSR;
  std::array<double, kNumBasicFormats> score_seconds{};
  std::string rationale;
  /// True when a fallback path produced this decision (empirical candidates
  /// all failed, or the chosen format could not be materialised). The
  /// decision is still valid — callers observe the degradation rather than
  /// an exception.
  bool degraded = false;
  /// One human-readable note per candidate that was dropped (threw, ran
  /// out of memory, or busted its time/space budget) on the way here.
  std::vector<std::string> dropped;

  double score_of(Format f) const {
    return score_seconds[static_cast<std::size_t>(f)];
  }
};

/// Cost-model-driven selector.
class HeuristicSelector {
 public:
  explicit HeuristicSelector(const CostCalibration& cal)
      : cal_(&cal) {}
  HeuristicSelector() : cal_(&CostCalibration::instance()) {}

  /// Picks the format with the lowest predicted SMSV time. Formats whose
  /// storage would exceed 64 times the CSR storage (the autotuner's guard
  /// too) are disqualified first (e.g. DEN on sector would blow memory).
  ScheduleDecision choose(const MatrixFeatures& feat) const;

 private:
  const CostCalibration* cal_;
};

/// Options for the measurement-based autotuner.
struct AutotuneOptions {
  /// Maximum rows of the probe window (0 = use the whole matrix). A
  /// contiguous row window preserves the diagonal / row-length structure
  /// that drives DIA and ELL costs.
  index_t sample_rows = 2048;
};

/// Measurement-based selector.
class EmpiricalAutotuner {
 public:
  explicit EmpiricalAutotuner(AutotuneOptions opts = {}) : opts_(opts) {}

  /// Ranks the admissible formats by predicted SMSV time
  /// (CostCalibration::instance()), builds the two cheapest for (a window
  /// of) `x` — a candidate that throws or runs out of memory yields its
  /// seat to the next-ranked one — times real SMSV products of both with a
  /// gathered-row workspace in alternating rounds, and picks the faster.
  /// Scores are extrapolated to full-matrix seconds; formats outside the
  /// race keep score +inf.
  ScheduleDecision choose(const CooMatrix& x) const;

 private:
  AutotuneOptions opts_;
};

}  // namespace ls
