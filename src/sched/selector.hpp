// Format selection policies — the decision system of Section III-B.
//
// Two selectors are provided and benchmarked against each other
// (bench/ablation_selector):
//   * HeuristicSelector: O(1) after feature extraction; ranks formats by the
//     calibrated analytic cost model. This is the "influencing parameter"
//     decision system the paper describes.
//   * EmpiricalAutotuner: times real SMSV iterations of each candidate
//     format on (a sample of) the actual matrix and picks the fastest —
//     ground truth at the price of building candidate formats up front.
//     Because SMO then runs thousands of iterations over the chosen layout,
//     the tuning cost is amortised away (the paper's "runtime scheduling").
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
  std::array<double, kNumFormats> score_seconds{};
  /// Per-format seconds per *row* when the format runs its batched kernel
  /// (multiply_dense_batch). Heuristic: predicted from the batched
  /// calibration dimension. Empirical: measured when
  /// AutotuneOptions::batch_rows > 1, else left infinite.
  std::array<double, kNumFormats> batch_score_seconds{};
  /// Right-hand sides per probe multiply that produced batch_score_seconds
  /// (1 = batched dimension not probed).
  index_t probe_batch_rows = 1;
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
  double batch_score_of(Format f) const {
    return batch_score_seconds[static_cast<std::size_t>(f)];
  }
};

/// Cost-model-driven selector.
class HeuristicSelector {
 public:
  explicit HeuristicSelector(const CostCalibration& cal)
      : cal_(&cal) {}
  HeuristicSelector() : cal_(&CostCalibration::instance()) {}

  /// Picks the format with the lowest predicted SMSV time. Formats whose
  /// storage would exceed `max_storage_ratio` times the CSR storage are
  /// disqualified first (guards against e.g. DEN on sector blowing memory).
  ScheduleDecision choose(const MatrixFeatures& feat,
                          double max_storage_ratio = 64.0) const;

 private:
  const CostCalibration* cal_;
};

/// Options for the measurement-based autotuner.
struct AutotuneOptions {
  /// Maximum rows of the probe window (0 = use the whole matrix). A
  /// contiguous row window preserves the diagonal / row-length structure
  /// that drives DIA and ELL costs.
  index_t sample_rows = 2048;
  /// Also consider the derived formats (CSC, HYB) beyond the paper's
  /// five basic formats.
  bool include_extended = false;
  /// Per-candidate modelled storage budget in bytes (0 = unlimited);
  /// candidates above it are dropped before any allocation happens.
  std::size_t candidate_bytes_budget = 0;
  /// Right-hand sides per probe multiply. 1 probes the single-rhs SMSV the
  /// solver's hot loop issues; > 1 (clamped to kMaxSmsvBatch) additionally
  /// probes multiply_dense_batch and races candidates on the per-row
  /// batched score — the regime batch_predict and the serving
  /// micro-batcher run in.
  index_t batch_rows = 1;
};

/// Measurement-based selector.
class EmpiricalAutotuner {
 public:
  explicit EmpiricalAutotuner(AutotuneOptions opts = {}) : opts_(opts) {}

  /// Builds each admissible candidate format for (a window of) `x`, times
  /// real SMSV products with a gathered-row workspace, and picks the
  /// fastest. Scores are extrapolated to full-matrix seconds.
  ScheduleDecision choose(const CooMatrix& x) const;

 private:
  AutotuneOptions opts_;
};

}  // namespace ls
