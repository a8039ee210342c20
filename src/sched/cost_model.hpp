// Analytic per-format cost model driven by the nine influencing parameters.
//
// The model has two halves, mirroring Equation (7) of the paper
// (time >= transferred memory / bandwidth):
//   * work(f): multiply-adds one SMSV performs in format f — a pure function
//     of the Table IV features (padding included for ELL/DIA, M*N for DEN);
//   * cost_per_op(f): measured seconds per multiply-add for format f on this
//     machine, calibrated once per process by timing probe matrices. This
//     captures the bandwidth/indirection differences the paper measured
//     (e.g. 25.3 GB/s for ELL vs 63.9 GB/s for CSR on gisette) without
//     hard-coding another machine's constants.
//
// Everything is priced at one shape, the single-row SMSV the autotuner
// races: the heuristic selector ranks formats by it and the serving
// bandit seeds its arms with it.
#pragma once

#include <array>
#include <string>

#include "common/types.hpp"
#include "data/features.hpp"
#include "formats/format.hpp"
#include "kernels/simd.hpp"

namespace ls {

/// Predicted cost of one SMSV (y = X * w) in each format.
struct CostPrediction {
  std::array<double, kNumBasicFormats> seconds{};  // indexed by Format
  std::array<double, kNumBasicFormats> flops{};    // modelled multiply-adds
  std::array<double, kNumBasicFormats> bytes{};    // modelled bytes streamed

  /// ISA terms inherited from the calibration the prediction was made
  /// with: the dispatch level and accumulator width the measured
  /// per-format costs embody, and how much a vector gather costs relative
  /// to a contiguous stream at that level (drives the CSR-vs-ELL/DEN
  /// trade-off — gathers get comparatively cheaper with hardware gather).
  simd::SimdLevel simd_level = simd::SimdLevel::kScalar;
  int vector_width = 1;
  double gather_cost_ratio = 1.0;

  double seconds_of(Format f) const {
    return seconds[static_cast<std::size_t>(f)];
  }
};

/// Modelled multiply-add count of one SMSV in format `f` for a matrix with
/// these features. DIA uses the ndig * min(M, N) stripe bound.
double modeled_flops(Format f, const MatrixFeatures& feat);

/// Modelled bytes streamed by one SMSV in format `f` (matrix data + index
/// structures; the workspace vector is shared by all formats and omitted).
double modeled_bytes(Format f, const MatrixFeatures& feat);

/// Per-format seconds per multiply-add, calibrated by timing probe matrices.
class CostCalibration {
 public:
  /// Runs the probe measurements (a few milliseconds per format), timing
  /// again any format whose cost per op is implausible next to the serial
  /// gather probe (a stalled or oversubscribed OpenMP team).
  /// Deterministic probe shapes; timing is machine-dependent by design.
  static CostCalibration measure();

  /// Returns a calibration with uniform cost 1.0 per op — turns the cost
  /// model into a pure flop counter (useful for tests and ablations).
  /// Level-agnostic: valid under any active dispatch level.
  static CostCalibration uniform();

  /// Process-wide lazily-measured calibration for the *active* SIMD
  /// dispatch level. Kept per level: switching LS_SIMD levels mid-process
  /// (tests, benches, ops override) refits on first use instead of
  /// replaying timings measured under different kernels.
  static const CostCalibration& instance();

  double seconds_per_op(Format f) const {
    return seconds_per_op_[static_cast<std::size_t>(f)];
  }

  /// Dispatch level the timings were measured under.
  simd::SimdLevel simd_level() const { return simd_level_; }

  /// Accumulator width (doubles) of that level's kernels.
  int vector_width() const { return vector_width_; }

  /// True for synthetic calibrations (uniform()) that carry no machine
  /// timings and are therefore valid under any dispatch level.
  bool level_agnostic() const { return level_agnostic_; }

  /// Measured cost of one gathered element relative to one streamed
  /// element at this level (>= 1.0 in practice; smaller on levels with
  /// hardware gather).
  double gather_cost_ratio() const {
    return stream_seconds_per_elem_ > 0.0
               ? gather_seconds_per_elem_ / stream_seconds_per_elem_
               : 1.0;
  }

  /// True when this calibration may be used under the currently active
  /// dispatch level. predict_cost refuses stale-ISA calibrations: costs
  /// measured under one level do not transfer to another (AVX-512 makes
  /// DEN ~2x cheaper per op while COO stays scalar, say), so replaying
  /// them would silently skew every schedule.
  bool valid_for_active() const {
    return level_agnostic_ || simd_level_ == simd::active_level();
  }

  std::string to_string() const;

 private:
  std::array<double, kNumBasicFormats> seconds_per_op_{};
  simd::SimdLevel simd_level_ = simd::SimdLevel::kScalar;
  int vector_width_ = 1;
  bool level_agnostic_ = false;
  double gather_seconds_per_elem_ = 1.0;
  double stream_seconds_per_elem_ = 1.0;
};

/// Full prediction for every format. Throws when `cal` was
/// measured under a dispatch level other than the active one (stale-ISA
/// calibration) — refit via CostCalibration::instance() after a level
/// switch.
CostPrediction predict_cost(const MatrixFeatures& feat,
                            const CostCalibration& cal);

/// Bandit arm priors: predicted SMSV seconds for every format
/// (predict_cost(...).seconds). The serving-side rescheduler seeds its
/// UCB1 arms with these so an unexplored layout starts at its
/// *predicted* cost instead of infinity (or zero) — exploration is guided
/// by the model instead of being uniform, and a layout the model already
/// knows to be hopeless is never worth a live experiment.
std::array<double, kNumBasicFormats> predicted_arm_priors(
    const MatrixFeatures& feat, const CostCalibration& cal);

}  // namespace ls
