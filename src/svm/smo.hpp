// SMO (Sequential Minimal Optimization) solver for the binary-class SVM
// dual QP — the paper's Algorithm 1.
//
// State per sample i: the Lagrange multiplier alpha_i in [0, C] and the
// optimality indicator f_i = sum_j alpha_j y_j K(X_i, X_j) - y_i (Eq. 3).
// Each iteration selects a maximally-violating pair (high, low), solves the
// 2-variable subproblem analytically (Eqs. 5-6 with box clipping) and
// updates all f values with the two freshly computed kernel rows (Eq. 4).
// Convergence: b_low <= b_high + 2 * tolerance.
//
// Two working-set selection policies are provided:
//  * kFirstOrder  — Algorithm 1 verbatim (argmin/argmax of f);
//  * kSecondOrder — Fan/Chen/Lin's WSS2 (maximal gain using the kernel
//    diagonal), LIBSVM's default; usually converges in fewer iterations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "svm/cache.hpp"
#include "svm/kernel.hpp"

namespace ls {

/// Snapshot passed to the optional per-iteration trace callback.
struct IterationTrace {
  index_t iteration = 0;
  real_t b_high = 0.0;
  real_t b_low = 0.0;
  /// Optimality gap b_low - b_high; convergence when <= 2 * tolerance.
  real_t gap() const { return b_low - b_high; }
  double objective = 0.0;  ///< current dual objective (maximised form)
};

/// Working-set selection policy.
enum class WssPolicy {
  kFirstOrder,   ///< maximal violating pair (paper Algorithm 1)
  kSecondOrder,  ///< second-order gain (Fan et al. 2005, LIBSVM default)
};

/// Complete resumable solver state. alpha and f are the only persistent
/// state SMO carries between iterations (the kernel cache is a pure
/// memoisation and the I_high/I_low status a function of alpha), so a
/// solver restored from a checkpoint continues on the exact trajectory the
/// checkpointed run would have taken. File IO lives in svm/checkpoint.hpp.
struct SmoCheckpoint {
  index_t iteration = 0;
  std::vector<real_t> alpha;
  std::vector<real_t> f;  ///< optimality indicators f_i = y_i * grad_i
};

/// Solver parameters.
struct SvmParams {
  KernelParams kernel;
  real_t c = 1.0;            ///< box constraint C
  /// Per-class C multipliers (LIBSVM's -w option): samples with y = +1 get
  /// C * weight_positive, y = -1 get C * weight_negative. Raising the
  /// minority class's weight counters class imbalance.
  real_t weight_positive = 1.0;
  real_t weight_negative = 1.0;
  real_t tolerance = 1e-3;   ///< KKT tolerance (LIBSVM default)
  index_t max_iterations = 0;  ///< 0 = automatic (200 n + 20000)
  WssPolicy wss = WssPolicy::kSecondOrder;
  std::size_t cache_bytes = 64ull << 20;  ///< kernel row cache budget
  /// Optional convergence trace, invoked every `trace_interval` iterations
  /// (computing the objective costs O(n) per call).
  std::function<void(const IterationTrace&)> on_trace;
  index_t trace_interval = 1;
  /// Fault tolerance: when set, invoked with a resumable snapshot every
  /// `checkpoint_interval` iterations (0 disables). The trainer facade
  /// wires this to an atomic checkpoint file when `checkpoint_path` is
  /// non-empty, and resumes from that file if a valid one already exists.
  std::function<void(const SmoCheckpoint&)> on_checkpoint;
  index_t checkpoint_interval = 0;
  std::string checkpoint_path;
};

/// Solver outcome statistics.
struct SolveStats {
  index_t iterations = 0;
  double objective = 0.0;   ///< dual objective F(alpha), Eq. (1)
  real_t b_high = 0.0;
  real_t b_low = 0.0;
  bool converged = false;
  std::int64_t kernel_rows_computed = 0;
  double cache_hit_rate = 0.0;
  index_t support_vectors = 0;
};

/// SMO solver over a cached kernel-row source.
///
/// Solves the generic dual  min 1/2 a' Q a + p' a  s.t.  y' a = 0,
/// 0 <= a_i <= C, with Q_ij = y_i y_j K_ij — LIBSVM's Solver form. The
/// classification problem of the paper is p = -1 (the default); epsilon-SVR
/// reduces to the same solver with a duplicated kernel and p = eps -+ z
/// (see svr.hpp).
class SmoSolver {
 public:
  /// Classification form: p_i = -1. `cache` and `y` must outlive the
  /// solver; y[i] must be +1 or -1.
  SmoSolver(KernelCache& cache, std::span<const real_t> y,
            const SvmParams& params);

  /// Generic form with an explicit linear term (LIBSVM's p vector).
  /// `p` must match y's length and outlive the solver.
  SmoSolver(KernelCache& cache, std::span<const real_t> y,
            std::span<const real_t> p, const SvmParams& params);

  /// Runs the optimisation to convergence (or the iteration cap).
  SolveStats solve();

  /// Snapshot of the current resumable state.
  SmoCheckpoint checkpoint(index_t iteration = 0) const;

  /// Restores a snapshot taken from an identical problem (same data,
  /// labels and parameters); solve() then continues from its iteration
  /// count. Throws ls::Error when the snapshot's size does not match.
  void restore(const SmoCheckpoint& ck);

  /// Seeds the solver from a previous solution's alpha vector — the
  /// continuous trainer's warm start across sliding-window retrains. Unlike
  /// restore(), the seed need not come from *this* problem: each alpha is
  /// clipped to its box [0, C_i], the equality constraint sum_i a_i y_i = 0
  /// is repaired (evicted support vectors leave a residual, which is bled
  /// off the over-represented class starting with its smallest seeds), and
  /// the optimality indicators f are recomputed exactly from one kernel row
  /// per surviving support vector. solve() then continues from a feasible
  /// point that is near-optimal when the windows overlap, converging in far
  /// fewer iterations than a cold start; iteration counting restarts at 0
  /// so SolveStats measures the warm-started work. Returns the number of
  /// nonzero seeded alphas. `alphas` must have length n (zeros for new
  /// samples).
  index_t warm_start(std::span<const real_t> alphas);

  std::span<const real_t> alpha() const { return alpha_; }

  /// Bias so that decision(x) = sum_i alpha_i y_i K(X_i, x) - rho.
  real_t rho() const { return rho_; }

  /// Working-set scans (the Eq. 4 update fused into the high/low one)
  /// over at most this many samples run as one SIMD kernel call on the
  /// calling thread, with no OpenMP region; larger ones give each
  /// thread's block one call. Measured on a 4-vCPU AVX-512 host
  /// with 2 OpenMP threads (best of 5 x 20000 calls, one call vs the
  /// 2-block split): the fused high/low pass takes 1.4 vs 2.9 us at 4096
  /// samples and the gain pass 3.4 vs 3.8 us, since a fork/join costs
  /// ~1.7 us; both passes together break even at 8192 (9.4 vs 8.9 us) and
  /// the split wins from there (18.9 vs 13.3 us at 16384).
  static constexpr index_t kSerialScanMax = 8192;

 private:
  struct Selection {
    index_t high = -1;
    index_t low = -1;
    real_t b_high = 0.0;
    real_t b_low = 0.0;
  };

  /// Fused I_high/I_low pass: high and b_high (argmin f over I_high) and
  /// b_low (max f over I_low, whose index is the first-order low). Returns
  /// false if either index set is empty (degenerate: everything at bounds).
  /// Runs only before the first iteration; every later one comes out of
  /// update_and_select_high.
  bool select_high(Selection& sel) const;

  /// Eq. 4 update f += d_hi * k_high + d_lo * k_low, fused with the
  /// select_high pass over the updated f (one read of f, not two).
  bool update_and_select_high(real_t d_hi, real_t d_lo,
                              std::span<const real_t> k_high,
                              std::span<const real_t> k_low, Selection& sel);

  /// Shared body of the two passes above: `scan(lo, hi, out)` writes the
  /// I_high/I_low argmax pair of [lo, hi), indices relative to lo.
  template <class Scan>
  bool select_high_low(Selection& sel, Scan&& scan) const;

  /// Selects low: first-order (argmax f over I_low, found by select_high)
  /// or second-order (max gain, needs the K_high row).
  bool select_low(Selection& sel, std::span<const real_t> k_high) const;

  /// Recomputes sample i's I_high/I_low status byte from alpha_i.
  void refresh_status(index_t i);
  void refresh_all_status();

  /// Current dual objective (maximised form), O(n).
  double current_objective() const;

  KernelCache* cache_;
  std::span<const real_t> y_;
  std::span<const real_t> p_;  // empty = classification (p_i = -1)
  SvmParams params_;
  index_t n_ = 0;

  std::vector<real_t> alpha_;
  std::vector<real_t> f_;
  // Contiguous per-sample arrays the working-set scans stream over.
  std::vector<real_t> c_;              // box constraint C_i = C * weight
  std::vector<real_t> kdiag_;          // K_ii
  std::vector<std::uint8_t> status_;  // simd::kInHigh | simd::kInLow bits
  real_t rho_ = 0.0;
  index_t resume_iteration_ = 0;  // starting iteration after restore()

  static constexpr real_t kBoundEps = 1e-12;
  static constexpr real_t kEtaFloor = 1e-12;
};

}  // namespace ls
