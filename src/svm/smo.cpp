#include "svm/smo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "kernels/simd.hpp"

namespace ls {

SmoSolver::SmoSolver(KernelCache& cache, std::span<const real_t> y,
                     const SvmParams& params)
    : SmoSolver(cache, y, std::span<const real_t>{}, params) {}

SmoSolver::SmoSolver(KernelCache& cache, std::span<const real_t> y,
                     std::span<const real_t> p, const SvmParams& params)
    : cache_(&cache), y_(y), p_(p), params_(params),
      n_(static_cast<index_t>(y.size())) {
  LS_CHECK(n_ == cache.num_rows(),
           "label count " << n_ << " != kernel source rows "
                          << cache.num_rows());
  LS_CHECK(params_.c > 0, "C must be positive");
  LS_CHECK(params_.weight_positive > 0 && params_.weight_negative > 0,
           "class weights must be positive");
  LS_CHECK(p.empty() || p.size() == y.size(),
           "linear term length must match label count");
  for (real_t yi : y_) {
    LS_CHECK(yi == 1.0 || yi == -1.0,
             "binary SMO requires labels in {+1, -1}, got " << yi);
  }

  // alpha = 0; f_i = y_i * grad_i = y_i * p_i. Classification (p = -1)
  // gives the paper's Algorithm 1 step 2: f_i = -y_i.
  const auto un = static_cast<std::size_t>(n_);
  alpha_.assign(un, 0.0);
  f_.resize(un);
  c_.resize(un);
  kdiag_.resize(un);
  status_.resize(un);
  for (index_t i = 0; i < n_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const real_t pi = p.empty() ? real_t{-1.0} : p[iu];
    f_[iu] = y_[iu] * pi;
    c_[iu] = params_.c * (y_[iu] > 0 ? params_.weight_positive
                                     : params_.weight_negative);
    kdiag_[iu] = cache.diagonal(i);
  }
  refresh_all_status();
}

void SmoSolver::refresh_status(index_t i) {
  // I_high = {0 < a < C} u {y > 0, a = 0} u {y < 0, a = C}   (Alg. 1 step 6)
  // I_low  = {0 < a < C} u {y > 0, a = C} u {y < 0, a = 0}   (Alg. 1 step 7)
  const auto iu = static_cast<std::size_t>(i);
  const bool lower = alpha_[iu] <= kBoundEps;
  const bool upper = alpha_[iu] >= c_[iu] - kBoundEps;
  const bool pos = y_[iu] > 0;
  const bool free = !lower && !upper;
  status_[iu] = static_cast<std::uint8_t>(
      (free || (pos ? lower : upper) ? simd::kInHigh : 0) |
      (free || (pos ? upper : lower) ? simd::kInLow : 0));
}

void SmoSolver::refresh_all_status() {
  for (index_t i = 0; i < n_; ++i) refresh_status(i);
}

namespace {

// Runs `scan(lo, hi)` over [0, n) as one call at or below the serial
// cutoff, else as one call per thread's block, folded left to right.
template <class T, class Scan, class Fold>
T scan_blocks(index_t n, T init, Scan&& scan, Fold&& fold) {
  if (n <= SmoSolver::kSerialScanMax) return scan(index_t{0}, n);
  return parallel_reduce_blocks(n, init, scan, fold);
}

}  // namespace

template <class Scan>
bool SmoSolver::select_high_low(Selection& sel, Scan&& scan) const {
  using Pair = std::array<simd::Argmax, 2>;
  // Ties keep the lowest index at any level and any block split, so the
  // model is bit-identical across thread counts and SIMD levels.
  const Pair best = scan_blocks(
      n_, Pair{simd::kNoArgmax, simd::kNoArgmax},
      [&](index_t lo, index_t hi) {
        Pair r;
        scan(lo, hi, r.data());
        for (simd::Argmax& a : r) {
          if (a.index >= 0) a.index += lo;
        }
        return r;
      },
      [](const Pair& a, const Pair& b) {
        return Pair{simd::fold_argmax(a[0], b[0]),
                    simd::fold_argmax(a[1], b[1])};
      });
  sel.high = best[0].index;
  sel.low = best[1].index;
  sel.b_high = sel.high >= 0 ? f_[static_cast<std::size_t>(sel.high)]
                             : std::numeric_limits<real_t>::infinity();
  sel.b_low = sel.low >= 0 ? f_[static_cast<std::size_t>(sel.low)]
                           : -std::numeric_limits<real_t>::infinity();
  return sel.high >= 0 && std::isfinite(sel.b_low);
}

bool SmoSolver::select_high(Selection& sel) const {
  const simd::KernelTable& kt = simd::kernels();
  return select_high_low(sel, [&](index_t lo, index_t hi, simd::Argmax* out) {
    kt.wss_high_low(f_.data() + lo, status_.data() + lo, hi - lo, out);
  });
}

bool SmoSolver::update_and_select_high(real_t d_hi, real_t d_lo,
                                       std::span<const real_t> k_high,
                                       std::span<const real_t> k_low,
                                       Selection& sel) {
  const simd::KernelTable& kt = simd::kernels();
  real_t* f = f_.data();
  return select_high_low(sel, [&](index_t lo, index_t hi, simd::Argmax* out) {
    kt.smo_update_select(f + lo, k_high.data() + lo, k_low.data() + lo, d_hi,
                         d_lo, status_.data() + lo, hi - lo, out);
  });
}

bool SmoSolver::select_low(Selection& sel,
                           std::span<const real_t> k_high) const {
  // First-order: Algorithm 1 step 9, low = argmax f over I_low — the index
  // select_high already found.
  if (params_.wss == WssPolicy::kFirstOrder) return sel.low >= 0;

  // Second-order (WSS2): among I_low candidates that actually violate
  // optimality w.r.t. high, maximise the guaranteed objective gain
  // (f_j - b_high)^2 / eta_j.
  const simd::KernelTable& kt = simd::kernels();
  const real_t k_hh = kdiag_[static_cast<std::size_t>(sel.high)];
  const simd::Argmax best = scan_blocks(
      n_, simd::kNoArgmax,
      [&](index_t lo, index_t hi) {
        simd::Argmax r = kt.wss_gain(f_.data() + lo, status_.data() + lo,
                                     kdiag_.data() + lo, k_high.data() + lo,
                                     hi - lo, sel.b_high, k_hh, kEtaFloor);
        if (r.index >= 0) r.index += lo;
        return r;
      },
      simd::fold_argmax);
  sel.low = best.index;
  return sel.low >= 0;
}

SmoCheckpoint SmoSolver::checkpoint(index_t iteration) const {
  SmoCheckpoint ck;
  ck.iteration = iteration;
  ck.alpha = alpha_;
  ck.f = f_;
  return ck;
}

void SmoSolver::restore(const SmoCheckpoint& ck) {
  LS_CHECK(ck.alpha.size() == static_cast<std::size_t>(n_) &&
               ck.f.size() == static_cast<std::size_t>(n_),
           "checkpoint size " << ck.alpha.size() << "/" << ck.f.size()
                              << " does not match problem size " << n_);
  LS_CHECK(ck.iteration >= 0, "negative checkpoint iteration");
  alpha_ = ck.alpha;
  f_ = ck.f;
  resume_iteration_ = ck.iteration;
  refresh_all_status();
}

index_t SmoSolver::warm_start(std::span<const real_t> alphas) {
  LS_CHECK(alphas.size() == static_cast<std::size_t>(n_),
           "warm-start vector length " << alphas.size()
                                       << " does not match problem size "
                                       << n_);
  // Box projection: evicted-window seeds can exceed the (possibly
  // class-weighted) C of their new position.
  for (index_t i = 0; i < n_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    alpha_[iu] = std::clamp(alphas[iu], real_t{0.0}, c_[iu]);
  }

  // Equality repair: sum_i a_i y_i must be exactly 0 or the solver's
  // pairwise updates can never restore feasibility. Bleed the residual off
  // the over-represented side, smallest alphas first — zeroing marginal
  // seeds perturbs the solution less than cutting into a strong support
  // vector.
  real_t residual = 0.0;
  for (index_t i = 0; i < n_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    residual += alpha_[iu] * y_[iu];
  }
  if (std::abs(residual) > kBoundEps) {
    const real_t side = residual > 0 ? real_t{1.0} : real_t{-1.0};
    std::vector<index_t> order;
    for (index_t i = 0; i < n_; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (y_[iu] == side && alpha_[iu] > kBoundEps) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      return alpha_[static_cast<std::size_t>(a)] <
             alpha_[static_cast<std::size_t>(b)];
    });
    real_t excess = std::abs(residual);
    for (index_t i : order) {
      if (excess <= kBoundEps) break;
      const auto iu = static_cast<std::size_t>(i);
      const real_t cut = std::min(alpha_[iu], excess);
      alpha_[iu] -= cut;
      excess -= cut;
    }
    // A leftover excess means one whole class's mass cannot cover the
    // residual — only possible with a wildly inconsistent seed. Fall back
    // to a cold start rather than an infeasible one.
    if (excess > kBoundEps) {
      std::fill(alpha_.begin(), alpha_.end(), real_t{0.0});
    }
  }

  // Recompute f_i = y_i p_i + sum_j a_j y_j K_ij exactly: one kernel row
  // per surviving support vector. This is the entire cost of the warm
  // start — proportional to the SV count, not to an optimisation run.
  index_t seeded = 0;
  for (index_t i = 0; i < n_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const real_t pi = p_.empty() ? real_t{-1.0} : p_[iu];
    f_[iu] = y_[iu] * pi;
  }
  for (index_t j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (alpha_[ju] <= kBoundEps) continue;
    ++seeded;
    const real_t coeff = alpha_[ju] * y_[ju];
    const std::span<const real_t> row = cache_->get_row(j);
    for (index_t i = 0; i < n_; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      f_[iu] += coeff * row[iu];
    }
  }

  resume_iteration_ = 0;
  refresh_all_status();
  return seeded;
}

double SmoSolver::current_objective() const {
  // Dual objective via the gradient identity grad_i = y_i f_i = (Q a + p)_i:
  // F = -(1/2 a' Q a + p' a) = -1/2 sum_i a_i (y_i f_i + p_i) — O(n), no
  // extra kernel evaluations. For classification (p = -1) this is exactly
  // Eq. (1)'s maximised objective.
  double obj = 0.0;
  for (index_t i = 0; i < n_; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    const real_t pi = p_.empty() ? real_t{-1.0} : p_[iu];
    obj += -0.5 * alpha_[iu] * (y_[iu] * f_[iu] + pi);
  }
  return obj;
}

SolveStats SmoSolver::solve() {
  const index_t max_iter = params_.max_iterations > 0
                               ? params_.max_iterations
                               : 200 * n_ + 20000;
  SolveStats stats;

  metrics::ScopedTimer solve_timer("svm.smo.solve_seconds");
  trace::ScopedEvent solve_span("smo.solve", "svm");
  // KKT-violation trajectory: sample the optimality gap into the trace at
  // the user's trace granularity. The enabled check is hoisted so a
  // disabled recorder costs nothing per iteration.
  const bool tracing = trace::enabled();
  const index_t gap_interval = std::max<index_t>(1, params_.trace_interval);

  index_t iter = resume_iteration_;
  // `sel` is the selection the current iteration acts on; `next` is the
  // one the fused Eq. 4 update found for the iteration after it. Traces,
  // the KKT gap and the exit values all report `sel`.
  Selection sel;
  Selection next;
  bool next_ok = iter < max_iter && select_high(next);
  while (iter < max_iter) {
    sel = next;
    if (!next_ok) break;  // all samples at compatible bounds

    // Convergence test (Alg. 1 step 12, inverted).
    if (sel.b_low <= sel.b_high + 2 * params_.tolerance) {
      stats.converged = true;
      break;
    }

    const std::span<const real_t> k_high = cache_->get_row(sel.high);
    if (!select_low(sel, k_high)) break;
    const std::span<const real_t> k_low = cache_->get_row(sel.low);

    const index_t hi = sel.high;
    const index_t lo = sel.low;
    const real_t y_hi = y_[static_cast<std::size_t>(hi)];
    const real_t y_lo = y_[static_cast<std::size_t>(lo)];
    const real_t f_hi = f_[static_cast<std::size_t>(hi)];
    const real_t f_lo = f_[static_cast<std::size_t>(lo)];
    const real_t a_hi_old = alpha_[static_cast<std::size_t>(hi)];
    const real_t a_lo_old = alpha_[static_cast<std::size_t>(lo)];

    // Eq. (5) denominator with positive-definiteness floor.
    real_t eta = kdiag_[static_cast<std::size_t>(hi)] +
                 kdiag_[static_cast<std::size_t>(lo)] -
                 2.0 * k_high[static_cast<std::size_t>(lo)];
    if (eta <= 0) eta = kEtaFloor;

    // Box bounds for the new alpha_low (Platt's L/H with i1 = high),
    // generalised to per-class box constraints C_hi / C_lo.
    const real_t s = y_hi * y_lo;
    const real_t c_hi = c_[static_cast<std::size_t>(hi)];
    const real_t c_lo = c_[static_cast<std::size_t>(lo)];
    real_t lo_bound, hi_bound;
    if (s < 0) {
      lo_bound = std::max<real_t>(0.0, a_lo_old - a_hi_old);
      hi_bound = std::min<real_t>(c_lo, c_hi + a_lo_old - a_hi_old);
    } else {
      lo_bound = std::max<real_t>(0.0, a_lo_old + a_hi_old - c_hi);
      hi_bound = std::min<real_t>(c_lo, a_lo_old + a_hi_old);
    }

    // Eq. (5): unconstrained optimum of alpha_low, then clip to the box.
    real_t a_lo_new = a_lo_old + y_lo * (f_hi - f_lo) / eta;
    a_lo_new = std::clamp(a_lo_new, lo_bound, hi_bound);
    // Eq. (6): alpha_high moves to keep sum alpha_i y_i = 0.
    const real_t a_hi_new = a_hi_old + s * (a_lo_old - a_lo_new);

    alpha_[static_cast<std::size_t>(lo)] = a_lo_new;
    alpha_[static_cast<std::size_t>(hi)] = a_hi_new;
    refresh_status(lo);
    refresh_status(hi);

    // Eq. (4): rank-2 update of every optimality indicator, fused with the
    // next iteration's high/low pass over the updated f.
    const real_t d_hi = (a_hi_new - a_hi_old) * y_hi;
    const real_t d_lo = (a_lo_new - a_lo_old) * y_lo;
    next_ok = update_and_select_high(d_hi, d_lo, k_high, k_low, next);

    ++iter;
    if (tracing && iter % gap_interval == 0) {
      trace::emit_counter("svm.smo.kkt_gap", sel.b_low - sel.b_high);
    }
    if (params_.on_trace && iter % std::max<index_t>(1, params_.trace_interval) == 0) {
      IterationTrace trace;
      trace.iteration = iter;
      trace.b_high = sel.b_high;
      trace.b_low = sel.b_low;
      trace.objective = current_objective();
      params_.on_trace(trace);
    }
    if (params_.on_checkpoint && params_.checkpoint_interval > 0 &&
        iter % params_.checkpoint_interval == 0) {
      params_.on_checkpoint(checkpoint(iter));
    }
  }

  // Bias: midpoint of the final optimality interval. Degenerate problems
  // (selection failed before the first step) fall back to rho = 0.
  rho_ = (std::isfinite(sel.b_high) && std::isfinite(sel.b_low))
             ? (sel.b_high + sel.b_low) / 2.0
             : 0.0;

  stats.iterations = iter;
  stats.b_high = sel.b_high;
  stats.b_low = sel.b_low;

  stats.objective = current_objective();
  stats.kernel_rows_computed = 0;  // filled by caller from the engine
  stats.cache_hit_rate = cache_->hit_rate();
  for (real_t a : alpha_) {
    if (a > kBoundEps) ++stats.support_vectors;
  }

  metrics::counter_add("svm.smo.iterations_total", iter - resume_iteration_);
  if (metrics::enabled()) {
    metrics::gauge_set("svm.smo.converged", stats.converged ? 1.0 : 0.0);
    metrics::gauge_set("svm.smo.objective", stats.objective);
    metrics::gauge_set("svm.smo.support_vectors",
                       static_cast<double>(stats.support_vectors));
    metrics::gauge_set("svm.smo.final_kkt_gap", sel.b_low - sel.b_high);
  }
  return stats;
}

}  // namespace ls
