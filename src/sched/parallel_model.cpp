#include "sched/parallel_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace ls {

std::vector<double> per_row_ops(Format f, const std::vector<index_t>& row_nnz,
                                index_t n) {
  std::vector<double> ops(row_nnz.size());
  switch (f) {
    case Format::kDEN:
      std::fill(ops.begin(), ops.end(), static_cast<double>(n));
      break;
    case Format::kCSR:
    case Format::kCOO:
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ops[i] = static_cast<double>(row_nnz[i]);
      }
      break;
    case Format::kELL: {
      index_t mdim = 0;
      for (index_t d : row_nnz) mdim = std::max(mdim, d);
      std::fill(ops.begin(), ops.end(), static_cast<double>(mdim));
      break;
    }
    case Format::kDIA:
      // Not row-decomposable (it splits by stripe); callers use the
      // dedicated path in simulate_makespan.
      std::fill(ops.begin(), ops.end(), 0.0);
      break;
  }
  return ops;
}

MakespanResult simulate_makespan(Format f,
                                 const std::vector<index_t>& row_nnz,
                                 index_t n, index_t ndig, int threads,
                                 const CostCalibration& cal) {
  LS_CHECK(threads >= 1, "need at least one thread");
  const index_t m = static_cast<index_t>(row_nnz.size());
  LS_CHECK(m > 0, "empty matrix");
  MakespanResult r;

  if (f == Format::kDIA) {
    // Stripe-parallel: ndig stripes of min(M, N) slots, blocked statically.
    const double stripe = static_cast<double>(std::min(m, n));
    const double total = static_cast<double>(ndig) * stripe;
    const index_t per_thread = (ndig + threads - 1) / threads;
    r.total_ops = total;
    r.critical_ops = static_cast<double>(per_thread) * stripe;
  } else if (f == Format::kCOO) {
    // Nonzero-parallel: "all the non-zero elements in data array can be
    // processed in parallel" (Section III-B). This models the segmented-
    // reduction / atomic-update COO kernel the paper's MIC implementation
    // uses, where a chunk boundary can fall inside a row — so the work
    // splits perfectly regardless of row-length skew.
    double total = 0.0;
    for (index_t l : row_nnz) total += static_cast<double>(l);
    r.total_ops = total;
    r.critical_ops = std::ceil(total / threads);
  } else {
    // Row-parallel static blocks (DEN, CSR, ELL).
    const std::vector<double> ops = per_row_ops(f, row_nnz, n);
    const double total = std::accumulate(ops.begin(), ops.end(), 0.0);
    r.total_ops = total;
    double worst = 0.0;
    for (int c = 0; c < threads; ++c) {
      const std::size_t lo = row_nnz.size() * static_cast<std::size_t>(c) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = row_nnz.size() *
                             (static_cast<std::size_t>(c) + 1) /
                             static_cast<std::size_t>(threads);
      double block = 0.0;
      for (std::size_t i = lo; i < hi; ++i) block += ops[i];
      worst = std::max(worst, block);
    }
    r.critical_ops = worst;
  }

  r.seconds = r.critical_ops * cal.seconds_per_op(f);
  const double fair = r.total_ops / threads;
  r.imbalance = fair > 0.0 ? r.critical_ops / fair : 1.0;
  return r;
}

}  // namespace ls
