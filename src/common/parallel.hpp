// Shared-memory parallelism helpers.
//
// The paper's kernels were parallelised with OpenMP on Ivy Bridge + Xeon Phi;
// we use the same model. All hot loops in src/formats and src/svm go through
// these helpers so thread count, scheduling and the no-OpenMP fallback live
// in exactly one place.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace ls {

/// Number of threads OpenMP will use for parallel regions (1 without OpenMP).
inline int num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Sets the OpenMP thread count (no-op without OpenMP).
inline void set_num_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n > 0 ? n : 1);
#else
  (void)n;
#endif
}

/// Index of the calling thread inside a parallel region (0 without OpenMP).
inline int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Static-schedule parallel loop over [0, n). `fn(i)` must be thread-safe
/// for distinct i. Falls back to a serial loop without OpenMP.
template <class Fn>
void parallel_for(index_t n, Fn&& fn) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) fn(i);
#else
  for (index_t i = 0; i < n; ++i) fn(i);
#endif
}

/// Static-schedule parallel loop over [0, n) in contiguous blocks:
/// `fn(lo, hi)` is called once per block with lo < hi and the blocks
/// partition [0, n). Block boundaries depend only on n and the thread
/// count, matching parallel_for's static schedule. Used where the body
/// hands a whole contiguous range to a SIMD kernel instead of visiting
/// one index at a time.
template <class Fn>
void parallel_for_blocks(index_t n, Fn&& fn) {
  if (n <= 0) return;
  const index_t chunks = std::min<index_t>(static_cast<index_t>(num_threads()), n);
  parallel_for(chunks, [&](index_t c) {
    const index_t lo = n * c / chunks;
    const index_t hi = n * (c + 1) / chunks;
    if (lo < hi) fn(lo, hi);
  });
}

/// Parallel sum-reduction of fn(i) over [0, n).
template <class Fn>
real_t parallel_sum(index_t n, Fn&& fn) {
  real_t total = 0.0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) reduction(+ : total)
  for (index_t i = 0; i < n; ++i) total += fn(i);
#else
  for (index_t i = 0; i < n; ++i) total += fn(i);
#endif
  return total;
}

/// Deterministic parallel reduction over contiguous blocks: [0, n) is cut
/// into one block per thread, `fn(lo, hi)` reduces each block (lo < hi),
/// and the partials are combined left to right. For an associative
/// `combine` the result is independent of the thread count. Used where a
/// whole block goes to one SIMD kernel call (the SMO working-set scans).
template <class T, class Fn, class Combine>
T parallel_reduce_blocks(index_t n, T init, Fn&& fn, Combine&& combine) {
  const index_t chunks =
      std::min<index_t>(static_cast<index_t>(num_threads()), n);
  if (chunks <= 1) return n > 0 ? combine(init, fn(index_t{0}, n)) : init;
  std::vector<T> partial(static_cast<std::size_t>(chunks), init);
  parallel_for(chunks, [&](index_t c) {
    const index_t lo = n * c / chunks;
    const index_t hi = n * (c + 1) / chunks;
    partial[static_cast<std::size_t>(c)] = fn(lo, hi);
  });
  T acc = init;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

/// Deterministic parallel reduction of fn(i) over [0, n): each of the T
/// chunks folds its range serially in index order, then the T partials are
/// combined left to right. For an associative `combine` the result is
/// independent of the thread count — unlike an OpenMP `reduction`, whose
/// combine order is unspecified. Below 4096 elements the fold is serial.
template <class T, class Fn, class Combine>
T parallel_reduce(index_t n, T init, Fn&& fn, Combine&& combine) {
  auto fold = [&](index_t lo, index_t hi) {
    T acc = init;
    for (index_t i = lo; i < hi; ++i) acc = combine(acc, fn(i));
    return acc;
  };
  if (num_threads() <= 1 || n < 4096) return fold(0, n);
  return parallel_reduce_blocks(n, init, fold, combine);
}

}  // namespace ls
