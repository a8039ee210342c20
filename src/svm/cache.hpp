// LRU kernel-row cache, equivalent to LIBSVM's Cache class.
//
// SMO revisits a small working set of rows many times (the same violating
// pairs recur as alpha values bounce along the box constraints), so caching
// kernel rows converts most row requests into O(1) hits. The ablation bench
// bench/ablation_kernel_cache measures the effect.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "svm/kernel_engine.hpp"

namespace ls {

/// Byte-budgeted LRU cache of kernel rows on top of a RowKernelSource.
class KernelCache {
 public:
  /// `source` must outlive the cache. `budget_bytes` bounds the total size
  /// of cached rows (at least two rows are always cacheable).
  KernelCache(RowKernelSource& source, std::size_t budget_bytes);

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// Returns kernel row i, computing it on miss. The span stays valid until
  /// the next get_row call (eviction may recycle the buffer).
  std::span<const real_t> get_row(index_t i);

  real_t diagonal(index_t i) const { return source_->diagonal(i); }
  index_t num_rows() const { return source_->num_rows(); }

  // Statistics accessors are safe to call from any thread while the solver
  // runs: every counter update is a release store and every read here an
  // acquire load, so a snapshot (e.g. the serving engine's stats endpoint)
  // observes a consistent monotone value instead of racing a plain
  // increment.
  std::int64_t hits() const { return hits_.load(std::memory_order_acquire); }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_acquire);
  }
  double hit_rate() const {
    const double total = static_cast<double>(hits() + misses());
    return total > 0 ? static_cast<double>(hits()) / total : 0.0;
  }

  /// Rows currently resident. Mirrors map_.size() through an atomic so
  /// off-thread snapshots never touch the (unlocked) map itself.
  std::size_t resident_rows() const {
    return resident_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    index_t row;
    std::vector<real_t> data;
  };

  /// Unlinks the least-recently-used entry and returns it, buffer intact,
  /// for reuse.
  Entry take_lru();

  RowKernelSource* source_;
  std::size_t max_rows_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<index_t, std::list<Entry>::iterator> map_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::size_t> resident_{0};  // == map_.size(), for snapshots
};

}  // namespace ls
