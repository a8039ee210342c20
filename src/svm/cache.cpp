#include "svm/cache.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "common/failpoint.hpp"

namespace ls {

KernelCache::KernelCache(RowKernelSource& source, std::size_t budget_bytes)
    : source_(&source) {
  const std::size_t row_bytes =
      static_cast<std::size_t>(source.num_rows()) * sizeof(real_t);
  // At least two rows must be resident: SMO holds K_high and K_low spans
  // simultaneously, and eviction must never recycle the other live row.
  max_rows_ = row_bytes > 0 ? std::max<std::size_t>(2, budget_bytes / row_bytes)
                            : 2;
}

KernelCache::Entry KernelCache::take_lru() {
  Entry entry = std::move(lru_.back());
  map_.erase(entry.row);
  lru_.pop_back();
  resident_.store(map_.size(), std::memory_order_release);
  return entry;
}

std::span<const real_t> KernelCache::get_row(index_t i) {
  const auto it = map_.find(i);
  if (it != map_.end()) {
    hits_.fetch_add(1, std::memory_order_release);
    // Move to front (most recently used).
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->data;
  }

  misses_.fetch_add(1, std::memory_order_release);
  Entry entry;
  if (map_.size() >= max_rows_) {
    // Recycle the least-recently-used buffer instead of reallocating.
    entry = take_lru();
  } else {
    try {
      LS_FAILPOINT("svm.cache.alloc");
      entry.data.resize(static_cast<std::size_t>(source_->num_rows()));
    } catch (const std::bad_alloc&) {
      // Memory pressure: stop growing — freeze the budget at the resident
      // set and recycle the LRU buffer instead. Training continues with a
      // smaller cache (more recomputes) rather than dying. Below two
      // resident rows there is nothing safe to recycle (the caller may
      // hold a live span to the single resident row), so propagate.
      if (lru_.size() < 2) throw;
      max_rows_ = std::max<std::size_t>(2, map_.size());
      entry = take_lru();
    }
  }
  entry.row = i;
  source_->compute_row(i, entry.data);
  lru_.push_front(std::move(entry));
  map_[i] = lru_.begin();
  resident_.store(map_.size(), std::memory_order_release);
  return lru_.front().data;
}

}  // namespace ls
