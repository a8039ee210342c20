// A cache-line / SIMD aligned, value-initialised array.
//
// The format kernels stream long contiguous arrays (data, indices, ptr);
// 64-byte alignment keeps loads aligned for the compiler's autovectoriser
// (the paper's implementation relied on Xeon Phi vector instructions and
// Cilk array notation; here we give GCC the same opportunity).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "common/error.hpp"
#include "common/types.hpp"

namespace ls {

/// Fixed-capacity aligned array of trivially-copyable T with value semantics.
///
/// Unlike std::vector this guarantees 64-byte alignment of the first element
/// and never over-allocates; resize discards contents (the substrate only
/// ever sizes buffers once per matrix).
template <class T>
class AlignedBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "AlignedBuffer requires trivially copyable element types");

 public:
  static constexpr std::size_t kAlignment = 64;

  // The SIMD dispatch layer (src/kernels) assumes buffers it streams are at
  // least 64-byte aligned — one full AVX-512 vector / x86 cache line — and
  // std::aligned_alloc requires a power-of-two alignment that also satisfies
  // the element type.
  static_assert(kAlignment >= 64, "SIMD kernels assume 64-byte alignment");
  static_assert((kAlignment & (kAlignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(alignof(T) <= kAlignment,
                "element alignment exceeds buffer alignment");

  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) { resize(n); }

  AlignedBuffer(std::size_t n, T fill) {
    resize(n);
    std::fill(begin(), end(), fill);
  }

  // memcpy with a null pointer is undefined even for zero bytes, and an
  // empty buffer holds null: copy only when there is something to copy.
  AlignedBuffer(const AlignedBuffer& other) {
    resize(other.size_);
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) {
      resize(other.size_);
      if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
    }
    return *this;
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// Reallocates to exactly n value-initialised elements (contents lost).
  void resize(std::size_t n) {
    release();
    if (n == 0) return;
    // Round the byte size up to a multiple of the alignment as required by
    // std::aligned_alloc.
    const std::size_t bytes =
        ((n * sizeof(T) + kAlignment - 1) / kAlignment) * kAlignment;
    data_ = static_cast<T*>(std::aligned_alloc(kAlignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc{};
    std::memset(data_, 0, bytes);
    size_ = n;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  /// Bytes actually occupied by live elements (storage accounting).
  std::size_t size_bytes() const noexcept { return size_ * sizeof(T); }

 private:
  void release() noexcept {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ls
