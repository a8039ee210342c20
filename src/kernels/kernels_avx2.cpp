// AVX2+FMA kernel table (W = 4). Compiled with -mavx2 -mfma only for
// this TU; the dispatcher installs it only after __builtin_cpu_supports
// confirms the host has both.
#include "kernels/kernel_table.hpp"

#if defined(LS_KERNELS_X86)

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "kernels/vector_kernels.hpp"

namespace ls::simd::detail {

namespace {

struct Avx2Ops {
  using reg = __m256d;
  static constexpr int W = 4;

  static reg zero() { return _mm256_setzero_pd(); }
  static reg loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg broadcast(double a) { return _mm256_set1_pd(a); }
  static reg fmadd(reg a, reg b, reg c) { return _mm256_fmadd_pd(a, b, c); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg gather(const double* base, const index_t* idx) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return _mm256_i64gather_pd(base, vi, 8);
  }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_pd(a, b); }

  using mask = __m256d;
  static mask flags(const std::uint8_t* s, std::uint8_t bit) {
    std::int32_t word;
    std::memcpy(&word, s, sizeof(word));
    const __m256i lanes = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(word));
    const __m256i b = _mm256_set1_epi64x(bit);
    return _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(lanes, b), b));
  }
  static mask gt(reg a, reg b) { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static mask le(reg a, reg b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static mask both(mask a, mask b) { return _mm256_and_pd(a, b); }
  static bool any(mask m) { return _mm256_movemask_pd(m) != 0; }
  static reg select(mask m, reg a, reg b) { return _mm256_blendv_pd(b, a, m); }
};

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = make_vector_table<Avx2Ops>(SimdLevel::kAVX2);
  return table;
}

}  // namespace ls::simd::detail

#endif  // LS_KERNELS_X86
