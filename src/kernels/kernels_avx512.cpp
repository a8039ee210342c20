// AVX-512F kernel table (W = 8). Compiled with -mavx512f only for this
// TU; the dispatcher installs it only after __builtin_cpu_supports
// confirms the host has it. No masked loads anywhere — tails run scalar,
// so the kernels never read past the caller's buffers (ASan-clean on
// arbitrary CSR row offsets).
#include "kernels/kernel_table.hpp"

#if defined(LS_KERNELS_X86)

#include <immintrin.h>

#include <cstdint>

#include "kernels/vector_kernels.hpp"

namespace ls::simd::detail {

namespace {

struct Avx512Ops {
  using reg = __m512d;
  static constexpr int W = 8;

  static reg zero() { return _mm512_setzero_pd(); }
  static reg loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg broadcast(double a) { return _mm512_set1_pd(a); }
  static reg fmadd(reg a, reg b, reg c) { return _mm512_fmadd_pd(a, b, c); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg gather(const double* base, const index_t* idx) {
    const __m512i vi = _mm512_loadu_si512(idx);
    return _mm512_i64gather_pd(vi, base, 8);
  }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  static reg div(reg a, reg b) { return _mm512_div_pd(a, b); }

  using mask = __mmask8;
  static mask flags(const std::uint8_t* s, std::uint8_t bit) {
    // The zero-masked form: GCC 12's unmasked _mm512_cvtepu8_epi64 trips
    // -Wmaybe-uninitialized.
    const __m512i lanes = _mm512_maskz_cvtepu8_epi64(
        0xFF, _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s)));
    return _mm512_test_epi64_mask(lanes, _mm512_set1_epi64(bit));
  }
  static mask gt(reg a, reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ); }
  static mask le(reg a, reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static mask both(mask a, mask b) { return static_cast<mask>(a & b); }
  static bool any(mask m) { return m != 0; }
  static reg select(mask m, reg a, reg b) {
    return _mm512_mask_blend_pd(m, b, a);
  }
};

}  // namespace

const KernelTable& avx512_table() {
  static const KernelTable table =
      make_vector_table<Avx512Ops>(SimdLevel::kAVX512);
  return table;
}

}  // namespace ls::simd::detail

#endif  // LS_KERNELS_X86
