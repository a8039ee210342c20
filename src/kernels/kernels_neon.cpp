// AArch64 NEON kernel table (W = 2). NEON has no hardware gather for
// doubles; the wrapper emulates it with two scalar loads, which still
// pays off in the batched kernels (the q loop vectorises) and keeps the
// accumulation-order contract identical to the x86 tables.
#include "kernels/kernel_table.hpp"

#if defined(LS_KERNELS_NEON)

#include <arm_neon.h>

#include <cstdint>

#include "kernels/vector_kernels.hpp"

namespace ls::simd::detail {

namespace {

struct NeonOps {
  using reg = float64x2_t;
  static constexpr int W = 2;

  static reg zero() { return vdupq_n_f64(0.0); }
  static reg loadu(const double* p) { return vld1q_f64(p); }
  static void storeu(double* p, reg v) { vst1q_f64(p, v); }
  static reg broadcast(double a) { return vdupq_n_f64(a); }
  static reg fmadd(reg a, reg b, reg c) { return vfmaq_f64(c, a, b); }
  static reg add(reg a, reg b) { return vaddq_f64(a, b); }
  static reg gather(const double* base, const index_t* idx) {
    const double t[2] = {base[idx[0]], base[idx[1]]};
    return vld1q_f64(t);
  }
  static reg sub(reg a, reg b) { return vsubq_f64(a, b); }
  static reg mul(reg a, reg b) { return vmulq_f64(a, b); }
  static reg div(reg a, reg b) { return vdivq_f64(a, b); }

  using mask = uint64x2_t;
  static mask flags(const std::uint8_t* s, std::uint8_t bit) {
    const std::uint64_t t[2] = {(s[0] & bit) ? ~0ull : 0ull,
                                (s[1] & bit) ? ~0ull : 0ull};
    return vld1q_u64(t);
  }
  static mask gt(reg a, reg b) { return vcgtq_f64(a, b); }
  static mask le(reg a, reg b) { return vcleq_f64(a, b); }
  static mask both(mask a, mask b) { return vandq_u64(a, b); }
  static bool any(mask m) {
    return (vgetq_lane_u64(m, 0) | vgetq_lane_u64(m, 1)) != 0;
  }
  static reg select(mask m, reg a, reg b) { return vbslq_f64(m, a, b); }
};

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable table = make_vector_table<NeonOps>(SimdLevel::kNEON);
  return table;
}

}  // namespace ls::simd::detail

#endif  // LS_KERNELS_NEON
