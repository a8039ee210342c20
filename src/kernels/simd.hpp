// Runtime-dispatched SIMD micro-kernel layer.
//
// Every format SMSV hot loop (dense row dots, CSR gather-dots, the
// ELL diagonal strips and all their batched-rhs variants) calls
// through one process-wide KernelTable selected at startup from the CPU's
// capabilities (cpuid) and overridable with LS_SIMD=scalar|avx2|avx512|
// neon|native for tests and ops. The scalar table is always present and
// is the semantic reference the cross-ISA differential harness compares
// every other table against (tests/test_differential.cpp,
// tests/test_simd_fuzz.cpp).
//
// Numerical contract (see DESIGN.md §16): at any fixed level L with
// accumulator width W(L), a dot-style kernel accumulates W partial sums
// p = 0..W-1 over the elements with index ≡ p (mod W) of the full blocks,
// folds them left to right, then adds the tail elements sequentially —
// and the batched kernels replicate exactly that per-lane order with
// fused multiply-adds, so a batched product's lane k is BIT-identical to
// the single-rhs product at the same level. Across levels results differ
// only by accumulation order (ULP-bounded vs scalar).
//
// The SMO kernels (wss_high_low, wss_gain, smo_update_select) are the
// exception: they return an index, not an accumulation, and every score
// and every updated f is an element-wise IEEE expression, so every level
// returns exactly the scalar table's index and writes exactly its f.
// smo_update_select is SMO's Eq. 4 update of f fused with the next
// iteration's high/low pass: one read of f instead of two.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

#include "common/types.hpp"

namespace ls::simd {

/// Instruction-set level of a kernel table. Values are stable; order is
/// "preference order" — best_supported() returns the highest supported.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable reference kernels (always available)
  kNEON = 1,    ///< 128-bit AArch64 (2 doubles/vector)
  kAVX2 = 2,    ///< 256-bit x86 AVX2+FMA (4 doubles/vector)
  kAVX512 = 3,  ///< 512-bit x86 AVX-512F (8 doubles/vector)
};

inline constexpr int kNumSimdLevels = 4;

/// Upper bound on the rhs count `b` a batched kernel call accepts (the
/// batched kernels block their accumulators at this width). Mirrors
/// ls::kMaxSmsvBatch — a static_assert in formats/dense.cpp ties them.
inline constexpr int kMaxKernelBatch = 64;

/// SMO membership bits of the per-sample status byte the WSS scans read:
/// kInHigh marks I_high, kInLow marks I_low (Algorithm 1 steps 6-7).
inline constexpr std::uint8_t kInHigh = 1;
inline constexpr std::uint8_t kInLow = 2;

/// Result of a masked argmax scan: the lowest index attaining the maximal
/// score (strict `>`, so NaN never wins) and that score; {-inf, -1} when
/// no element scores above -inf.
struct Argmax {
  real_t value;
  index_t index;
};

inline constexpr Argmax kNoArgmax{-std::numeric_limits<real_t>::infinity(),
                                  -1};

/// Folds the argmax of a later range into that of an earlier one. Folding
/// any split of [0, n) left to right gives the serial scan's index.
inline Argmax fold_argmax(const Argmax& earlier, const Argmax& later) {
  return later.index >= 0 && later.value > earlier.value ? later : earlier;
}

/// Dispatch table of the format micro-kernels at one ISA level.
///
/// Pointer arguments never require alignment (CSR row starts land on
/// arbitrary offsets); every vector kernel uses unaligned loads. `w` is
/// the dense workspace (single-rhs kernels) or the interleaved rhs block
/// (batched kernels: entry j of rhs q at w[j*b + q]).
struct KernelTable {
  SimdLevel level;
  int width;  ///< doubles per vector accumulator block W(L)

  /// sum_j r[j] * w[j] over j in [0, n) — the DEN row dot.
  real_t (*dense_row_dot)(const real_t* r, const real_t* w, index_t n);

  /// sum_k v[k] * w[c[k]] over k in [0, len) — the CSR row gather-dot.
  real_t (*sparse_row_dot)(const real_t* v, const index_t* c, index_t len,
                           const real_t* w);

  /// y[q] = sum_j r[j] * w[j*b + q] for q in [0, b) (overwrites y).
  void (*dense_row_batch)(const real_t* r, index_t n, const real_t* w,
                          index_t b, real_t* y);

  /// y[q] = sum_k v[k] * w[c[k]*b + q] for q in [0, b) (overwrites y).
  void (*sparse_row_batch)(const real_t* v, const index_t* c, index_t len,
                           const real_t* w, index_t b, real_t* y);

  /// y[i] += v[i] * w[c[i]] for i in [0, len) — an ELL diagonal strip.
  void (*gather_axpy)(const real_t* v, const index_t* c, index_t len,
                      const real_t* w, real_t* y);

  /// y[i*b + q] += v[i] * w[c[i]*b + q] — batched ELL strip.
  void (*gather_axpy_batch)(const real_t* v, const index_t* c, index_t len,
                            const real_t* w, index_t b, real_t* y);

  /// SMO's fused I_high/I_low pass over i in [0, n): out[0] = argmax of
  /// -f[i] over status[i] & kInHigh, out[1] = argmax of f[i] over
  /// status[i] & kInLow. Indices are relative to the pointers.
  void (*wss_high_low)(const real_t* f, const std::uint8_t* status,
                       index_t n, Argmax* out);

  /// SMO's second-order (WSS2) pass: argmax over i with status[i] & kInLow
  /// and b = f[i] - b_high > 0 of b*b / eta, where eta = (k_hh + kdiag[i])
  /// - 2 k_high[i], replaced by eta_floor when eta <= 0.
  Argmax (*wss_gain)(const real_t* f, const std::uint8_t* status,
                     const real_t* kdiag, const real_t* k_high, index_t n,
                     real_t b_high, real_t k_hh, real_t eta_floor);

  /// SMO's Eq. 4 update fused with the next wss_high_low pass: for i in
  /// [0, n), f[i] = f[i] + (d_hi * k_high[i] + d_lo * k_low[i]) with
  /// separate multiplies and adds (never fused), then out[] exactly as
  /// wss_high_low returns it over the updated f.
  void (*smo_update_select)(real_t* f, const real_t* k_high,
                            const real_t* k_low, real_t d_hi, real_t d_lo,
                            const std::uint8_t* status, index_t n,
                            Argmax* out);
};

/// Lower-case level name ("scalar", "neon", "avx2", "avx512").
std::string_view level_name(SimdLevel level);

/// True when this binary carries a table for `level` (compile-time arch).
bool level_compiled(SimdLevel level);

/// True when `level` is compiled in AND the running CPU supports it.
bool level_supported(SimdLevel level);

/// Highest supported level on this host ("native").
SimdLevel best_supported();

/// Parses "scalar" / "neon" / "avx2" / "avx512" / "native". Returns false
/// on anything else (caller decides the fallback).
bool parse_level(std::string_view name, SimdLevel* out);

/// The level the active table actually runs at (initialises from LS_SIMD
/// on first use; unset or "native" means best_supported()).
SimdLevel active_level();

/// Installs the table for `want`; returns the level actually installed.
/// An unsupported level falls back to scalar, increments the fallback
/// counter and warns once on stderr. Thread-safe (atomic table swap);
/// callers racing kernels against a level switch see either table, never
/// a torn one.
SimdLevel set_level(SimdLevel want);

/// Applies one LS_SIMD-style setting string ("avx2", "native", ...). An
/// unparsable string falls back to scalar with a warning + counter, per
/// the dispatch-matrix contract. Returns the installed level. Exposed so
/// the env-init path is testable in-process.
SimdLevel apply_setting(std::string_view setting);

/// Number of times a requested level (env or set_level) was unknown or
/// unsupported and the dispatcher fell back to scalar.
std::int64_t fallback_events();

/// The active dispatch table.
const KernelTable& kernels();

/// RAII level override for tests and benches: installs `want` (with the
/// usual clamp-to-supported) and restores the previous level on scope
/// exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel want)
      : previous_(active_level()), installed_(set_level(want)) {}
  ~ScopedSimdLevel() { set_level(previous_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

  /// The level actually installed (scalar when `want` was unsupported).
  SimdLevel installed() const { return installed_; }

 private:
  SimdLevel previous_;
  SimdLevel installed_;
};

}  // namespace ls::simd
