// Ablation: the SIMD kernel dispatch layer (src/kernels). Measures the
// single-thread speedup of each supported LS_SIMD level over the scalar
// reference kernels on the two paths the paper's per-iteration cost is
// dominated by: the DEN row dot (contiguous streams + FMA) and the CSR
// SMSV (gather-dot), single-rhs and batched. Acceptance bar: on a host
// whose best level is at least AVX2, the native table must run the
// dense-gather paths and the batched CSR SMSV path (the one the serve
// batcher and BatchPredictor drive) at least 2x faster than the scalar
// table, or the bench exits non-zero. The single-rhs CSR gather-dot is
// reported but not gated: its rows are independent, so out-of-order
// execution already extracts the ILP on the scalar side and the vector
// win collapses to the host's gather throughput (see DESIGN.md §16) —
// near 1x on machines that microcode vgatherqpd, 2x+ where it is fast.
// The SMO scans (wss_high_low, wss_gain, and smo_update_select, the Eq. 4
// update fused with the high/low scan) are reported as ns per element at
// every level for n in {450, 2265, 4096} (breast_cancer-, adult- and
// stream-window-sized problems); not gated.
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "data/synthetic.hpp"
#include "kernels/simd.hpp"

namespace {

using namespace ls;
using simd::SimdLevel;

struct PathTiming {
  double den_single;   ///< seconds per DEN multiply
  double den_batch;    ///< seconds per DEN batched multiply
  double csr_single;   ///< seconds per CSR multiply
  double csr_batch;    ///< seconds per CSR batched multiply
};

/// Times the four hot paths at the given level. Shapes are sized so the
/// working set streams from cache (the dispatch win is compute-bound):
/// one dense 256x1024 block and one 4096x1024 CSR matrix with 64-long
/// rows, batch width 16.
PathTiming time_level(SimdLevel level, const AnyMatrix& den,
                      const AnyMatrix& csr) {
  simd::ScopedSimdLevel guard(level);
  constexpr index_t kBatch = 16;
  PathTiming t{};

  std::vector<real_t> w(static_cast<std::size_t>(den.cols()));
  Rng rng(0x51D7ull);
  for (auto& x : w) x = rng.uniform(-1.0, 1.0);
  std::vector<real_t> wb(w.size() * kBatch);
  for (auto& x : wb) x = rng.uniform(-1.0, 1.0);

  std::vector<real_t> y(static_cast<std::size_t>(den.rows()));
  std::vector<real_t> yb(y.size() * kBatch);
  t.den_single = time_best([&] { den.multiply_dense(w, y); }, 5, 0.05);
  t.den_batch =
      time_best([&] { den.multiply_dense_batch(wb, kBatch, yb); }, 5, 0.05);

  std::vector<real_t> yc(static_cast<std::size_t>(csr.rows()));
  std::vector<real_t> ycb(yc.size() * kBatch);
  t.csr_single = time_best([&] { csr.multiply_dense(w, yc); }, 5, 0.05);
  t.csr_batch =
      time_best([&] { csr.multiply_dense_batch(wb, kBatch, ycb); }, 5, 0.05);
  return t;
}

constexpr std::array<index_t, 3> kScanSizes = {450, 2265, 4096};

/// ns per element of the high/low scan, the gain scan and the update
/// fused with the high/low scan at the active level, for each of
/// kScanSizes.
struct ScanTiming {
  std::array<double, kScanSizes.size()> high_low;
  std::array<double, kScanSizes.size()> gain;
  std::array<double, kScanSizes.size()> update_select;
};

/// Inputs shaped like a mid-solve SMO state: about half the samples in
/// each of I_high and I_low, a quarter in both (free), distinct f values.
ScanTiming time_scans(SimdLevel level) {
  simd::ScopedSimdLevel guard(level);
  const simd::KernelTable& kt = simd::kernels();
  ScanTiming t{};
  for (std::size_t s = 0; s < kScanSizes.size(); ++s) {
    const index_t n = kScanSizes[s];
    const auto un = static_cast<std::size_t>(n);
    Rng rng(0x5CA7ull + un);
    std::vector<real_t> f(un), kdiag(un, 1.0), k_high(un), k_low(un);
    std::vector<std::uint8_t> status(un);
    for (std::size_t i = 0; i < un; ++i) {
      f[i] = rng.uniform(-1.0, 1.0);
      k_high[i] = rng.uniform(0.0, 1.0);
      k_low[i] = rng.uniform(0.0, 1.0);
      status[i] = static_cast<std::uint8_t>(rng.uniform_int(1, 3));
    }
    std::array<simd::Argmax, 2> hl{};
    volatile index_t sink = 0;
    // Repeat the scan enough that one timed call is well above the timer
    // resolution.
    constexpr int kReps = 200;
    const double per_elem = 1e9 / static_cast<double>(kReps * n);
    t.high_low[s] = per_elem * time_best(
                                   [&] {
                                     for (int r = 0; r < kReps; ++r) {
                                       kt.wss_high_low(f.data(), status.data(),
                                                       n, hl.data());
                                       sink = hl[0].index;
                                     }
                                   },
                                   5, 0.05);
    t.gain[s] = per_elem * time_best(
                               [&] {
                                 for (int r = 0; r < kReps; ++r) {
                                   sink = kt.wss_gain(f.data(), status.data(),
                                                      kdiag.data(),
                                                      k_high.data(), n, -0.5,
                                                      1.0, 1e-12)
                                              .index;
                                 }
                               },
                               5, 0.05);
    // Alternate the step's sign so f stays near its start over the reps.
    t.update_select[s] =
        per_elem * time_best(
                       [&] {
                         for (int r = 0; r < kReps; ++r) {
                           const real_t d = r % 2 ? -1e-3 : 1e-3;
                           kt.smo_update_select(f.data(), k_high.data(),
                                                k_low.data(), d, -d,
                                                status.data(), n, hl.data());
                           sink = hl[1].index;
                         }
                       },
                       5, 0.05);
    (void)sink;
  }
  return t;
}

}  // namespace

int main() {
  bench::banner("Ablation: SIMD kernel dispatch",
                "per-LS_SIMD-level speedup over the scalar kernel table");
  set_num_threads(1);  // isolate the kernel win from threading

  Rng rng(0xD15Aull);
  const CooMatrix den_coo = make_dense_matrix(256, 1024, rng);
  std::vector<index_t> lens(4096, 64);
  const CooMatrix csr_coo = make_random_sparse(4096, 1024, lens, rng);
  const AnyMatrix den = AnyMatrix::from_coo(den_coo, Format::kDEN);
  const AnyMatrix csr = AnyMatrix::from_coo(csr_coo, Format::kCSR);

  const PathTiming scalar = time_level(SimdLevel::kScalar, den, csr);

  Table table({"Level", "W", "DEN x1", "DEN x16", "CSR x1", "CSR x16"});
  Table scan_table({"Level", "high/low n=450", "n=2265", "n=4096",
                    "gain n=450", "n=2265", "n=4096", "update+select n=450",
                    "n=2265", "n=4096"});
  std::vector<std::string> columns = {
      "level", "width", "den_single_speedup", "den_batch_speedup",
      "csr_single_speedup", "csr_batch_speedup", "den_single_seconds",
      "csr_single_seconds"};
  for (const char* kernel : {"high_low", "gain", "update_select"}) {
    for (index_t n : kScanSizes) {
      columns.push_back(std::string("scan_") + kernel + "_ns_per_elem_n" +
                        std::to_string(n));
    }
  }
  CsvWriter csv(bench::csv_path("ablation_simd_dispatch"), columns);

  double native_den = 1.0;
  double native_denb = 1.0;
  double native_csr = 1.0;
  double native_csrb = 1.0;
  for (int l = 0; l < simd::kNumSimdLevels; ++l) {
    const auto level = static_cast<SimdLevel>(l);
    if (!simd::level_supported(level)) continue;
    const PathTiming t = time_level(level, den, csr);
    const double s_den = scalar.den_single / t.den_single;
    const double s_denb = scalar.den_batch / t.den_batch;
    const double s_csr = scalar.csr_single / t.csr_single;
    const double s_csrb = scalar.csr_batch / t.csr_batch;
    if (level == simd::best_supported()) {
      native_den = s_den;
      native_denb = s_denb;
      native_csr = s_csr;
      native_csrb = s_csrb;
    }
    int width = 1;
    {
      simd::ScopedSimdLevel guard(level);
      width = simd::kernels().width;
    }
    table.add_row({std::string(simd::level_name(level)), std::to_string(width),
                   bench::speedup_cell(s_den, s_den >= 2.0),
                   bench::speedup_cell(s_denb, s_denb >= 2.0),
                   bench::speedup_cell(s_csr, s_csr >= 2.0),
                   bench::speedup_cell(s_csrb, s_csrb >= 2.0)});
    const ScanTiming scans = time_scans(level);
    std::vector<std::string> row = {
        std::string(simd::level_name(level)), std::to_string(width),
        fmt_double(s_den, 3), fmt_double(s_denb, 3), fmt_double(s_csr, 3),
        fmt_double(s_csrb, 3), fmt_double(t.den_single, 9),
        fmt_double(t.csr_single, 9)};
    std::vector<std::string> scan_row = {std::string(simd::level_name(level))};
    for (const auto* per_n :
         {&scans.high_low, &scans.gain, &scans.update_select}) {
      for (double ns : *per_n) {
        row.push_back(fmt_double(ns, 3));
        scan_row.push_back(fmt_double(ns, 2) + " ns");
      }
    }
    scan_table.add_row(scan_row);
    csv.write_row(row);
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Speedups are single-thread wall time vs the scalar table on the same\n"
      "data. '*' marks >= 2.0x — the acceptance bar for the native level on\n"
      "the dense-gather paths and the batched CSR SMSV path. The single-rhs\n"
      "CSR dot is gather-throughput-bound (rows are independent, so OOO\n"
      "already parallelises the scalar chain) and is reported, not gated.\n");
  std::printf(
      "\nSMO scans, ns per element (single thread); update+select is the\n"
      "Eq. 4 update of f fused with the next high/low scan:\n%s\n",
      scan_table.str().c_str());
  bench::finish(csv, "ablation_simd_dispatch");

  const bool vector_host = simd::best_supported() >= SimdLevel::kAVX2;
  if (vector_host &&
      (native_den < 2.0 || native_denb < 2.0 || native_csrb < 2.0)) {
    std::printf(
        "FAIL: native level below the 2x bar "
        "(DEN %.2fx, DEN batch %.2fx, CSR batch %.2fx)\n",
        native_den, native_denb, native_csrb);
    return 1;
  }
  std::printf(
      "native level: DEN %.2fx (batch %.2fx), CSR %.2fx (batch %.2fx) vs "
      "scalar\n",
      native_den, native_denb, native_csr, native_csrb);
  return 0;
}
