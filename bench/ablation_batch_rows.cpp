// Ablation: batched kernel-row fetch. The SMO prefetch pipeline,
// batch_predict and cross-validation all fetch kernel rows through
// RowKernelSource::compute_rows, which streams the data matrix once per
// block of B right-hand sides (multiply_dense_batch) instead of once per
// row. This bench measures the per-row win of that batching against the
// per-row compute_row loop, per format and per batch size.
//
// The win is pure memory-traffic amortisation: gather/scatter and the
// kernel map cost the same on both paths, but the matrix (values + index
// structures) is read B times less often. Formats that stream the most
// bytes per row (DEN, ELL, DIA) gain the most.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "data/profiles.hpp"
#include "svm/kernel_engine.hpp"

namespace {

using namespace ls;

/// Per-row seconds for fetching `rows` kernel rows through the batched
/// entry point (one multiply_dense_batch per block of kMaxSmsvBatch).
double batched_row_seconds(FormatKernelEngine& engine,
                           std::span<const index_t> rows,
                           std::vector<real_t>& out) {
  const double secs =
      time_best([&] { engine.compute_rows(rows, out); }, 3, 0.002);
  return secs / static_cast<double>(rows.size());
}

/// Per-row seconds for the pre-batching baseline: one compute_row call
/// (gather + scatter + single-rhs SMSV + kernel map) per requested row.
double loop_row_seconds(FormatKernelEngine& engine,
                        std::span<const index_t> rows,
                        std::vector<real_t>& out) {
  const auto n = static_cast<std::size_t>(engine.num_rows());
  const double secs = time_best(
      [&] {
        for (std::size_t k = 0; k < rows.size(); ++k) {
          engine.compute_row(rows[k],
                             std::span<real_t>(out.data() + k * n, n));
        }
      },
      3, 0.002);
  return secs / static_cast<double>(rows.size());
}

}  // namespace

int main() {
  bench::banner("Ablation: batched kernel rows",
                "compute_rows (blocked SpMM) vs per-row compute_row loop");

  const std::vector<index_t> batch_sizes = {2, 4, 8, 16, 32};
  KernelParams kernel;
  kernel.type = KernelType::kLinear;  // keeps the (shared) map cost minimal

  Table table({"Dataset", "Format", "B", "us/row (loop)", "us/row (batch)",
               "speedup"});
  CsvWriter csv(bench::csv_path("ablation_batch_rows"),
                {"dataset", "format", "batch_rows", "seconds_per_row_loop",
                 "seconds_per_row_batched", "speedup"});

  // One profile per structure class: sparse rows, dense, banded.
  for (const char* name : {"adult", "mnist", "trefethen"}) {
    const Dataset ds = profile_by_name(name).generate();
    Rng rng(0xBA7C4ull);

    for (Format f : kExtendedFormats) {
      const AnyMatrix mat = AnyMatrix::from_coo(ds.X, f);
      FormatKernelEngine engine(mat, kernel);
      const auto n = static_cast<std::size_t>(engine.num_rows());

      for (index_t b : batch_sizes) {
        std::vector<index_t> rows(static_cast<std::size_t>(b));
        for (index_t& r : rows) r = rng.uniform_int(0, ds.rows() - 1);
        std::vector<real_t> out(static_cast<std::size_t>(b) * n);

        const double batched = batched_row_seconds(engine, rows, out);
        const double loop = loop_row_seconds(engine, rows, out);
        const double speedup = batched > 0 ? loop / batched : 0.0;

        table.add_row({name, std::string(format_name(f)), std::to_string(b),
                       fmt_double(loop * 1e6, 2),
                       fmt_double(batched * 1e6, 2),
                       bench::speedup_cell(speedup, speedup >= 1.5)});
        csv.write_row({name, std::string(format_name(f)), std::to_string(b),
                       fmt_double(loop, 9), fmt_double(batched, 9),
                       fmt_double(speedup, 3)});
      }
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Batching streams the matrix once per B rows instead of once per "
      "row;\nformats with the highest bytes/row (DEN, ELL, DIA) gain "
      "the most.\n'*' marks >= 1.5x.\n");
  bench::finish(csv, "ablation_batch_rows");
  return 0;
}
