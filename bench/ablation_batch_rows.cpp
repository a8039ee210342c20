// Ablation: batched SMSV. BatchPredictor and the serving micro-batcher score
// a block of B right-hand sides with one AnyMatrix::multiply_dense_batch,
// which streams the stored matrix once per block instead of once per
// vector. This bench measures the per-row win of that batching against B
// calls of the single-rhs multiply_dense, per format and per batch size.
//
// Both paths do the same multiply-adds, but the matrix (values + index
// structures) is read B times less often. On adult, mnist and trefethen
// (bench_results/ablation_batch_rows.csv) ELL gains most at B = 32
// (8.3-27.0x), then CSR (2.9-7.5x); DEN loses below B = 8 (0.10-0.19x at
// B = 2) and DIA never gains (0.87-0.99x at B = 32).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "data/profiles.hpp"

namespace {

using namespace ls;

/// The right-hand sides of one block: B gathered data rows, both as B
/// dense vectors (loop path) and as one interleaved block, W[c*B + k] =
/// entry c of rhs k (batched path).
struct RhsBlock {
  index_t b = 0;
  std::vector<std::vector<real_t>> single;  // B x cols
  std::vector<real_t> interleaved;          // cols * B
};

RhsBlock make_block(const AnyMatrix& mat, index_t b, Rng& rng) {
  RhsBlock blk;
  blk.b = b;
  const auto d = static_cast<std::size_t>(mat.cols());
  blk.interleaved.assign(d * static_cast<std::size_t>(b), 0.0);
  SparseVector row;
  for (index_t k = 0; k < b; ++k) {
    mat.gather_row(rng.uniform_int(0, mat.rows() - 1), row);
    std::vector<real_t>& w = blk.single.emplace_back(d, 0.0);
    row.scatter(w);
    const auto idx = row.indices();
    const auto val = row.values();
    for (std::size_t e = 0; e < idx.size(); ++e) {
      blk.interleaved[static_cast<std::size_t>(idx[e] * b + k)] = val[e];
    }
  }
  return blk;
}

/// Per-row seconds for one multiply_dense_batch over the whole block.
double batched_row_seconds(const AnyMatrix& mat, const RhsBlock& blk,
                           std::vector<real_t>& y) {
  const auto need =
      static_cast<std::size_t>(mat.rows()) * static_cast<std::size_t>(blk.b);
  const std::span<real_t> out(y.data(), need);
  const double secs = time_best(
      [&] { mat.multiply_dense_batch(blk.interleaved, blk.b, out); }, 3,
      0.002);
  return secs / static_cast<double>(blk.b);
}

/// Per-row seconds for the unbatched baseline: one single-rhs
/// multiply_dense per vector of the block.
double loop_row_seconds(const AnyMatrix& mat, const RhsBlock& blk,
                        std::vector<real_t>& y) {
  const auto m = static_cast<std::size_t>(mat.rows());
  const double secs = time_best(
      [&] {
        for (std::size_t k = 0; k < blk.single.size(); ++k) {
          mat.multiply_dense(blk.single[k],
                             std::span<real_t>(y.data() + k * m, m));
        }
      },
      3, 0.002);
  return secs / static_cast<double>(blk.b);
}

}  // namespace

int main() {
  bench::banner("Ablation: batched SMSV",
                "multiply_dense_batch vs B single-rhs multiply_dense calls");

  const std::vector<index_t> batch_sizes = {2, 4, 8, 16, 32};
  const index_t max_b = batch_sizes.back();

  Table table({"Dataset", "Format", "B", "us/row (loop)", "us/row (batch)",
               "speedup"});
  CsvWriter csv(bench::csv_path("ablation_batch_rows"),
                {"dataset", "format", "batch_rows", "seconds_per_row_loop",
                 "seconds_per_row_batched", "speedup"});

  // One profile per structure class: sparse rows, dense, banded.
  for (const char* name : {"adult", "mnist", "trefethen"}) {
    const Dataset ds = profile_by_name(name).generate();
    Rng rng(0xBA7C4ull);

    for (Format f : kAllFormats) {
      const AnyMatrix mat = AnyMatrix::from_coo(ds.X, f);
      std::vector<real_t> y(static_cast<std::size_t>(mat.rows()) *
                            static_cast<std::size_t>(max_b));

      // Untimed warm-up of both paths: the first touch of a freshly
      // materialised matrix (page faults, thread-team start-up) must not
      // land in the first batch size's timings.
      {
        const RhsBlock warm = make_block(mat, max_b, rng);
        (void)loop_row_seconds(mat, warm, y);
        (void)batched_row_seconds(mat, warm, y);
      }

      for (index_t b : batch_sizes) {
        const RhsBlock blk = make_block(mat, b, rng);
        const double batched = batched_row_seconds(mat, blk, y);
        const double loop = loop_row_seconds(mat, blk, y);
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
      "row;\nthe speedup column shows which formats turn that into time "
      "(DIA does not).\n'*' marks >= 1.5x.\n");
  bench::finish(csv, "ablation_batch_rows");
  return 0;
}
