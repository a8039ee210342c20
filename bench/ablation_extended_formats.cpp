// Ablation: does the derived format (HYB — one of Section III-A's "other
// storage formats") ever beat the basic five? Measures the SMSV cost of
// all six formats on structures chosen to favour each candidate, and
// records what the extended autotuner picks (the `picked` CSV column).
// Docs on removing a format that never wins: docs/adding_a_format.md.
#include <array>
#include <cstdio>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "data/synthetic.hpp"
#include "sched/selector.hpp"

namespace {

using namespace ls;

/// Dense tile chain: 4x4 dense blocks along the diagonal (every row holds
/// exactly four nonzeros, so the slab formats carry no padding).
CooMatrix make_block_chain(index_t blocks, Rng& rng) {
  std::vector<Triplet> t;
  for (index_t b = 0; b < blocks; ++b) {
    for (index_t r = 0; r < 4; ++r) {
      for (index_t c = 0; c < 4; ++c) {
        t.push_back({b * 4 + r, b * 4 + c, rng.uniform(0.1, 1.0)});
      }
    }
  }
  return CooMatrix(blocks * 4, blocks * 4, std::move(t));
}

}  // namespace

int main() {
  using namespace ls;
  bench::banner("Ablation: extended formats",
                "HYB vs the paper's basic five");

  Rng rng(0xE87E);
  struct Workload {
    std::string name;
    CooMatrix coo;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"block chain (4x4 tiles)", make_block_chain(512, rng)});
  {
    std::vector<index_t> lens(2048, 16);
    workloads.push_back({"scattered sparse",
                         make_random_sparse(2048, 1024, lens, rng)});
  }
  workloads.push_back({"banded (5 diagonals)",
                       make_banded(2048, 2048, {0, 1, -1, 2, -2}, 1.0, rng)});

  Table table({"Workload", "DEN", "CSR", "COO", "ELL", "DIA", "HYB",
               "autotune pick"});
  CsvWriter csv(bench::csv_path("ablation_extended_formats"),
                {"workload", "format", "seconds", "picked"});

  AutotuneOptions opts;
  opts.include_extended = true;
  opts.sample_rows = 0;

  for (const Workload& w : workloads) {
    std::vector<std::string> row = {w.name};
    std::array<double, kNumFormats> secs{};
    for (Format f : kExtendedFormats) {
      secs[static_cast<std::size_t>(f)] = bench::smsv_seconds(w.coo, f);
      row.push_back(fmt_seconds(secs[static_cast<std::size_t>(f)]));
    }
    const ScheduleDecision d = EmpiricalAutotuner(opts).choose(w.coo);
    for (Format f : kExtendedFormats) {
      csv.write_row({w.name, std::string(format_name(f)),
                     fmt_double(secs[static_cast<std::size_t>(f)], 9),
                     f == d.format ? "1" : "0"});
    }
    row.push_back(std::string(format_name(d.format)));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("HYB bounds ELL's padding under skewed rows.\n");
  bench::finish(csv, "ablation_extended_formats");
  return 0;
}
