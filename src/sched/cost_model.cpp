#include "sched/cost_model.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "data/synthetic.hpp"
#include "formats/any_matrix.hpp"

namespace ls {

namespace {

/// Calibration passes a format may take before its best stands as measured,
/// and how many of them run at the caller's OpenMP team; the rest are
/// serial (see CostCalibration::measure).
constexpr int kMaxCalibrationPasses = 5;
constexpr int kTeamCalibrationPasses = 3;
/// Plausibility ceiling of a format's cost per multiply-add, in serial
/// gathered elements (see CostCalibration::measure).
constexpr double kMaxOpCostPerGather = 32.0;

}  // namespace

double modeled_flops(Format f, const MatrixFeatures& feat) {
  const double m = static_cast<double>(feat.m);
  const double n = static_cast<double>(feat.n);
  const double nnz = static_cast<double>(feat.nnz);
  switch (f) {
    case Format::kDEN: return m * n;
    case Format::kCSR: return nnz;
    case Format::kCOO: return nnz;
    case Format::kELL: return m * static_cast<double>(feat.mdim);
    case Format::kDIA:
      return static_cast<double>(feat.ndig) * std::min(m, n);
  }
  return 0.0;
}

double modeled_bytes(Format f, const MatrixFeatures& feat) {
  const double m = static_cast<double>(feat.m);
  const double flops = modeled_flops(f, feat);
  const double vb = static_cast<double>(kRealBytes);
  const double ib = static_cast<double>(kIndexBytes);
  switch (f) {
    case Format::kDEN: return flops * vb;              // values only
    case Format::kCSR: return flops * (vb + ib) + (m + 1) * ib;
    case Format::kCOO: return flops * (vb + 2 * ib);   // value + row + col
    case Format::kELL: return flops * (vb + ib);       // padded value + col
    case Format::kDIA:
      return flops * vb + static_cast<double>(feat.ndig) * ib;
  }
  return 0.0;
}

CostCalibration CostCalibration::measure() {
  CostCalibration cal;
  Rng rng(0xCA11B8A7Eull);

  // Probe matrices chosen so each format runs in its "natural" regime:
  // moderate size, structure the format stores without pathological padding.
  // What we extract is the per-multiply-add cost of each format's inner
  // loop (indirection, strided access, accumulation pattern).
  const index_t m = 512, n = 512;
  std::vector<index_t> lens(static_cast<std::size_t>(m), 24);
  const CooMatrix sparse = make_random_sparse(m, n, lens, rng);
  const CooMatrix dense = make_dense_matrix(256, 256, rng);
  const CooMatrix banded =
      make_banded(1024, 1024, {0, 1, -1, 2, -2, 3, -3, 4}, 1.0, rng);

  // ISA probes: the active dispatch level's streamed vs gathered cost per
  // element, measured on the level's own micro-kernels. The ratio feeds
  // CostPrediction.gather_cost_ratio; the level tag makes staleness
  // detectable after an LS_SIMD switch. They run serially, so they also
  // serve as the yardstick for the format passes below.
  const simd::KernelTable& kt = simd::kernels();
  cal.simd_level_ = kt.level;
  cal.vector_width_ = kt.width;
  {
    const index_t pn = 1 << 16;
    AlignedBuffer<real_t> av(static_cast<std::size_t>(pn));
    AlignedBuffer<real_t> wv(static_cast<std::size_t>(pn));
    AlignedBuffer<index_t> idx(static_cast<std::size_t>(pn));
    for (index_t i = 0; i < pn; ++i) {
      av[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      wv[static_cast<std::size_t>(i)] = rng.uniform(-1.0, 1.0);
      idx[static_cast<std::size_t>(i)] = rng.uniform_int(0, pn - 1);
    }
    volatile real_t sink = 0.0;
    const double stream_secs = time_best(
        [&] { sink = sink + kt.dense_row_dot(av.data(), wv.data(), pn); }, 5,
        0.002);
    const double gather_secs = time_best(
        [&] {
          sink = sink + kt.sparse_row_dot(av.data(), idx.data(), pn, wv.data());
        },
        5, 0.002);
    const double dn = static_cast<double>(pn);
    cal.stream_seconds_per_elem_ = stream_secs / dn;
    cal.gather_seconds_per_elem_ = gather_secs / dn;
  }

  std::vector<real_t> w;
  std::vector<real_t> y;
  auto time_format = [&](const CooMatrix& coo, Format f) {
    const AnyMatrix mat = AnyMatrix::from_coo(coo, f);
    w.assign(static_cast<std::size_t>(mat.cols()), 0.0);
    y.assign(static_cast<std::size_t>(mat.rows()), 0.0);
    for (std::size_t j = 0; j < w.size(); j += 3) w[j] = 0.5;  // sparse-ish w
    const double secs = time_best(
        [&] {
          LS_FAILPOINT("sched.calibrate.multiply");
          mat.multiply_dense(w, y);
        },
        5, 0.005);
    const double ops = static_cast<double>(mat.work_flops());
    double& cost = cal.seconds_per_op_[static_cast<std::size_t>(f)];
    cost = std::min(cost, ops > 0 ? secs / ops : 1e-9);
  };

  // Two passes at the caller's OpenMP team, keeping each format's best. A
  // transient stall, such as a new thread's team starting beside busy ones,
  // can slow every team multiply ~100x for a second or more and so spoil
  // both passes alike. So a format whose best cost per op still exceeds
  // kMaxOpCostPerGather serially gathered elements (quiet runs stay within
  // ~8x on every SIMD level, stalled ones read 100-800x) is timed again:
  // once more at the team, which outlasts the cold-start stall, and then,
  // should other processes' teams keep the host oversubscribed, on the
  // calling thread alone, where no team can stall it. A serial cost misses
  // the format's parallel speedup (up to ~2x on these probes), which an
  // oversubscribed host does not deliver anyway; a stalled one is off by
  // orders of magnitude.
  struct Probe {
    const CooMatrix* coo;
    Format format;
  };
  const Probe probes[] = {
      {&dense, Format::kDEN}, {&sparse, Format::kCSR},
      {&sparse, Format::kCOO}, {&sparse, Format::kELL},
      {&banded, Format::kDIA},
  };
  const double ceiling = kMaxOpCostPerGather * cal.gather_seconds_per_elem_;
  struct TeamRestore {
    int team;
    ~TeamRestore() { set_num_threads(team); }
  } restore{num_threads()};
  cal.seconds_per_op_.fill(std::numeric_limits<double>::infinity());
  for (int pass = 0; pass < kMaxCalibrationPasses; ++pass) {
    if (pass == kTeamCalibrationPasses) set_num_threads(1);
    bool timed = false;
    for (const Probe& p : probes) {
      if (pass >= 2 && cal.seconds_per_op(p.format) <= ceiling) continue;
      time_format(*p.coo, p.format);
      timed = true;
    }
    if (!timed) break;
  }
  return cal;
}

CostCalibration CostCalibration::uniform() {
  CostCalibration cal;
  cal.seconds_per_op_.fill(1.0);
  cal.level_agnostic_ = true;
  return cal;
}

const CostCalibration& CostCalibration::instance() {
  static std::mutex mu;
  static std::map<simd::SimdLevel, std::unique_ptr<const CostCalibration>>
      per_level;
  const simd::SimdLevel level = simd::active_level();
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = per_level[level];
  if (slot == nullptr) {
    slot = std::make_unique<const CostCalibration>(measure());
  }
  return *slot;
}

std::string CostCalibration::to_string() const {
  std::string out = "seconds/op:";
  for (Format f : kAllFormats) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.3g",
                  std::string(format_name(f)).c_str(), seconds_per_op(f));
    out += buf;
  }
  if (level_agnostic_) {
    out += "; simd=any";
  } else {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "; simd=%s width=%d gather/stream=%.2f",
                  std::string(simd::level_name(simd_level_)).c_str(),
                  vector_width_, gather_cost_ratio());
    out += buf;
  }
  return out;
}

CostPrediction predict_cost(const MatrixFeatures& feat,
                            const CostCalibration& cal) {
  LS_CHECK(cal.valid_for_active(),
           "stale-ISA cost calibration: measured under LS_SIMD level '" +
               std::string(simd::level_name(cal.simd_level())) +
               "' but the active level is '" +
               std::string(simd::level_name(simd::active_level())) +
               "' — refit via CostCalibration::instance()");
  CostPrediction p;
  p.simd_level = cal.simd_level();
  p.vector_width = cal.vector_width();
  p.gather_cost_ratio = cal.gather_cost_ratio();
  for (Format f : kAllFormats) {
    const auto i = static_cast<std::size_t>(f);
    p.flops[i] = modeled_flops(f, feat);
    p.bytes[i] = modeled_bytes(f, feat);
    p.seconds[i] = p.flops[i] * cal.seconds_per_op(f);
  }
  return p;
}

std::array<double, kNumBasicFormats> predicted_arm_priors(
    const MatrixFeatures& feat, const CostCalibration& cal) {
  return predict_cost(feat, cal).seconds;
}

}  // namespace ls
