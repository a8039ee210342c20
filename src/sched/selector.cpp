#include "sched/selector.hpp"

#include <algorithm>
#include <limits>
#include <new>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "formats/any_matrix.hpp"
#include "formats/sparse_vector.hpp"
#include "formats/storage.hpp"
#include "kernels/simd.hpp"

namespace ls {

namespace {

/// Timed SMSV repetitions per autotune candidate.
constexpr int kAutotuneTrials = 3;
/// Both selectors skip formats whose modelled storage exceeds this multiple
/// of the matrix's CSR storage (avoids materialising absurd layouts).
constexpr double kMaxStorageRatio = 64.0;

/// Storage words each format would need, from features alone.
double modeled_storage_words(Format f, const MatrixFeatures& feat) {
  StorageShape s;
  s.rows = feat.m;
  s.cols = feat.n;
  s.nnz = feat.nnz;
  s.ndig = feat.ndig;
  s.mdim = feat.mdim;
  // HYB guard approximation: auto width = ceil(adim), overflow <= nnz.
  s.hyb_width = feat.m > 0 ? (feat.nnz + feat.m - 1) / feat.m : 0;
  s.hyb_overflow = 0;
  return static_cast<double>(storage_words(f, s));
}

bool storage_admissible(Format f, const MatrixFeatures& feat) {
  const double csr = std::max(
      1.0, modeled_storage_words(Format::kCSR, feat));
  return modeled_storage_words(f, feat) <= kMaxStorageRatio * csr;
}

}  // namespace

ScheduleDecision HeuristicSelector::choose(const MatrixFeatures& feat) const {
  const CostPrediction pred = predict_cost(feat, *cal_);
  ScheduleDecision d;
  d.score_seconds = pred.seconds;

  double best = std::numeric_limits<double>::infinity();
  for (Format f : kAllFormats) {
    if (!storage_admissible(f, feat)) {
      // Leave the score visible but never select the format.
      continue;
    }
    const double s = pred.seconds_of(f);
    if (s < best) {
      best = s;
      d.format = f;
    }
  }
  d.rationale = "heuristic cost model: min predicted SMSV time (" +
                std::string(format_name(d.format)) + ") at simd=" +
                std::string(simd::level_name(pred.simd_level)) + " width=" +
                std::to_string(pred.vector_width);
  return d;
}

ScheduleDecision EmpiricalAutotuner::choose(const CooMatrix& x) const {
  LS_CHECK(x.rows() > 0 && x.cols() > 0, "cannot autotune an empty matrix");
  trace::ScopedEvent tune_span("autotune", "sched");
  const MatrixFeatures feat = [&x] {
    metrics::ScopedTimer feat_timer("sched.features_seconds");
    trace::ScopedEvent feat_span("extract_features", "sched");
    return extract_features(x);
  }();

  // Probe window: a contiguous block of rows preserves the row-length and
  // diagonal structure, unlike random row sampling.
  const CooMatrix* probe = &x;
  CooMatrix window;
  double scale = 1.0;
  if (opts_.sample_rows > 0 && x.rows() > opts_.sample_rows) {
    std::vector<Triplet> triplets;
    const auto rows = x.row_indices();
    const auto cols = x.col_indices();
    const auto vals = x.values();
    for (std::size_t k = 0; k < vals.size(); ++k) {
      if (rows[k] < opts_.sample_rows) {
        triplets.push_back({rows[k], cols[k], vals[k]});
      }
    }
    window = CooMatrix(opts_.sample_rows, x.cols(), std::move(triplets));
    probe = &window;
    scale = static_cast<double>(x.rows()) /
            static_cast<double>(opts_.sample_rows);
  }

  // Workspace seeded with a real gathered row, as in SMO. The probe times
  // the multiply without the gather_row SMO runs first (compute_row); that
  // ranks formats as SMO does only because every format gathers in O(row),
  // O(row + log nnz) (COO, HYB's overflow) or O(ndig) (DIA), a small share
  // of its multiply.
  std::vector<real_t> w(static_cast<std::size_t>(probe->cols()), 0.0);
  std::vector<real_t> y(static_cast<std::size_t>(probe->rows()), 0.0);
  Rng rng(0x5E1EC7ull);
  SparseVector row;
  probe->gather_row(rng.uniform_int(0, probe->rows() - 1), row);
  row.scatter(w);

  ScheduleDecision d;
  d.score_seconds.fill(std::numeric_limits<double>::infinity());
  double best = std::numeric_limits<double>::infinity();
  bool any = false;
  const std::span<const Format> candidates =
      opts_.include_extended ? std::span<const Format>(kExtendedFormats)
                             : std::span<const Format>(kAllFormats);
  for (Format f : candidates) {
    const std::string fname(format_name(f));
    if (!storage_admissible(f, feat)) continue;
    // One failed candidate must not abort the race: a build that throws
    // or runs out of memory is dropped and the remaining candidates keep
    // competing.
    trace::ScopedEvent probe_span("probe:" + fname, "sched");
    try {
      LS_FAILPOINT("sched.candidate.materialize");
      Timer candidate_timer;
      const AnyMatrix mat = AnyMatrix::from_coo(*probe, f);
      const double secs = time_best([&] { mat.multiply_dense(w, y); },
                                    kAutotuneTrials, 0.002) *
                          scale;
      metrics::timer_record("sched.probe_seconds." + fname,
                            candidate_timer.seconds());
      probe_span.arg("score_seconds", std::to_string(secs));
      d.score_seconds[static_cast<std::size_t>(f)] = secs;
      if (secs < best) {
        best = secs;
        d.format = f;
        any = true;
      }
    } catch (const Error& e) {
      d.dropped.push_back(fname + ": " + e.what());
      metrics::counter_add("sched.candidates_dropped_total");
      probe_span.arg("dropped", e.what());
    } catch (const std::bad_alloc&) {
      d.dropped.push_back(fname + ": allocation failure");
      metrics::counter_add("sched.candidates_dropped_total");
      probe_span.arg("dropped", "allocation failure");
    }
  }
  if (!any) {
    std::string detail;
    for (const std::string& note : d.dropped) {
      detail += "; " + note;
    }
    throw Error("empirical autotune: no candidate survived (storage guards"
                " or per-candidate failures)" + detail);
  }
  d.rationale = "empirical autotune: min measured SMSV time (" +
                std::string(format_name(d.format)) + ")";
  return d;
}

}  // namespace ls
