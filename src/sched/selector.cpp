#include "sched/selector.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <new>
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
/// Candidates the autotuner builds and times: the cost model's cheapest.
constexpr std::size_t kRacedCandidates = 2;
/// Each raced candidate is timed for at least this long in total...
constexpr double kMinProbeSeconds = 0.002;
/// ...unless this many rounds run first (pathologically fast multiplies).
constexpr int kMaxProbeRounds = 1000;
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
  // O(row + log nnz) (COO) or O(ndig) (DIA), a small share of its multiply.
  std::vector<real_t> w(static_cast<std::size_t>(probe->cols()), 0.0);
  std::vector<real_t> y(static_cast<std::size_t>(probe->rows()), 0.0);
  Rng rng(0x5E1EC7ull);
  SparseVector row;
  probe->gather_row(rng.uniform_int(0, probe->rows() - 1), row);
  row.scatter(w);

  // Rank the admissible candidates by the cost model; only the cheapest
  // kRacedCandidates are built and timed. The model's top two held the full
  // race's pick on every Table VI stand-in, and building the losers (DIA on
  // gisette, DEN on sector) cost more than the race itself.
  const CostPrediction pred = predict_cost(feat, CostCalibration::instance());
  std::vector<Format> ranked;
  for (Format f : kAllFormats) {
    if (storage_admissible(f, feat)) ranked.push_back(f);
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&pred](Format a, Format b) {
    return pred.seconds_of(a) < pred.seconds_of(b);
  });

  ScheduleDecision d;
  d.score_seconds.fill(std::numeric_limits<double>::infinity());
  struct Entrant {
    Format format;
    AnyMatrix mat;
    double build_seconds;
    double best = std::numeric_limits<double>::infinity();
    double total = 0.0;
  };
  std::vector<Entrant> race;
  for (Format f : ranked) {
    if (race.size() == kRacedCandidates) break;
    const std::string fname(format_name(f));
    // One failed candidate must not abort the race: a build that throws or
    // runs out of memory is dropped and the next-ranked one takes its seat.
    trace::ScopedEvent build_span("probe:" + fname, "sched");
    try {
      LS_FAILPOINT("sched.candidate.materialize");
      Timer build_timer;
      AnyMatrix mat = AnyMatrix::from_coo(*probe, f);
      race.push_back({f, std::move(mat), build_timer.seconds()});
    } catch (const Error& e) {
      d.dropped.push_back(fname + ": " + e.what());
      metrics::counter_add("sched.candidates_dropped_total");
      build_span.arg("dropped", e.what());
    } catch (const std::bad_alloc&) {
      d.dropped.push_back(fname + ": allocation failure");
      metrics::counter_add("sched.candidates_dropped_total");
      build_span.arg("dropped", "allocation failure");
    }
  }
  if (race.empty()) {
    std::string detail;
    for (const std::string& note : d.dropped) {
      detail += "; " + note;
    }
    throw Error("empirical autotune: no candidate survived (storage guards"
                " or per-candidate failures)" + detail);
  }

  // Interleaved rounds (A B A B ...), keeping each entrant's best: a
  // transient stall then slows both entrants' rounds, not one entrant's
  // whole timing. Rounds continue until each entrant has kAutotuneTrials
  // repetitions and kMinProbeSeconds of timed work.
  {
    trace::ScopedEvent race_span("race", "sched");
    for (int round = 1; round <= kMaxProbeRounds; ++round) {
      bool done = round >= kAutotuneTrials;
      for (Entrant& e : race) {
        Timer t;
        e.mat.multiply_dense(w, y);
        const double s = t.seconds();
        e.best = std::min(e.best, s);
        e.total += s;
        done = done && e.total >= kMinProbeSeconds;
      }
      if (done) break;
    }
  }

  double best = std::numeric_limits<double>::infinity();
  std::string raced;
  for (const Entrant& e : race) {
    const std::string fname(format_name(e.format));
    const double secs = e.best * scale;
    metrics::timer_record("sched.probe_seconds." + fname,
                          e.build_seconds + e.total);
    d.score_seconds[static_cast<std::size_t>(e.format)] = secs;
    if (secs < best) {
      best = secs;
      d.format = e.format;
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s %.2g/%.2g",
                  raced.empty() ? "" : ", ", fname.c_str(),
                  pred.seconds_of(e.format), secs);
    raced += buf;
  }
  metrics::gauge_set("sched.candidates_raced",
                     static_cast<double>(race.size()));
  d.rationale = "empirical autotune over model top-" +
                std::to_string(race.size()) + " {" + raced + "}: " +
                std::string(format_name(d.format));
  return d;
}

}  // namespace ls
