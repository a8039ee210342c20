#include "sched/scheduler.hpp"

#include <cmath>
#include <new>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "kernels/simd.hpp"

namespace ls {

ScheduleDecision LayoutScheduler::decide(const CooMatrix& x) const {
  metrics::ScopedTimer decide_timer("sched.decide_seconds");
  trace::ScopedEvent decide_span("decide", "sched");
  switch (opts_.policy) {
    case SchedulePolicy::kEmpirical:
      // Degrade, don't die: when every empirical candidate fails (injected
      // faults, memory pressure, budgets), the heuristic cost model still
      // yields a valid format from features alone.
      try {
        return EmpiricalAutotuner(opts_.autotune).choose(x);
      } catch (const Error& e) {
        ScheduleDecision d = HeuristicSelector().choose(extract_features(x));
        d.degraded = true;
        d.dropped.push_back(e.what());
        d.rationale = "degraded: empirical autotune failed, fell back to "
                      "heuristic cost model (" +
                      std::string(format_name(d.format)) + ")";
        return d;
      } catch (const std::bad_alloc&) {
        ScheduleDecision d = HeuristicSelector().choose(extract_features(x));
        d.degraded = true;
        d.dropped.push_back("empirical autotune: allocation failure");
        d.rationale = "degraded: empirical autotune ran out of memory, fell "
                      "back to heuristic cost model (" +
                      std::string(format_name(d.format)) + ")";
        return d;
      }
    case SchedulePolicy::kHeuristic:
      return HeuristicSelector().choose(extract_features(x));
    case SchedulePolicy::kFixed: {
      ScheduleDecision d;
      d.format = opts_.fixed_format;
      d.rationale = "fixed format (non-adaptive): " +
                    std::string(format_name(d.format));
      return d;
    }
  }
  throw Error("invalid schedule policy");
}

AnyMatrix LayoutScheduler::materialize(const CooMatrix& x,
                                       const ScheduleDecision& d) const {
  LS_FAILPOINT("sched.materialize");
  metrics::ScopedTimer mat_timer("sched.materialize_seconds");
  trace::ScopedEvent mat_span("materialize:" +
                                  std::string(format_name(d.format)),
                              "sched");
  return AnyMatrix::from_coo(x, d.format);
}

AnyMatrix LayoutScheduler::materialize_or_degrade(const CooMatrix& x,
                                                  ScheduleDecision& d) const {
  try {
    return materialize(x, d);
  } catch (const std::exception& e) {
    if (d.format == Format::kCSR) throw;  // no simpler format to retry with
    d.dropped.push_back(std::string(format_name(d.format)) +
                        ": materialisation failed: " + e.what());
    d.format = Format::kCSR;
    d.degraded = true;
    d.rationale += "; degraded: chosen format failed to materialise, "
                   "fell back to CSR";
    return AnyMatrix::from_coo(x, Format::kCSR);
  }
}

AnyMatrix LayoutScheduler::schedule(const CooMatrix& x,
                                    ScheduleDecision* decision) const {
  ScheduleDecision d = decide(x);
  AnyMatrix m = materialize_or_degrade(x, d);
  record_decision_metrics(d);
  if (decision != nullptr) *decision = std::move(d);
  return m;
}

void record_decision_metrics(const ScheduleDecision& d) {
  if (!metrics::enabled()) return;
  metrics::counter_add("sched.decisions_total");
  if (d.degraded) metrics::counter_add("sched.decisions_degraded_total");
  metrics::counter_add("sched.chosen_total." +
                       std::string(format_name(d.format)));
  // Per-candidate scores: measured (empirical) or predicted (heuristic)
  // seconds per SMSV. Unprobed candidates sit at 0 or inf — skip both.
  for (Format f : kAllFormats) {
    const double s = d.score_of(f);
    if (std::isfinite(s) && s > 0.0) {
      metrics::gauge_set("sched.score_seconds." +
                             std::string(format_name(f)),
                         s);
    }
  }
  metrics::gauge_set("sched.degraded", d.degraded ? 1.0 : 0.0);
  metrics::annotate("sched.chosen_format", format_name(d.format));
  metrics::annotate("sched.rationale", d.rationale);
  metrics::annotate("sched.simd_level", simd::level_name(simd::active_level()));
  if (!d.dropped.empty()) {
    std::string joined;
    for (const std::string& note : d.dropped) {
      if (!joined.empty()) joined += " | ";
      joined += note;
    }
    metrics::annotate("sched.dropped", joined);
  }
  if (trace::enabled()) {
    trace::emit_instant("decision:" + std::string(format_name(d.format)),
                        "sched",
                        {{"rationale", d.rationale},
                         {"degraded", d.degraded ? "true" : "false"}});
  }
}

SchedulePolicy parse_policy(const std::string& name) {
  if (name == "empirical") return SchedulePolicy::kEmpirical;
  if (name == "heuristic") return SchedulePolicy::kHeuristic;
  if (name == "fixed") return SchedulePolicy::kFixed;
  throw Error("unknown schedule policy '" + name +
              "' (expected empirical, heuristic or fixed)");
}

}  // namespace ls
