// Tests of the online serving-side layout rescheduler: the shared switch
// policy, cost-model arm priors, bandit convergence, the atomic swap's
// value stability under concurrent traffic, the max-switch budget and the
// failed-re-materialisation recovery path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "data/features.hpp"
#include "sched/cost_model.hpp"
#include "serve/engine.hpp"
#include "serve/rescheduler.hpp"
#include "svm/serialize.hpp"

namespace ls::serve {
namespace {

/// Hand-built Gaussian model over `d` features (mirrors test_serve.cpp).
SvmModel make_model(index_t n_sv, index_t d, std::uint64_t seed) {
  Rng rng(seed);
  SvmModel model;
  model.kernel.type = KernelType::kGaussian;
  model.kernel.gamma = 0.5;
  model.rho = 0.0;
  model.num_features = d;
  for (index_t s = 0; s < n_sv; ++s) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (rng.bernoulli(0.3)) {
        idx.push_back(c);
        val.push_back(rng.normal());
      }
    }
    if (idx.empty()) {
      idx.push_back(0);
      val.push_back(1.0);
    }
    model.support_vectors.emplace_back(std::move(idx), std::move(val));
    model.coef.push_back(s % 2 == 0 ? 1.0 : -1.0);
  }
  return model;
}

std::vector<SparseVector> make_requests(index_t count, index_t d,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseVector> rows;
  for (index_t r = 0; r < count; ++r) {
    std::vector<index_t> idx;
    std::vector<real_t> val;
    for (index_t c = 0; c < d; ++c) {
      if (rng.bernoulli(0.3)) {
        idx.push_back(c);
        val.push_back(rng.normal());
      }
    }
    if (idx.empty()) {
      idx.push_back(0);
      val.push_back(1.0);
    }
    rows.emplace_back(std::move(idx), std::move(val));
  }
  return rows;
}

std::string temp_model_path(const std::string& name) {
  return ::testing::TempDir() + "ls_resched_" + name;
}

SchedulerOptions fixed_csr() {
  SchedulerOptions sched;
  sched.policy = SchedulePolicy::kFixed;
  sched.fixed_format = Format::kCSR;
  return sched;
}

/// Deterministic policy for tests: the background thread is effectively
/// dormant (huge interval — tests call tick() directly), exploration is
/// off so arm values are exactly means/priors, and hysteresis is zero.
ReschedulerOptions test_policy() {
  ReschedulerOptions r;
  r.enabled = true;
  r.interval_ms = 3600.0 * 1000.0;
  r.min_observations = 4;
  r.switch_threshold = 1.1;
  r.max_switches = 8;
  r.hysteresis_ms = 0.0;
  r.ucb_exploration = 0.0;
  return r;
}

/// Installs a CSR-layout model named "m" into `reg` and returns it.
std::shared_ptr<const LoadedModel> host_model(ModelRegistry& reg,
                                              const std::string& tag) {
  const std::string path = temp_model_path(tag);
  save_model_file(path, make_model(8, 16, 0x5EED));
  const LoadTicket t = reg.reserve_load("m");
  auto loaded = std::make_shared<LoadedModel>("m", path, fixed_csr(), 8,
                                              t.version, t.content_gen);
  EXPECT_TRUE(reg.put_if_newer(loaded));
  return loaded;
}

// --- shared switch-decision policy ---------------------------------------

TEST(Rescheduler, DecisivelyBetterIsTheSharedSwitchGate) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Exactly at the margin switches; just under it does not.
  EXPECT_TRUE(decisively_better(1.2, 1.0, 1.2));
  EXPECT_FALSE(decisively_better(1.19, 1.0, 1.2));
  // A current format that was never viable always loses to a finite best.
  EXPECT_TRUE(decisively_better(kInf, 1.0, 1.2));
  // A non-finite best is never worth switching to.
  EXPECT_FALSE(decisively_better(1.0, kInf, 1.2));
  EXPECT_FALSE(decisively_better(kInf, kInf, 1.2));
}

// --- cost-model arm priors -----------------------------------------------

TEST(Rescheduler, CostModelSeedsEveryArmWithAFinitePrior) {
  const SvmModel model = make_model(8, 16, 0xA11);
  const MatrixFeatures feat =
      extract_features(support_vector_matrix(model));
  const auto priors =
      predicted_arm_priors(feat, CostCalibration::instance());
  for (Format f : kAllFormats) {
    const double p = priors[static_cast<std::size_t>(f)];
    EXPECT_TRUE(std::isfinite(p)) << format_name(f);
    // A zero prior would read as "this layout is free" and win every
    // bandit comparison — the seeding must cover every arm.
    EXPECT_GT(p, 0.0) << format_name(f);
  }
}

// --- bandit convergence + swap -------------------------------------------

TEST(Rescheduler, SwitchesToDecisivelyFasterMeasuredArm) {
  ModelRegistry reg;
  const auto first = host_model(reg, "converge.txt");
  LayoutRescheduler rs(reg, 8, test_policy());

  // CSR (the current layout) measures slow; ELL measures far below any
  // plausible cost-model prior, so the bandit's best arm is deterministic.
  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 8 * 1e-3);
    rs.observe_arm("m", first->content_gen, Format::kELL, 8, 8 * 1e-15);
  }
  rs.tick();

  EXPECT_EQ(rs.reschedules_total(), 1);
  const auto swapped = reg.get("m");
  ASSERT_NE(swapped, nullptr);
  EXPECT_EQ(swapped->predictor.layout(), Format::kELL);
  EXPECT_GT(swapped->version, first->version);
  EXPECT_EQ(rs.preferred("m").value(), Format::kELL);

  // The swap changes layout only: same kernel, coefficients and rho.
  EXPECT_EQ(swapped->model.support_vectors.size(),
            first->model.support_vectors.size());
  EXPECT_EQ(swapped->model.rho, first->model.rho);

  // Stats expose both arms with their pulls.
  const auto stats = rs.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].model, "m");
  EXPECT_EQ(stats[0].current, Format::kELL);
  EXPECT_EQ(stats[0].switches, 1);
  std::int64_t csr_pulls = 0;
  for (const ArmStats& a : stats[0].arms) {
    if (a.format == Format::kCSR) csr_pulls = a.pulls;
  }
  EXPECT_EQ(csr_pulls, 8);
}

TEST(Rescheduler, InsufficientObservationsNeverSwitch) {
  ModelRegistry reg;
  const auto first = host_model(reg, "minobs.txt");
  LayoutRescheduler rs(reg, 8, test_policy());

  // Only 3 pulls on the current arm with min_observations = 4: however
  // bad the measurements look, the bandit may not judge it yet.
  for (int i = 0; i < 3; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 8 * 1e-3);
    rs.observe_arm("m", first->content_gen, Format::kELL, 8, 8 * 1e-15);
  }
  rs.tick();
  EXPECT_EQ(rs.reschedules_total(), 0);
  EXPECT_EQ(reg.get("m")->predictor.layout(), Format::kCSR);
}

TEST(Rescheduler, MaxSwitchBudgetCapsOnlineSwaps) {
  ModelRegistry reg;
  const auto first = host_model(reg, "budget.txt");
  ReschedulerOptions opts = test_policy();
  opts.max_switches = 1;
  LayoutRescheduler rs(reg, 8, opts);

  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 8 * 1e-3);
    rs.observe_arm("m", first->content_gen, Format::kELL, 8, 8 * 1e-15);
  }
  rs.tick();
  ASSERT_EQ(rs.reschedules_total(), 1);
  const auto after_first = reg.get("m");
  EXPECT_EQ(after_first->predictor.layout(), Format::kELL);

  // ELL now measures terribly and COO looks decisively better — but the
  // per-model budget is spent, so the layout must stay put.
  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", after_first->content_gen, Format::kELL, 8, 8 * 1e-2);
    rs.observe_arm("m", after_first->content_gen, Format::kCOO, 8, 8 * 1e-15);
  }
  rs.tick();
  EXPECT_EQ(rs.reschedules_total(), 1);
  EXPECT_EQ(reg.get("m")->predictor.layout(), Format::kELL);
  EXPECT_EQ(reg.get("m")->version, after_first->version);
}

TEST(Rescheduler, FailedMaterializationLeavesLastGoodServing) {
  ModelRegistry reg;
  const auto first = host_model(reg, "matfail.txt");
  LayoutRescheduler rs(reg, 8, test_policy());

  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 8 * 1e-3);
    rs.observe_arm("m", first->content_gen, Format::kELL, 8, 8 * 1e-15);
  }
  {
    // The re-materialisation build blows up: the swap must not happen and
    // the last-good layout keeps serving.
    failpoint::Scoped broken("serve.reschedule.materialize");
    rs.tick();
  }
  EXPECT_EQ(rs.reschedules_total(), 0);
  EXPECT_EQ(rs.reschedule_failures_total(), 1);
  const auto still = reg.get("m");
  ASSERT_NE(still, nullptr);
  EXPECT_EQ(still.get(), first.get());
  EXPECT_EQ(still->predictor.layout(), Format::kCSR);
  // The model still scores.
  EXPECT_TRUE(std::isfinite(still->model.decision(SparseVector({0}, {1.0}))));

  // Once the fault clears, the next pass retries and succeeds (hysteresis
  // is zero in the test policy; in production the failure backs off one
  // dwell window).
  rs.tick();
  EXPECT_EQ(rs.reschedules_total(), 1);
  EXPECT_EQ(reg.get("m")->predictor.layout(), Format::kELL);
}

TEST(Rescheduler, SwapLosesToConcurrentHotReload) {
  ModelRegistry reg;
  const auto first = host_model(reg, "lostrace.txt");
  LayoutRescheduler rs(reg, 8, test_policy());

  // Simulate a hot reload finishing while the rescheduler would be
  // re-materialising: once the hosted entry moved on, the stale layout
  // build must be dropped by the compare-and-swap.
  const std::int64_t v2 = reg.reserve_version("m");
  auto reloaded = std::make_shared<const LoadedModel>(*first, Format::kCSR,
                                                      8, v2);
  ASSERT_TRUE(reg.replace_if_current(first.get(), reloaded));

  auto stale = std::make_shared<const LoadedModel>(*first, Format::kELL, 8,
                                                   reg.reserve_version("m"));
  EXPECT_FALSE(reg.replace_if_current(first.get(), std::move(stale)));
  EXPECT_EQ(reg.get("m").get(), reloaded.get());
}

TEST(Rescheduler, ReloadNeverLosesToConcurrentRelayoutOfOldContent) {
  ModelRegistry reg;
  const auto first = host_model(reg, "reloadrace.txt");

  // The opposite interleaving of SwapLosesToConcurrentHotReload: a hot
  // reload reserves its ticket FIRST...
  const LoadTicket reload = reg.reserve_load("m");
  EXPECT_GT(reload.content_gen, first->content_gen);

  // ...then, while the reload is still building, the rescheduler reserves
  // a LATER version and swaps in a re-layout of the OLD weights. The
  // re-layout carries the old content generation.
  const std::int64_t swap_v = reg.reserve_version("m");
  EXPECT_GT(swap_v, reload.version);
  auto relayout =
      std::make_shared<const LoadedModel>(*first, Format::kELL, 8, swap_v);
  EXPECT_EQ(relayout->content_gen, first->content_gen);
  ASSERT_TRUE(reg.replace_if_current(first.get(), relayout));

  // The reload finishes with new on-disk content. Its reserved version is
  // now below the hosted one, but its content is strictly newer — the
  // install must WIN (this used to be silently dropped as "stale", losing
  // the new weights), with a re-minted version above the re-layout's so
  // hosted versions stay strictly increasing.
  const std::string path2 = temp_model_path("reloadrace2.txt");
  save_model_file(path2, make_model(12, 16, 0xF00D));
  auto reloaded = std::make_shared<LoadedModel>(
      "m", path2, fixed_csr(), 8, reload.version, reload.content_gen);
  EXPECT_TRUE(reg.put_if_newer(reloaded));

  const auto hosted = reg.get("m");
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(hosted.get(), reloaded.get());
  EXPECT_EQ(hosted->content_gen, reload.content_gen);
  EXPECT_EQ(hosted->model.support_vectors.size(), 12u);
  EXPECT_GT(hosted->version, swap_v);
  // The version counter moved past the re-mint: later reservations stay
  // above everything ever hosted.
  EXPECT_GT(reg.reserve_version("m"), hosted->version);
}

TEST(Rescheduler, HotReloadInFlightSurvivesConcurrentSwap) {
  // Engine-level version of the race above: the reload stalls in its
  // build (delay failpoint) while the policy thread swaps the OLD weights
  // into a new layout at a later version. Whatever the interleaving, the
  // reload's new content must end up serving.
  const std::string path = temp_model_path("reloadswap.txt");
  save_model_file(path, make_model(8, 16, 0x5EED));
  ServeOptions opts;
  opts.sched = fixed_csr();
  opts.reschedule = test_policy();
  ServeEngine engine(opts);
  engine.load_model("m", path);
  const auto first = engine.model("m");
  ASSERT_NE(engine.rescheduler(), nullptr);
  LayoutRescheduler& rs = *engine.rescheduler();

  // New, recognisable on-disk content for the reload.
  save_model_file(path, make_model(12, 16, 0xF00D));

  failpoint::Spec delay;
  delay.action = failpoint::Action::kDelay;
  delay.delay_ms = 150;
  failpoint::Scoped slow_load("serve.model.load", delay);
  std::thread reloader([&] { engine.reload_model("m"); });

  // While the reload sleeps in its build, make the bandit swap the old
  // weights to ELL at a later version.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 8 * 1e-3);
    rs.observe_arm("m", first->content_gen, Format::kELL, 8, 8 * 1e-15);
  }
  rs.tick();
  reloader.join();

  const auto hosted = engine.model("m");
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(hosted->model.support_vectors.size(), 12u);
  EXPECT_GT(hosted->version, first->version);
  EXPECT_GT(hosted->content_gen, first->content_gen);
  EXPECT_EQ(engine.stats().reloads_total, 1);
}

TEST(Rescheduler, SelfSwapKeepsArmsAndReloadResetsThem) {
  ModelRegistry reg;
  const auto first = host_model(reg, "selfswap.txt");
  LayoutRescheduler rs(reg, 8, test_policy());

  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 8 * 1e-3);
    rs.observe_arm("m", first->content_gen, Format::kELL, 8, 8 * 1e-15);
  }
  rs.tick();
  ASSERT_EQ(rs.reschedules_total(), 1);
  const auto swapped = reg.get("m");
  ASSERT_EQ(swapped->predictor.layout(), Format::kELL);
  EXPECT_EQ(swapped->content_gen, first->content_gen);

  // A worker observing the freshly swapped-in model — in any order
  // relative to the policy thread's post-swap bookkeeping — must not be
  // mistaken for a hot reload: the arms and priors survive a self-swap.
  rs.observe_arm("m", swapped->content_gen, Format::kELL, 8, 8 * 1e-15);
  auto stats = rs.stats();
  ASSERT_EQ(stats.size(), 1u);
  for (const ArmStats& a : stats[0].arms) {
    if (a.format == Format::kCSR) EXPECT_EQ(a.pulls, 8);
    if (a.format == Format::kELL) EXPECT_EQ(a.pulls, 9);
    EXPECT_GT(a.prior_row_seconds, 0.0);  // priors still seeded
  }

  // A genuine hot reload (content-generation bump) DOES reset the bandit:
  // every timing the arms held described the old weights.
  rs.observe_arm("m", swapped->content_gen + 1, Format::kELL, 8, 8 * 1e-3);
  stats = rs.stats();
  ASSERT_EQ(stats.size(), 1u);
  for (const ArmStats& a : stats[0].arms) {
    if (a.format == Format::kCSR) EXPECT_EQ(a.pulls, 0);
    if (a.format == Format::kELL) EXPECT_EQ(a.pulls, 1);
  }
}

TEST(Rescheduler, OptimismAloneNeverTriggersASwap) {
  // The UCB exploration bonus steers which arm gets considered, but the
  // switch gate compares exploitation values: with the current layout
  // measuring (unbeatably) fast, no candidate — however large its
  // optimism radius makes it look during selection — may trigger a
  // re-materialisation on zero measurements of its own.
  ModelRegistry reg;
  const auto first = host_model(reg, "optimism.txt");
  ReschedulerOptions opts = test_policy();
  opts.ucb_exploration = 50.0;  // radius dwarfs every prior
  LayoutRescheduler rs(reg, 8, opts);

  for (int i = 0; i < 8; ++i) {
    rs.observe_arm("m", first->content_gen, Format::kCSR, 8, 0.0);
  }
  rs.tick();
  EXPECT_EQ(rs.reschedules_total(), 0);
  EXPECT_EQ(reg.get("m").get(), first.get());
  EXPECT_EQ(reg.get("m")->predictor.layout(), Format::kCSR);
}

// --- swap atomicity under concurrent traffic -----------------------------

TEST(Rescheduler, SwapsAreValueStableUnderConcurrentPredicts) {
  const std::string path = temp_model_path("swapstable.txt");
  save_model_file(path, make_model(10, 20, 0x4E4E));

  ServeOptions opts;
  opts.workers = 2;
  opts.batcher.max_batch = 8;
  opts.sched = fixed_csr();
  opts.reschedule = test_policy();
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();
  ASSERT_NE(engine.rescheduler(), nullptr);

  // Per-format expected values, computed from the engine's own
  // deserialized model so serialization round-trip effects cancel out.
  // Batched-vs-single scoring is bit-identical within one format (the
  // PR 3 invariant), so every served decision must equal one of these
  // five per-request values exactly — a torn swap would produce a value
  // outside the set.
  const SvmModel served = engine.model("m")->model;
  const std::vector<SparseVector> requests = make_requests(8, 20, 0x77);
  std::vector<std::vector<real_t>> expected;  // [format][request]
  for (Format f : kAllFormats) {
    SchedulerOptions sched;
    sched.policy = SchedulePolicy::kFixed;
    sched.fixed_format = f;
    const BatchPredictor bp(served, sched, opts.batcher.max_batch);
    std::vector<real_t> vals(requests.size());
    bp.decision_values(std::span<const SparseVector>(requests.data(),
                                                     requests.size()),
                       std::span<real_t>(vals.data(), vals.size()));
    expected.push_back(std::move(vals));
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<std::int64_t> scored{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 3; ++t) {
    hammers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t r = 0; r < requests.size(); ++r) {
          const PredictResult res = engine.predict("m", requests[r]);
          if (res.status != Status::kOk) continue;
          scored.fetch_add(1);
          bool known = false;
          for (const auto& per_format : expected) {
            if (res.decision == per_format[r]) known = true;
          }
          if (!known) mismatches.fetch_add(1);
        }
      }
    });
  }

  // Drive the policy through several forced switches while traffic runs:
  // each round makes the current layout look terrible and the next basic
  // format look measured-perfect.
  LayoutRescheduler& rs = *engine.rescheduler();
  int switches_forced = 0;
  for (int round = 0; round < 4; ++round) {
    const auto current = engine.model("m");
    const Format cur = current->predictor.layout();
    std::size_t cur_idx = 0;
    for (std::size_t i = 0; i < kAllFormats.size(); ++i) {
      if (kAllFormats[i] == cur) cur_idx = i;
    }
    const Format target = kAllFormats[(cur_idx + 1) % kAllFormats.size()];
    for (int i = 0; i < 8; ++i) {
      rs.observe_arm("m", current->content_gen, cur, 8, 8 * 1e-2);
      rs.observe_arm("m", current->content_gen, target, 8, 8 * 1e-15);
    }
    const std::int64_t before = rs.reschedules_total();
    rs.tick();
    if (rs.reschedules_total() > before) ++switches_forced;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  done.store(true, std::memory_order_release);
  for (std::thread& th : hammers) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(scored.load(), 0);
  // Re-measured arms from earlier rounds may win over the intended target,
  // but most rounds must produce an actual swap.
  EXPECT_GE(switches_forced, 2);
  EXPECT_EQ(engine.stats().reschedules_total, rs.reschedules_total());
  engine.stop();
}

// --- engine wiring -------------------------------------------------------

TEST(Rescheduler, EngineReportsBanditInStatsText) {
  const std::string path = temp_model_path("statstext.txt");
  save_model_file(path, make_model(6, 12, 0x57A7));
  ServeOptions opts;
  opts.sched = fixed_csr();
  opts.reschedule = test_policy();
  ServeEngine engine(opts);
  engine.load_model("m", path);
  engine.start();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(engine.predict("m", SparseVector({0}, {1.0})).status,
              Status::kOk);
  }
  const std::string text = engine.stats_text();
  EXPECT_NE(text.find("reschedules_total 0"), std::string::npos);
  EXPECT_NE(text.find("reschedule_failures_total 0"), std::string::npos);
  EXPECT_NE(text.find("bandit m current CSR"), std::string::npos);
  EXPECT_NE(text.find("arm m CSR"), std::string::npos);
  engine.stop();
}

TEST(Rescheduler, DisabledPolicyMeansNoRescheduler) {
  ServeOptions opts;
  opts.sched = fixed_csr();
  ServeEngine engine(opts);
  EXPECT_EQ(engine.rescheduler(), nullptr);
  const std::string text = engine.stats_text();
  // The counters still print (as zeros) so scrapers see a stable schema.
  EXPECT_NE(text.find("reschedules_total 0"), std::string::npos);
  EXPECT_EQ(text.find("bandit"), std::string::npos);
}

}  // namespace
}  // namespace ls::serve
