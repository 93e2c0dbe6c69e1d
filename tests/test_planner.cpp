// Planner tests: the registry's capability probes must be lazy (Session
// construction and enumeration trigger zero orchestrator runs), planning
// must be deterministic and cached (one planning miss per unique PlanKey
// no matter how many sessions race), planned execution must stay bit-exact
// against the scalar references for the whole registry, and the pure
// decision core must fall back to plain baseline whenever no candidate
// removes any permutation.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "hw/cost_model.h"
#include "runtime/planner.h"

using namespace subword;
using api::Session;

// -- Lazy capability probes (must run FIRST in this process: laziness is
// only observable before anything has consulted a capability) -------------

TEST(RegistryLaziness, SessionConstructionTriggersZeroOrchestratorRuns) {
  const uint64_t before = core::Orchestrator::total_runs();
  Session session({.workers = 2, .cache = nullptr});
  // Enumerating the registry reads identity fields only.
  const auto& infos = session.kernels();
  ASSERT_FALSE(infos.empty());
  for (const auto& info : infos) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
  }
  EXPECT_EQ(core::Orchestrator::total_runs(), before)
      << "constructing a Session (or listing kernels) must not pay for "
         "capability probes the caller never asked for";

  // The native capability is a constant: asking costs no orchestrator run
  // (the cached preparation's lowering is the only proof for a shape).
  EXPECT_TRUE(infos.front().native_backend());
  EXPECT_EQ(core::Orchestrator::total_runs(), before)
      << "native_backend() must not probe";
}

// -- Pure decision core ------------------------------------------------------

namespace {

runtime::PlanCandidate auto_candidate(const core::CrossbarConfig& cfg,
                                      int removed, int64_t benefit) {
  runtime::PlanCandidate c;
  c.use_spu = true;
  c.mode = kernels::SpuMode::Auto;
  c.cfg = cfg;
  c.removed_static = removed;
  c.est_benefit = benefit;
  c.score = benefit;  // what apply_measurements sets on a cold memo
  const auto cost = hw::estimate_cost(cfg);
  c.area_mm2 = cost.crossbar_area_mm2 + cost.control_mem_area_mm2;
  c.delay_ns = cost.crossbar_delay_ns;
  return c;
}

}  // namespace

TEST(PickPlan, ZeroRemovalEverywhereFallsBackToBaseline) {
  std::vector<runtime::PlanCandidate> cands;
  cands.push_back({});  // baseline
  for (const auto& cfg : core::kAllConfigs) {
    cands.push_back(auto_candidate(cfg, /*removed=*/0, /*benefit=*/0));
  }
  const auto plan = runtime::pick_plan("synthetic", 8, cands);
  EXPECT_FALSE(plan.use_spu);
  EXPECT_NE(plan.summary.reason.find("no configuration removes any"),
            std::string::npos)
      << plan.summary.reason;
}

TEST(PickPlan, NegativeNetBenefitFallsBackToBaseline) {
  // Removal exists but never outweighs startup (paper §4: orchestration is
  // only profitable when removals beat the MMIO cost).
  std::vector<runtime::PlanCandidate> cands;
  cands.push_back({});
  cands.push_back(auto_candidate(core::kConfigA, 4, -120));
  const auto plan = runtime::pick_plan("synthetic", 1, cands);
  EXPECT_FALSE(plan.use_spu);
  EXPECT_NE(plan.summary.reason.find("startup"), std::string::npos)
      << plan.summary.reason;
}

TEST(PickPlan, EqualBenefitPrefersCheapestSilicon) {
  std::vector<runtime::PlanCandidate> cands;
  cands.push_back({});
  for (const auto& cfg : core::kAllConfigs) {
    cands.push_back(auto_candidate(cfg, 6, 450));
  }
  const auto plan = runtime::pick_plan("synthetic", 1, cands);
  ASSERT_TRUE(plan.use_spu);
  EXPECT_EQ(std::string(plan.cfg.name), "D");  // cheapest Table-1 config
}

TEST(PickPlan, HigherBenefitBeatsCheaperSilicon) {
  std::vector<runtime::PlanCandidate> cands;
  cands.push_back({});
  cands.push_back(auto_candidate(core::kConfigA, 10, 900));
  cands.push_back(auto_candidate(core::kConfigD, 6, 450));
  const auto plan = runtime::pick_plan("synthetic", 1, cands);
  ASSERT_TRUE(plan.use_spu);
  EXPECT_EQ(std::string(plan.cfg.name), "A");
}

TEST(PickPlan, InfeasibleCandidatesNeverWin) {
  std::vector<runtime::PlanCandidate> cands;
  cands.push_back({});
  auto busted = auto_candidate(core::kConfigA, 10, 900);
  busted.feasible = false;
  cands.push_back(busted);
  const auto plan = runtime::pick_plan("synthetic", 1, cands);
  EXPECT_FALSE(plan.use_spu);
}

// -- Planner over the real registry -----------------------------------------

TEST(Planner, ZeroRemovalKernelsPlanBaselineInTheAutoOnlySpace) {
  // The PR-3 gotcha: these four auto-orchestrate to zero removed
  // permutations under every configuration. The planner must turn that
  // into a baseline decision, not pure overhead.
  const std::set<std::string> zero_removal = {"FIR12", "DCT",
                                              "Matrix Multiply",
                                              "Matrix Transpose"};
  runtime::PlanOptions auto_only;
  auto_only.allow_manual = false;
  for (const auto& k : kernels::all_kernels()) {
    const auto plan = runtime::plan_kernel(*k, 8, auto_only);
    bool any_removal = false;
    for (const auto& c : plan.summary.candidates) {
      if (c.use_spu && c.feasible && c.removed_static > 0) any_removal = true;
    }
    if (zero_removal.count(k->name()) > 0) {
      EXPECT_FALSE(any_removal) << k->name();
    }
    if (!any_removal) {
      EXPECT_FALSE(plan.use_spu)
          << k->name() << " removes nothing yet planned "
          << plan.summary.choice_label();
    }
  }
}

TEST(Planner, BudgetsConstrainTheSearch) {
  runtime::PlanOptions starved;
  starved.budget.area_mm2 = 1.0;  // below every Table-1 configuration
  const auto baseline_plan = runtime::plan_kernel("FIR22", 8, starved);
  EXPECT_FALSE(baseline_plan.use_spu);

  runtime::PlanOptions just_d;
  just_d.budget.area_mm2 = 3.0;  // admits exactly config D (2.86 mm^2)
  const auto d_plan = runtime::plan_kernel("FIR22", 8, just_d);
  ASSERT_TRUE(d_plan.use_spu);
  EXPECT_EQ(std::string(d_plan.cfg.name), "D");

  runtime::PlanOptions slow;
  slow.budget.delay_ns = 0.1;  // below every crossbar delay
  const auto slow_plan = runtime::plan_kernel("FIR22", 8, slow);
  EXPECT_FALSE(slow_plan.use_spu);
}

TEST(Planner, PlannedExecutionIsBitExactForTheWholeRegistry) {
  Session session({.workers = 2, .cache = nullptr});
  for (const auto& info : session.kernels()) {
    for (const int repeats : {1, 8}) {
      SCOPED_TRACE(info.name + " @ " + std::to_string(repeats));
      // Planner-chosen backend (native where it lowers) ...
      auto r = session.request(info.name).repeats(repeats).auto_plan().run();
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      EXPECT_TRUE(r->run.verified);
      ASSERT_NE(r->plan, nullptr);
      EXPECT_EQ(r->plan->repeats, repeats);
      EXPECT_FALSE(r->plan->reason.empty());
      // ... and pinned to the simulator, which must verify identically and
      // carry real cycle stats.
      auto sim = session.request(info.name)
                     .repeats(repeats)
                     .auto_plan()
                     .backend(api::ExecBackend::kSimulator)
                     .run();
      ASSERT_TRUE(sim.ok()) << sim.error().to_string();
      EXPECT_TRUE(sim->run.verified);
      ASSERT_TRUE(sim->cycles().has_value());
      EXPECT_GT(*sim->cycles(), 0u);
    }
  }
}

TEST(Planner, AutoPlanRejectsExplicitModeKnobs) {
  Session session({.workers = 1, .cache = nullptr});
  const auto r =
      session.request("FIR22").spu(core::kConfigD).auto_plan().run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::ErrorCode::kInvalidArgument);
}

TEST(Planner, NegativeBudgetIsATypedError) {
  Session session({.workers = 1, .cache = nullptr});
  const auto r = session.request("FIR22").area_budget_mm2(-1.0).run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, api::ErrorCode::kInvalidArgument);
}

// -- Determinism + cache behavior -------------------------------------------

TEST(PlannerCache, ConcurrentSessionsPlanOnceAndAgree) {
  const auto cache = std::make_shared<runtime::OrchestrationCache>();
  Session a({.workers = 2, .cache = cache});
  Session b({.workers = 2, .cache = cache});

  constexpr int kPerSession = 16;
  std::vector<api::Result<api::Response>> results;
  std::mutex mu;
  auto hammer = [&](Session& s) {
    for (int i = 0; i < kPerSession; ++i) {
      auto r = s.request("FIR22").repeats(8).auto_plan().run();
      std::lock_guard lock(mu);
      results.push_back(std::move(r));
    }
  };
  std::thread ta(hammer, std::ref(a));
  std::thread tb(hammer, std::ref(b));
  ta.join();
  tb.join();

  ASSERT_EQ(results.size(), 2u * kPerSession);
  std::set<std::string> choices;
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_NE(r->plan, nullptr);
    choices.insert(r->plan->choice_label() + "/" +
                   kernels::to_string(r->plan->backend));
  }
  EXPECT_EQ(choices.size(), 1u) << "identical PlanKeys must agree";

  // The planned jobs run natively, so nothing enters the cycle memo, its
  // epoch never moves and nothing replans: exactly one planning miss.
  const auto stats = cache->stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits + stats.plan_misses, 2u * kPerSession);
  EXPECT_EQ(stats.plan_entries, 1u);
  EXPECT_EQ(stats.history_entries, 0u);

  // Different repeats or budgets are different PlanKeys: exactly one new
  // miss each.
  const auto misses_before = stats.plan_misses;
  auto r2 = a.request("FIR22").repeats(16).auto_plan().run();
  ASSERT_TRUE(r2.ok()) << r2.error().to_string();
  EXPECT_EQ(cache->stats().plan_misses, misses_before + 1);
  auto r3 = a.request("FIR22").repeats(8).area_budget_mm2(3.0).run();
  ASSERT_TRUE(r3.ok()) << r3.error().to_string();
  EXPECT_EQ(cache->stats().plan_misses, misses_before + 2);
  EXPECT_EQ(cache->stats().plan_entries, 3u);
}

TEST(PlannerCache, NonDefaultPipelineRunsNeverReachDefaultPlans) {
  // The planner plans for the default pipeline, and PlanKey carries no
  // pipeline config. Runs of every candidate on a slower SPU pipeline
  // (deeper mispredict penalty, no dual issue — knobs any request may set)
  // must not be memoized as the cost of those shapes, or they would flip
  // the default-pipeline plan to a measured baseline.
  runtime::BatchEngine engine({.workers = 2, .cache = nullptr});
  const auto planned = [&] {
    runtime::KernelJob pj;
    pj.kernel = "FIR22";
    pj.repeats = 8;
    pj.plan = true;
    pj.backend = kernels::ExecBackend::kSimulator;
    pj.backend_pinned = true;
    auto r = engine.submit(std::move(pj)).get();
    EXPECT_TRUE(r.ok) << r.error;
    return r;
  };
  const auto cold = planned();
  ASSERT_NE(cold.plan, nullptr);
  ASSERT_EQ(cold.plan->choice_label(), "auto/D");
  EXPECT_EQ(cold.run.stats.cycles, 45940u);

  sim::PipelineConfig slow;
  slow.extra_spu_stage = true;
  slow.mispredict_penalty = 40;
  slow.dual_issue = false;
  for (const auto& c : cold.plan->candidates) {
    if (!c.feasible) continue;
    for (int i = 0; i < 8; ++i) {
      runtime::KernelJob job;
      job.kernel = "FIR22";
      job.repeats = 8;
      job.use_spu = c.use_spu;
      job.mode = c.mode;
      job.cfg = c.cfg;
      if (c.use_spu) job.pc = slow;
      const auto r = engine.submit(std::move(job)).get();
      ASSERT_TRUE(r.ok) << r.error;
    }
  }

  const auto warm = planned();
  ASSERT_NE(warm.plan, nullptr);
  EXPECT_EQ(warm.plan->choice_label(), "auto/D");
  EXPECT_EQ(warm.run.stats.cycles, 45940u);
  // Only the default-pipeline shapes reached the memo: the baseline and
  // the planned auto/D run itself. The manual and remaining auto shapes
  // stay unmeasured, so the decision is still the model's.
  EXPECT_EQ(warm.plan->score_source, runtime::ScoreSource::kModel);
  EXPECT_EQ(engine.cache().history().size(), 2u);
}

TEST(PlannerCache, PlannedJobsShareThePreparedProgramCache) {
  // A planned job and an explicitly-configured job with the same resolved
  // shape must land on the same OrchestrationKey entry.
  const auto cache = std::make_shared<runtime::OrchestrationCache>();
  Session session({.workers = 1, .cache = cache});

  auto planned = session.request("FIR22")
                     .repeats(8)
                     .auto_plan()
                     .backend(api::ExecBackend::kSimulator)
                     .run();
  ASSERT_TRUE(planned.ok()) << planned.error().to_string();
  ASSERT_NE(planned->plan, nullptr);
  ASSERT_TRUE(planned->plan->use_spu);

  const auto misses_before = cache->stats().misses;
  auto explicit_req = session.request("FIR22").repeats(8).spu(
      planned->plan->cfg);
  if (planned->plan->mode == kernels::SpuMode::Auto) {
    explicit_req.auto_orchestrate();
  } else {
    explicit_req.manual_spu();
  }
  auto fixed = explicit_req.run();
  ASSERT_TRUE(fixed.ok()) << fixed.error().to_string();
  EXPECT_TRUE(fixed->cache_hit);
  EXPECT_EQ(cache->stats().misses, misses_before)
      << "the explicit twin of a planned job must hit the same entry";
}

// -- An unrealizable manual variant ------------------------------------------

TEST(RequestValidation, NativeBackendErrorsNameKernelAndConfig) {
  Session session({.workers = 1, .cache = nullptr});
  // A 2x2 half-word crossbar cannot carry any manual variant's routes.
  // The failure is the preparation's, not a backend's, so both backends
  // report it the same way: typed, naming kernel and config.
  constexpr core::CrossbarConfig kTiny{"tiny2x2", 2, 2, 16};
  for (const auto backend :
       {api::ExecBackend::kSimulator, api::ExecBackend::kNativeSwar}) {
    SCOPED_TRACE(kernels::to_string(backend));
    const auto r = session.request("FIR12")
                       .spu(kTiny)
                       .manual_spu()
                       .backend(backend)
                       .run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, api::ErrorCode::kExecutionFailed);
    EXPECT_NE(r.error().message.find("FIR12"), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("tiny2x2"), std::string::npos)
        << r.error().message;
  }
}
