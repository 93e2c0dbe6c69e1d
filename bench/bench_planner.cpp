// bench_planner.cpp — the planner's acceptance harness: for every registry
// kernel and every repeat count in {1, 8, 64}, the cost-model planner's
// chosen configuration must execute in no more simulator cycles than the
// WORST fixed-config choice a caller could have hand-picked (each
// kAllConfigs entry, auto-orchestrated — the decision the planner
// automates), and must choose the plain MMX baseline whenever no candidate
// removes any permutation (the PR-3 zero-permutation gotcha, now a planned
// outcome).
//
// Two search spaces are exercised:
//  * auto-only (allow_manual=false): the orchestrator's own reach. The
//    four kernels that auto-orchestrate to zero removals (FIR12, DCT,
//    Matrix Multiply, Matrix Transpose) must plan to baseline here.
//  * full (manual variants included): the planner may pick the paper's
//    hand-recoded §5.2.1 variants when their static permutation delta
//    scores higher.
//
// Budget determinism is locked too: an area budget below config D's
// 2.86 mm^2 leaves no feasible configuration (plan falls to baseline); a
// 3 mm^2 budget admits exactly config D.
//
// A third, *warmed* pass closes the measure->plan loop: every feasible
// candidate shape is executed once through a BatchEngine (which memoizes
// its exact simulator cycles in the shared cache's cycle memo), then a
// planned request pinned to the simulator must decide with
// score_source == measured and land within kWarmTolerance of the BEST
// fixed-config hand-pick — a warm memo upgrades the guarantee from "never
// worse than the worst" to "matches the best".
//
// With --json, emits BENCH_planner.json (planned/worst/baseline cycles per
// kernel x repeats, plus the warmed plan_warm records — all deterministic)
// for the CI perf gate.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "runtime/batch_engine.h"
#include "runtime/history.h"
#include "runtime/planner.h"

using namespace subword;
using namespace subword::bench;

namespace {

uint64_t simulate(const kernels::MediaKernel& k, const runtime::Plan& plan,
                  int repeats) {
  const auto run =
      plan.use_spu
          ? kernels::run_spu(k, repeats, plan.cfg, plan.mode)
          : kernels::run_baseline(k, repeats);
  check(run.verified, k.name() + " planned execution");
  return run.stats.cycles;
}

}  // namespace

int main(int argc, char** argv) {
  BenchJson json("planner");
  prof::Table t({"kernel", "repeats", "auto-only plan", "full plan",
                 "planned cycles", "worst fixed cfg", "baseline", "margin"});

  int violations = 0;
  for (const auto& k : kernels::all_kernels()) {
    for (const int repeats : {1, 8, 64}) {
      // The hand-pick space the planner replaces: every crossbar config,
      // auto-orchestrated at this problem size.
      uint64_t worst_fixed = 0;
      for (const auto& cfg : core::kAllConfigs) {
        const auto run =
            kernels::run_spu(*k, repeats, cfg, kernels::SpuMode::Auto);
        check(run.verified, k->name() + " fixed-config run");
        worst_fixed = std::max(run.stats.cycles, worst_fixed);
      }
      const auto base = kernels::run_baseline(*k, repeats);
      check(base.verified, k->name() + " baseline run");

      runtime::PlanOptions auto_only;
      auto_only.allow_manual = false;
      const auto plan_auto = runtime::plan_kernel(*k, repeats, auto_only);
      const auto plan_full = runtime::plan_kernel(*k, repeats);
      const uint64_t auto_cycles = simulate(*k, plan_auto, repeats);
      const uint64_t full_cycles = simulate(*k, plan_full, repeats);

      // -- Acceptance: planned is never slower than the worst hand-pick --
      for (const auto& [what, cycles] :
           {std::pair<const char*, uint64_t>{"auto-only", auto_cycles},
            std::pair<const char*, uint64_t>{"full", full_cycles}}) {
        if (cycles > worst_fixed) {
          std::fprintf(stderr,
                       "VIOLATION: %s r=%d %s plan costs %llu cycles > "
                       "worst fixed config %llu\n",
                       k->name().c_str(), repeats, what,
                       static_cast<unsigned long long>(cycles),
                       static_cast<unsigned long long>(worst_fixed));
          ++violations;
        }
      }

      // -- Acceptance: zero removal in a space => baseline in that space --
      auto removes_nothing = [](const runtime::Plan& p) {
        for (const auto& c : p.summary.candidates) {
          if (c.use_spu && c.feasible && c.removed_static > 0) return false;
        }
        return true;
      };
      if (removes_nothing(plan_auto) && plan_auto.use_spu) {
        std::fprintf(stderr,
                     "VIOLATION: %s r=%d auto-only space removes nothing "
                     "but plan is %s, not baseline\n",
                     k->name().c_str(), repeats,
                     plan_auto.summary.choice_label().c_str());
        ++violations;
      }
      if (removes_nothing(plan_full) && plan_full.use_spu) {
        std::fprintf(stderr,
                     "VIOLATION: %s r=%d full space removes nothing but "
                     "plan is %s, not baseline\n",
                     k->name().c_str(), repeats,
                     plan_full.summary.choice_label().c_str());
        ++violations;
      }

      const double margin =
          worst_fixed == 0
              ? 0.0
              : 100.0 * (static_cast<double>(worst_fixed) -
                         static_cast<double>(full_cycles)) /
                    static_cast<double>(worst_fixed);
      t.add_row({k->name(), std::to_string(repeats),
                 plan_auto.summary.choice_label(),
                 plan_full.summary.choice_label(),
                 std::to_string(full_cycles), std::to_string(worst_fixed),
                 std::to_string(base.stats.cycles),
                 prof::fixed(margin, 1) + "%"});
      json.record(
          {{"kind", BenchJson::str("plan")},
           {"kernel", BenchJson::str(k->name())},
           {"repeats", BenchJson::num(repeats)},
           {"choice", BenchJson::str(plan_full.summary.choice_label())},
           {"auto_only_choice",
            BenchJson::str(plan_auto.summary.choice_label())},
           {"planned_cycles", BenchJson::num(full_cycles)},
           {"auto_only_planned_cycles", BenchJson::num(auto_cycles)},
           {"worst_fixed_cycles", BenchJson::num(worst_fixed)},
           {"baseline_cycles", BenchJson::num(base.stats.cycles)},
           {"est_benefit",
            BenchJson::num(static_cast<uint64_t>(std::max<int64_t>(
                0, plan_full.summary.est_benefit)))}});
    }
  }
  std::printf("%s\n", t.render().c_str());

  // -- Budget determinism (Table-1 prices: config D = 2.86 mm^2) -----------
  {
    runtime::PlanOptions tight;
    tight.budget.area_mm2 = 1.0;  // below every configuration
    const auto starved = runtime::plan_kernel("FIR22", 8, tight);
    check(!starved.use_spu,
          "1 mm^2 budget leaves no feasible config -> baseline");

    runtime::PlanOptions just_d;
    just_d.budget.area_mm2 = 3.0;  // admits exactly config D
    const auto d_only = runtime::plan_kernel("FIR22", 8, just_d);
    check(d_only.use_spu && std::string(d_only.cfg.name) == "D",
          "3 mm^2 budget admits exactly config D");
    std::printf(
        "budget determinism: FIR22@8 plans %s under a 1 mm^2 budget, %s "
        "under 3 mm^2\n\n",
        starved.summary.choice_label().c_str(),
        d_only.summary.choice_label().c_str());
  }

  // -- Warmed pass: the measure->plan loop, end to end ---------------------
  // Cold planning above is graded against the WORST hand-pick (the model
  // is optimistic but safe). With every feasible shape memoized the bar rises:
  // the planner must match the BEST fixed choice within tolerance, and
  // must say its decision was measured, not modeled.
  {
    prof::Table wt({"kernel", "repeats", "warmed plan", "score source",
                    "planned cycles", "best fixed", "margin"});
    int warm_violations = 0;
    constexpr double kWarmTolerance = 1.05;  // 5% headroom over best fixed
    for (const auto& k : kernels::all_kernels()) {
      for (const int repeats : {1, 8, 64}) {
        runtime::BatchEngine engine({.workers = 2, .cache = nullptr});

        // The candidate field does not depend on the memo — enumerate it
        // once, then warm every feasible shape: one real engine run
        // memoizes its exact cycle count.
        const auto cold = runtime::plan_kernel(*k, repeats);
        uint64_t best_fixed = 0;
        bool have_fixed = false;
        for (const auto& c : cold.summary.candidates) {
          if (!c.feasible) continue;
          runtime::KernelJob job;
          job.kernel = k->name();
          job.repeats = repeats;
          job.use_spu = c.use_spu;
          job.mode = c.mode;
          job.cfg = c.cfg;
          auto r = engine.submit(std::move(job)).get();
          check(r.ok, k->name() + " warm-up run (" + r.error + ")");
          check(r.run.stats.has_cycles, k->name() + " warm-up cycle stats");
          if (c.use_spu) {
            best_fixed = have_fixed
                             ? std::min(best_fixed, r.run.stats.cycles)
                             : r.run.stats.cycles;
            have_fixed = true;
          }
        }

        // The warmed planned request, pinned to the simulator so the
        // decision and the measurement share one unit (cycles).
        runtime::KernelJob pj;
        pj.kernel = k->name();
        pj.repeats = repeats;
        pj.plan = true;
        pj.backend = kernels::ExecBackend::kSimulator;
        pj.backend_pinned = true;
        const auto pr = engine.submit(std::move(pj)).get();
        check(pr.ok, k->name() + " warmed planned run (" + pr.error + ")");
        check(pr.plan != nullptr, k->name() + " warmed plan summary");
        const uint64_t planned = pr.run.stats.cycles;
        const char* source = runtime::to_string(pr.plan->score_source);

        if (pr.plan->score_source != runtime::ScoreSource::kMeasured) {
          std::fprintf(stderr,
                       "VIOLATION: %s r=%d warmed plan decided from '%s', "
                       "expected 'measured'\n",
                       k->name().c_str(), repeats, source);
          ++warm_violations;
        }
        if (have_fixed &&
            static_cast<double>(planned) >
                static_cast<double>(best_fixed) * kWarmTolerance) {
          std::fprintf(stderr,
                       "VIOLATION: %s r=%d warmed plan costs %llu cycles > "
                       "best fixed config %llu (tolerance %.0f%%)\n",
                       k->name().c_str(), repeats,
                       static_cast<unsigned long long>(planned),
                       static_cast<unsigned long long>(best_fixed),
                       (kWarmTolerance - 1.0) * 100.0);
          ++warm_violations;
        }

        const double wmargin =
            best_fixed == 0
                ? 0.0
                : 100.0 * (static_cast<double>(best_fixed) -
                           static_cast<double>(planned)) /
                      static_cast<double>(best_fixed);
        wt.add_row({k->name(), std::to_string(repeats),
                    pr.plan->choice_label(), source, std::to_string(planned),
                    std::to_string(best_fixed), prof::fixed(wmargin, 1) + "%"});
        json.record(
            {{"kind", BenchJson::str("plan_warm")},
             {"kernel", BenchJson::str(k->name())},
             {"repeats", BenchJson::num(repeats)},
             {"choice", BenchJson::str(pr.plan->choice_label())},
             {"score_source", BenchJson::str(source)},
             {"warmed_planned_cycles", BenchJson::num(planned)},
             {"best_fixed_cycles", BenchJson::num(best_fixed)},
             {"observed_count",
              BenchJson::num(pr.plan->measured_cycles ? 1 : 0)}});
      }
    }
    std::printf("%s\n", wt.render().c_str());
    check(warm_violations == 0,
          "warmed planner acceptance (measured decisions match the best "
          "fixed config)");
  }

  if (want_json(argc, argv)) {
    const auto path = json.write();
    check(!path.empty(), "writing BENCH_planner.json");
    std::printf("wrote %s\n", path.c_str());
  }

  check(violations == 0, "planner acceptance (all kernels x repeats)");
  std::printf(
      "planner acceptance: for every registry kernel x repeats in "
      "{1,8,64}, the planned\nchoice is never slower than the worst "
      "fixed-config hand-pick, and zero-removal\nspaces plan to plain "
      "baseline.\n");
  return 0;
}
