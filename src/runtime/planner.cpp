#include "runtime/planner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "kernels/registry.h"

namespace subword::runtime {

namespace {

// Table-1 price of one configuration: interconnect plus control memory.
void price_config(const core::CrossbarConfig& cfg, PlanCandidate& c) {
  const hw::SpuCost cost = hw::estimate_cost(cfg);
  c.area_mm2 = cost.crossbar_area_mm2 + cost.control_mem_area_mm2;
  c.delay_ns = cost.crossbar_delay_ns;
}

bool within_budget(const PlanCandidate& c, const PlanBudget& b,
                   std::string* note) {
  if (b.area_mm2 > 0 && c.area_mm2 > b.area_mm2) {
    *note = "config " + std::string(c.cfg.name) + " needs " +
            std::to_string(c.area_mm2) + " mm^2, budget is " +
            std::to_string(b.area_mm2);
    return false;
  }
  if (b.delay_ns > 0 && c.delay_ns > b.delay_ns) {
    *note = "config " + std::string(c.cfg.name) + " crossbar delay " +
            std::to_string(c.delay_ns) + " ns exceeds budget " +
            std::to_string(b.delay_ns);
    return false;
  }
  return true;
}

}  // namespace

std::string PlanCandidate::label() const {
  if (!use_spu) return "baseline";
  return std::string(mode == kernels::SpuMode::Manual ? "manual/" : "auto/") +
         std::string(cfg.name);
}

std::string PlanSummary::choice_label() const {
  if (!use_spu) return "baseline";
  return std::string(mode == kernels::SpuMode::Manual ? "manual/" : "auto/") +
         std::string(cfg.name);
}

std::vector<PlanCandidate> score_candidates(const kernels::MediaKernel& k,
                                            int repeats,
                                            const PlanOptions& opts) {
  std::vector<PlanCandidate> out;

  // -- Baseline: the yardstick every SPU candidate must beat ----------------
  {
    PlanCandidate base;
    base.use_spu = false;
    base.est_benefit = 0;
    base.score = 0;
    out.push_back(std::move(base));
  }

  const isa::Program base_prog = k.build_mmx(1);
  const auto base_counts = base_prog.static_counts();

  // Dynamic permutation traffic per workload pass, measured once from a
  // provenance dry-run's loop inventory (the loop structure and trip
  // counts do not depend on the crossbar configuration). This is the pool
  // the manual variant's static removal fraction is scaled by.
  int64_t dyn_permutations = 0;
  bool have_dyn = false;
  auto collect_dyn = [&](const core::OrchestrationResult& dry) {
    for (const auto& l : dry.loops) {
      if (l.trip_count > 0) {
        dyn_permutations +=
            static_cast<int64_t>(l.total_permutations) * l.trip_count;
      }
    }
    have_dyn = true;
  };

  // -- Auto candidates: one provenance dry-run per configuration ------------
  for (const auto& cfg : core::kAllConfigs) {
    PlanCandidate c;
    c.use_spu = true;
    c.mode = kernels::SpuMode::Auto;
    c.cfg = cfg;
    price_config(cfg, c);
    if (!within_budget(c, opts.budget, &c.note)) {
      c.feasible = false;
      out.push_back(std::move(c));
      continue;
    }
    core::OrchestratorOptions oo;
    oo.config = cfg;
    const core::OrchestrationResult dry =
        core::Orchestrator(oo).run(base_prog);
    c.report = core::summarize(dry);
    if (!have_dyn) collect_dyn(dry);
    c.removed_static = c.report.removed_static;
    c.startup_instructions = c.report.startup_instructions();
    // Removed executions scale with the outer repeat count; the injected
    // MMIO prologue runs once (the paper's amortization argument).
    c.est_benefit = c.report.removed_dynamic * repeats -
                    c.startup_instructions;
    c.score = c.est_benefit;
    if (c.removed_static == 0) {
      c.note = "analysis removes no permutation under this config";
    }
    out.push_back(std::move(c));
  }

  // -- Manual candidates: the paper's hand-recoded variants (§5.2.1) --------
  if (opts.allow_manual) {
    if (!have_dyn) {
      // Every auto candidate was infeasible (budget starvation), so no
      // dry-run ran above. The manual scoring still needs the baseline's
      // dynamic permutation pool — a zero pool would score every manual
      // variant to est_benefit <= 0 and silently plan a pessimal baseline.
      // The loop inventory is config-independent, so one dry-run under A
      // serves.
      core::OrchestratorOptions oo;
      oo.config = core::kConfigA;
      collect_dyn(core::Orchestrator(oo).run(base_prog));
    }
    for (const auto& cfg : core::kAllConfigs) {
      PlanCandidate c;
      c.use_spu = true;
      c.mode = kernels::SpuMode::Manual;
      c.cfg = cfg;
      price_config(cfg, c);
      if (!within_budget(c, opts.budget, &c.note)) {
        c.feasible = false;
        out.push_back(std::move(c));
        continue;
      }
      std::optional<isa::Program> manual;
      try {
        manual = k.build_spu(cfg, 1);
      } catch (const std::logic_error&) {
        manual.reset();
      }
      if (!manual.has_value()) {
        c.feasible = false;
        c.note = "no manual SPU variant realizable under config " +
                 std::string(cfg.name);
        out.push_back(std::move(c));
        continue;
      }
      const auto man_counts = manual->static_counts();
      c.removed_static =
          std::max(0, base_counts.permutation - man_counts.permutation);
      // The manual program is the baseline minus the permutations it routes
      // plus its in-program MMIO prologue and GO stores — so the static
      // size delta (plus what was removed) is exactly the injected startup.
      c.startup_instructions = std::max<int64_t>(
          0, static_cast<int64_t>(man_counts.total) - base_counts.total +
                 c.removed_static);
      // Estimate the dynamic executions removed as the baseline's dynamic
      // permutation traffic scaled by the fraction of static permutations
      // the manual variant eliminated.
      const double fraction =
          base_counts.permutation > 0
              ? static_cast<double>(c.removed_static) /
                    static_cast<double>(base_counts.permutation)
              : 0.0;
      c.est_benefit = static_cast<int64_t>(std::llround(
                          fraction * static_cast<double>(dyn_permutations))) *
                          repeats -
                      c.startup_instructions;
      c.score = c.est_benefit;
      if (c.removed_static == 0) {
        c.note = "manual variant removes no permutation";
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}

void apply_measurements(const std::string& kernel, int repeats,
                        const HistoryTable* history,
                        std::vector<PlanCandidate>* candidates) {
  const auto cycles_of = [&](bool use_spu, kernels::SpuMode mode,
                             const core::CrossbarConfig& cfg) {
    return history->lookup(HistoryKey::from_shape(
        kernel, repeats, use_spu, mode, cfg,
        kernels::ExecBackend::kSimulator));
  };
  bool complete = history != nullptr;
  for (auto& c : *candidates) {
    c.score = c.est_benefit;
    c.score_source = ScoreSource::kModel;
    c.measured_cycles.reset();
    if (history != nullptr) {
      c.measured_cycles = cycles_of(c.use_spu, c.mode, c.cfg);
    }
    if (c.feasible && !c.measured_cycles) complete = false;
  }
  // A decision never weighs a measured saving against a modeled one: the
  // model is optimistic, so a half-measured field would favour whichever
  // shape has not run yet. Until every feasible candidate is memoized the
  // whole field keeps its estimates.
  if (!complete) return;
  // The baseline anchors every comparison.
  const auto base = cycles_of(false, kernels::SpuMode::Auto, core::kConfigA);
  if (!base) return;
  for (auto& c : *candidates) {
    if (!c.measured_cycles) continue;
    c.score = c.use_spu ? static_cast<int64_t>(*base) -
                              static_cast<int64_t>(*c.measured_cycles)
                        : 0;
    c.score_source = ScoreSource::kMeasured;
  }
}

Plan pick_plan(const std::string& kernel, int repeats,
               std::vector<PlanCandidate> candidates) {
  // Baseline is the incumbent: a SPU candidate must show a strictly
  // positive net score to unseat it. Among winners, prefer cheaper
  // silicon (area, then delay) — the paper's config-D economy.
  size_t best = 0;  // candidates[0] is baseline by construction
  for (size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
    if (!c.feasible || !c.use_spu || c.score <= 0) continue;
    const auto& b = candidates[best];
    const bool beats =
        (!b.use_spu) ||  // incumbent is still baseline
        c.score > b.score ||
        (c.score == b.score &&
         (c.area_mm2 < b.area_mm2 ||
          (c.area_mm2 == b.area_mm2 && c.delay_ns < b.delay_ns)));
    if (beats) best = i;
  }

  Plan plan;
  const PlanCandidate& win = candidates[best];
  plan.use_spu = win.use_spu;
  plan.mode = win.mode;
  plan.cfg = win.use_spu ? win.cfg : core::kConfigA;

  PlanSummary s;
  s.kernel = kernel;
  s.repeats = repeats;
  s.use_spu = plan.use_spu;
  s.mode = plan.mode;
  s.cfg = plan.cfg;
  s.removed_static = win.removed_static;
  s.est_benefit = win.est_benefit;
  s.startup_instructions = win.startup_instructions;
  s.area_mm2 = win.area_mm2;
  s.delay_ns = win.delay_ns;
  s.measured_cycles = win.measured_cycles;
  // The decision is only as measured as its least-measured comparison:
  // one cold feasible candidate means part of the field was still judged
  // by the model alone.
  s.score_source = ScoreSource::kMeasured;
  for (const auto& c : candidates) {
    if (!c.feasible) continue;
    if (static_cast<uint8_t>(c.score_source) <
        static_cast<uint8_t>(s.score_source)) {
      s.score_source = c.score_source;
    }
  }
  if (!plan.use_spu) {
    bool any_removal = false;
    for (const auto& c : candidates) {
      if (c.use_spu && c.feasible && c.removed_static > 0) any_removal = true;
    }
    s.reason = any_removal
                   ? "baseline: no SPU candidate's removed permutations "
                     "outweigh its startup cost at repeats=" +
                         std::to_string(repeats)
                   : "baseline: no configuration removes any permutation";
  } else {
    s.reason = win.label() + ": " + to_string(win.score_source) + " score " +
               std::to_string(win.score) + " cycles saved at repeats=" +
               std::to_string(repeats) + " (est " +
               std::to_string(win.est_benefit) + ", " +
               std::to_string(win.removed_static) +
               " static permutations removed, " +
               std::to_string(win.startup_instructions) +
               " startup instructions) at " + std::to_string(win.area_mm2) +
               " mm^2 — cheapest winning config";
  }
  s.candidates = std::move(candidates);
  plan.summary = std::move(s);
  return plan;
}

Plan plan_kernel(const kernels::MediaKernel& k, int repeats,
                 const PlanOptions& opts) {
  std::vector<PlanCandidate> candidates = score_candidates(k, repeats, opts);
  apply_measurements(k.name(), repeats, opts.history, &candidates);
  Plan plan = pick_plan(k.name(), repeats, std::move(candidates));
  // Native-SWAR unless pinned: bit-identical outputs, order-of-magnitude
  // faster. Callers that need cycle statistics pin the simulator. Whether
  // the chosen shape lowers is decided by its cached preparation, which
  // reports a rejection as a typed LoweringError.
  plan.backend = opts.backend.value_or(kernels::ExecBackend::kNativeSwar);
  plan.summary.backend = plan.backend;
  return plan;
}

Plan plan_kernel(const std::string& kernel, int repeats,
                 const PlanOptions& opts) {
  const auto k = kernels::make_kernel(kernel);
  return plan_kernel(*k, repeats, opts);
}

}  // namespace subword::runtime
