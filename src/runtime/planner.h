// planner.h — cost-model-driven orchestration planning: the system picks
// its own {crossbar config, execution mode, backend} the way the paper's
// §4 accounts for orchestration profitability.
//
// The paper argues SPU orchestration pays off only when the permutation
// executions it removes outweigh the MMIO startup cost, and Table 1 prices
// each crossbar configuration in area and delay. Until now both decisions
// sat with the caller: hand-pick kConfigA..kConfigD, hand-pick
// baseline/manual/auto, hand-pick the backend — and four registry kernels
// silently auto-orchestrate to *zero* removed permutations under every
// configuration, paying pure overhead (the PR-3 gotcha). The planner turns
// that accounting into a first-class decision:
//
//  1. dry-run the provenance analysis under every core::kAllConfigs entry
//     (repeats=1: the per-pass loop structure does not change with the
//     outer repeat count) and summarize each as a core::OrchestrationReport;
//  2. score each candidate — estimated dynamic cycles saved at the
//     requested repeat count minus the injected startup instructions —
//     and price it with hw::estimate_cost (Table 1), discarding
//     candidates that bust the caller's area/delay budget;
//  3. score the kernel's hand-written SPU variant (where realizable) from
//     its static permutation delta against the baseline program;
//  4. pick the feasible candidate with the best net benefit, tie-breaking
//     toward the *cheapest* silicon (the paper's config-D economy), and
//     fall back to the plain MMX baseline whenever nothing removes any
//     permutation — the zero-permutation trap becomes a planned outcome
//     instead of a documented gotcha;
//  5. pick the execution backend: native-SWAR unless PlanOptions::backend
//     pins one. Callers that need cycle statistics pin the simulator. The
//     planner does not probe the lowering: the engine's cached preparation
//     lowers the chosen shape for real and reports a rejection as a typed
//     kBackendUnsupported.
//
// Planning is deterministic (pure function of kernel, repeats and
// options), so runtime::OrchestrationCache memoizes decisions under
// PlanKey and concurrent sessions plan each shape exactly once.
//
// The scoring is deliberately *optimistic* about orchestration: the
// estimate ignores second-order costs (the deeper SPU pipe's extra
// mispredict penalty, GO-store issue slots), so ties and near-ties resolve
// toward orchestrating. That bias is safe — every SPU candidate is
// bit-exact and within a few percent of its siblings — while the expensive
// mistake, orchestrating when nothing is removable, is excluded exactly
// rather than estimated (removed == 0 never scores positive).
//
// The model is only the cold half of the decision. When
// PlanOptions::history points at a runtime::HistoryTable (the engine
// always passes its cache's table), apply_measurements() replaces the
// estimate with the exact simulator cycles once the baseline and every
// feasible candidate have been simulated:
//
//     score = cycles(baseline) - cycles(candidate)   whole field memoized
//           = est_benefit                            otherwise
//
// so a shape the model oversold loses its seat as soon as the field has
// run once, and pick_plan decides on `score` instead of raw est_benefit.
// A measured saving is never weighed against a modeled one: the model is
// optimistic, so a half-measured field would favour whichever shape has
// not run yet. The decision's provenance is PlanSummary::score_source,
// the *least* measured feasible candidate's (a plan is only as measured
// as the candidates it compared).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/crossbar.h"
#include "core/orchestrator.h"
#include "hw/cost_model.h"
#include "kernels/runner.h"
#include "runtime/history.h"

namespace subword::runtime {

// Hardware constraints in the paper's Table-1 units (0.25um, 2LM).
// Zero means unconstrained.
struct PlanBudget {
  double area_mm2 = 0;   // crossbar + control memory area ceiling
  double delay_ns = 0;   // crossbar delay ceiling

  [[nodiscard]] bool unconstrained() const {
    return area_mm2 <= 0 && delay_ns <= 0;
  }
  friend bool operator==(const PlanBudget&, const PlanBudget&) = default;
};

struct PlanOptions {
  PlanBudget budget;
  // Consider the kernel's hand-written SPU variant (paper §5.2.1). The
  // auto-only space is what the orchestrator can reach unaided.
  bool allow_manual = true;
  // Pin the execution backend instead of letting the planner choose. The
  // pin does not narrow the candidate field.
  std::optional<kernels::ExecBackend> backend;
  // Exact simulator cycles to score with (see the header comment). Null:
  // pure Table-1 model. The pointee must outlive the planning call; it is
  // not retained.
  const HistoryTable* history = nullptr;
};

// One scored point in the decision space. Baseline is the candidate with
// use_spu=false; SPU candidates carry the config they were scored under.
struct PlanCandidate {
  bool use_spu = false;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  core::CrossbarConfig cfg{};     // meaningful when use_spu
  bool feasible = true;           // within budget and realizable
  std::string note;               // infeasibility reason / diagnostics
  // Dry-run product for auto candidates (zeroed for baseline/manual).
  core::OrchestrationReport report;
  int removed_static = 0;         // static permutations this choice deletes
  int64_t startup_instructions = 0;  // injected MMIO/GO work per execution
  // Estimated dynamic cycles saved at the requested repeat count, net of
  // startup. Pure model output, kept for the audit trail.
  int64_t est_benefit = 0;
  // The decision variable pick_plan compares: the measured saving per the
  // header formula, or est_benefit while the field is not fully memoized.
  // <= 0 never beats baseline.
  int64_t score = 0;
  ScoreSource score_source = ScoreSource::kModel;
  // This shape's memoized simulator cycles (nullopt: never simulated).
  std::optional<uint64_t> measured_cycles;
  double area_mm2 = 0;            // Table-1 price of this config
  double delay_ns = 0;

  [[nodiscard]] std::string label() const;  // "baseline" / "auto/D" / ...
};

// The decision plus everything needed to explain it (threaded through
// JobResult into api::Response so callers see what was chosen and why).
struct PlanSummary {
  std::string kernel;
  int repeats = 1;
  bool use_spu = false;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  core::CrossbarConfig cfg{};
  kernels::ExecBackend backend = kernels::ExecBackend::kSimulator;
  int removed_static = 0;
  int64_t est_benefit = 0;
  int64_t startup_instructions = 0;
  double area_mm2 = 0;
  double delay_ns = 0;
  // Decision provenance: whether the comparison was measured rather than
  // modeled (the least-measured feasible candidate's source), plus the
  // winner's own memoized cycles.
  ScoreSource score_source = ScoreSource::kModel;
  std::optional<uint64_t> measured_cycles;
  std::string reason;                     // human-readable why
  std::vector<PlanCandidate> candidates;  // the full scored field

  [[nodiscard]] std::string choice_label() const;
};

// What the engine executes. `summary` carries the audit trail.
struct Plan {
  bool use_spu = false;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  core::CrossbarConfig cfg = core::kConfigA;
  kernels::ExecBackend backend = kernels::ExecBackend::kSimulator;
  PlanSummary summary;
};

// Score the full candidate field for one kernel at one repeat count:
// baseline, auto under every kAllConfigs entry (provenance dry-run at
// repeats=1, benefit scaled by `repeats`), and — when opts.allow_manual —
// the manual variant under every config where it is realizable.
[[nodiscard]] std::vector<PlanCandidate> score_candidates(
    const kernels::MediaKernel& k, int repeats, const PlanOptions& opts);

// Score a field in place from the memo (see the header formula): every
// candidate's measured_cycles is filled from the table, and once the
// baseline and every feasible candidate are memoized each memoized
// candidate scores its exact cycle saving with score_source = measured.
// Otherwise, and when `history` is null, every candidate keeps its model
// score.
void apply_measurements(const std::string& kernel, int repeats,
                        const HistoryTable* history,
                        std::vector<PlanCandidate>* candidates);

// Pure decision core (unit-testable without a kernel): pick the feasible
// candidate with the highest positive score; ties resolve toward
// cheaper area, then lower delay, then candidate order. When no feasible
// candidate scores positive — in particular when no config removes any
// permutation — the plain baseline wins. The backend on the returned Plan
// is simulator; plan_kernel() finalizes it.
[[nodiscard]] Plan pick_plan(const std::string& kernel, int repeats,
                             std::vector<PlanCandidate> candidates);

// The full pipeline: score, pick, and resolve the execution backend
// (native-SWAR unless opts.backend pins).
[[nodiscard]] Plan plan_kernel(const kernels::MediaKernel& k, int repeats,
                               const PlanOptions& opts = {});

// Registry-name convenience (throws std::out_of_range for unknown names,
// like kernels::make_kernel).
[[nodiscard]] Plan plan_kernel(const std::string& kernel, int repeats,
                               const PlanOptions& opts = {});

}  // namespace subword::runtime
