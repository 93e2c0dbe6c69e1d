// kernel_table.cpp — generates the README's kernel table from the registry.
//
// The README must never go stale against the code: this tool prints one
// markdown row per registered kernel (name, workload, which layers it
// implements, where it is tested and benched), and CI greps its `--names`
// output against README.md so a kernel registered without documentation
// fails the docs job.
//
// Usage: kernel_table            # markdown table (paste into README.md)
//        kernel_table --names    # one kernel name per line (CI check)
#include <cstdio>
#include <cstring>
#include <string>

#include "kernels/registry.h"
#include "runtime/history.h"
#include "runtime/planner.h"

using namespace subword;

namespace {

// The "Tileable?" cell: how (and whether) runtime/tiling.h may cut a
// frame-sized request into base-tile jobs for this kernel.
std::string tileable_cell(const kernels::BufferSpec& spec) {
  if (!spec.supported() || !spec.tileable) return "—";
  if (spec.tile_input_halo_bytes != 0) {
    return "halo " + std::to_string(spec.tile_input_halo_bytes) + " B";
  }
  if (spec.tile_unit_input_bytes != 0) {
    return std::to_string(spec.tile_unit_input_bytes) + " B units";
  }
  return "whole tiles";
}

// The pick auto_plan() converges to once every feasible candidate shape
// has been simulated once (one run is its exact cost) and the plan is
// re-derived against that memo (docs/PLANNER.md).
runtime::Plan warmed_plan(const std::string& name, int repeats) {
  const auto k = kernels::make_kernel(name);
  runtime::HistoryTable history;
  const auto cold = runtime::plan_kernel(*k, repeats);
  for (const auto& c : cold.summary.candidates) {
    if (!c.feasible) continue;
    const auto run = c.use_spu
                         ? kernels::run_spu(*k, repeats, c.cfg, c.mode)
                         : kernels::run_baseline(*k, repeats);
    history.record(runtime::HistoryKey::from_shape(
                       name, repeats, c.use_spu, c.mode, c.cfg,
                       kernels::ExecBackend::kSimulator),
                   static_cast<double>(run.stats.cycles));
  }
  runtime::PlanOptions opts;
  opts.history = &history;
  return runtime::plan_kernel(*k, repeats, opts);
}

}  // namespace

int main(int argc, char** argv) {
  const bool names_only = argc > 1 && std::strcmp(argv[1], "--names") == 0;

  if (names_only) {
    // Names need no capability probing — skip kernel_infos() so the CI
    // docs check does not pay the registry's manual-variant probe.
    for (const auto& k : kernels::all_kernels()) {
      std::printf("%s\n", k->name().c_str());
    }
    return 0;
  }

  const auto& infos = kernels::kernel_infos();

  std::printf(
      "| Kernel | Workload | Layers | Suite | Backends | Tileable? | "
      "Planned? | Tested by | Benched by |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|\n");
  for (const auto& info : infos) {
    // The cost-model planner's pick at repeats=8 (full search space) —
    // what `auto_plan()` resolves to for a mid-size request on a cold
    // memo — and, where measurement flips the decision, the warmed pick.
    const auto cold = runtime::plan_kernel(info.name, 8);
    const auto warm = warmed_plan(info.name, 8);
    const std::string cold_label = cold.summary.choice_label();
    const std::string warm_label = warm.summary.choice_label();
    char planned[96];
    if (warm_label == cold_label) {
      std::snprintf(planned, sizeof planned, "`%s`", cold_label.c_str());
    } else {
      std::snprintf(planned, sizeof planned, "`%s` → `%s`",
                    cold_label.c_str(), warm_label.c_str());
    }
    std::printf(
        "| %s | %s | ref, MMX%s, auto | %s | sim, native | %s | %s | "
        "`test_kernels{,_spu}`, `test_registry_property` | `%s` |\n",
        info.name.c_str(), info.description.c_str(),
        info.has_manual_spu() ? ", SPU" : "",
        info.paper_suite ? "paper (Fig. 9)" : "extended",
        tileable_cell(info.buffers).c_str(), planned,
        info.paper_suite ? "fig9_cycles" : "ablation_new_workloads");
  }
  std::printf(
      "\n*Planned?* is what the cost-model planner (`auto_plan()`, "
      "[docs/PLANNER.md](docs/PLANNER.md)) chooses at repeats=8 on a cold "
      "cycle memo: the cheapest configuration whose removed permutations "
      "outweigh its startup cost, or `baseline` when nothing is removable. "
      "A `cold` → `warmed` arrow marks kernels where measurement flips "
      "that decision once every feasible candidate has been simulated "
      "once (the planner then scores with exact cycles instead of the "
      "Table-1 estimate). *Tileable?* "
      "is the kernel's frame-tiling geometry ([docs/API.md](docs/API.md)): "
      "the input overlap between consecutive tiles (`halo`), the "
      "granularity a partial tail tile may round to (`units`), or `whole "
      "tiles` when a frame must be an exact multiple of the base tile.\n");
  return 0;
}
