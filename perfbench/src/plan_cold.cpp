// plan_cold — the planner from a cold cache.
//
// Each round builds a fresh Session with its own cache and sends one
// auto_plan() request per shape, sequentially, for every registry kernel x
// repeats {1, 8, 64} (the bench_planner grid), leaving the backend to the
// planner. This is the one workload where the prepare half dominates:
// provenance dry-runs under every config, orchestrator rewriting and
// native lowering. The chosen shapes are then simulated outside the timed
// region; their cycle sum is deterministic and must not rise.
#include <algorithm>
#include <cmath>
#include <numeric>

#include "api/session.h"
#include "common.h"
#include "kernels/registry.h"
#include "layers.h"
#include "runtime/batch_engine.h"
#include "runtime/planner.h"

namespace perfbench {

namespace {

using namespace subword;

constexpr int kRepeats[] = {1, 8, 64};

struct Shape {
  std::string kernel;
  int repeats = 1;
};

struct Round {
  std::vector<double> latency_ms;  // per shape, time to first result
  std::vector<std::string> choices;
  std::vector<runtime::PlanSummary> plans;
  double total_s = 0;
  uint64_t cache_misses = 0;
  uint64_t plan_misses = 0;
};

Round run_round(const std::vector<Shape>& shapes, int threads, Report& rep,
                Tracer* tracer, uint64_t round_id) {
  Round out;
  api::Session s({.workers = threads, .cache = nullptr});
  for (const auto& sh : shapes) {
    const int64_t t0 = now_ns();
    auto r = s.request(sh.kernel).repeats(sh.repeats).auto_plan().run();
    const int64_t t1 = now_ns();
    if (tracer != nullptr) tracer->add("plan.shape", t0, t1, -1, round_id);
    out.latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    out.total_s += static_cast<double>(t1 - t0) * 1e-9;
    ++rep.attempted;
    if (!r.ok() || !r->run.verified || r->plan == nullptr) {
      rep.fail(sh.kernel + " planned request failed" +
               (r.ok() ? std::string() : ": " + r.error().to_string()));
      out.choices.emplace_back();
      out.plans.emplace_back();
      continue;
    }
    out.choices.push_back(r->plan->choice_label() + "/" +
                          kernels::to_string(r->plan->backend));
    out.plans.push_back(*r->plan);
  }
  const auto st = s.stats();
  out.cache_misses = st.cache.misses;
  out.plan_misses = st.cache.plan_misses;
  return out;
}

}  // namespace

Report run_plan_cold(const Options& opts, Tracer* tracer) {
  Report rep;
  std::vector<Shape> shapes;
  for (const auto& info : kernels::kernel_infos()) {
    for (const int r : kRepeats) shapes.push_back({info.name, r});
  }

  // -- Setup: a session and the registry's capability probes ---------------
  probe_registry(opts, rep);
  { api::Session warm({.workers = opts.threads, .cache = nullptr}); }
  mark_ready();
  if (opts.setup_only) return rep;

  // Untraced rounds for the whole run; on a traced run, traced and
  // untraced rounds alternate so both see the same host.
  std::vector<Round> rounds;
  std::vector<Round> traced_rounds;
  const double seconds = opts.trace ? 0.7 * opts.seconds : opts.seconds;
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; rounds.size() < 2 || now_ns() < deadline ||
                       (opts.trace && traced_rounds.size() < 2);
       ++i) {
    const bool traced_round = opts.trace && i % 2 == 1;
    (traced_round ? traced_rounds : rounds)
        .push_back(run_round(shapes, opts.threads, rep,
                             traced_round ? tracer : nullptr, i));
    calibrate_between(opts.threads);
  }

  // Planning is a pure function of the shape: every round must agree.
  for (const auto* set : {&rounds, &traced_rounds}) {
    for (const auto& r : *set) {
      if (r.choices != rounds.front().choices) {
        rep.fail("plan choices differ between rounds");
      }
    }
  }

  // -- planned_cycles: the chosen shapes simulated, outside the timed region
  uint64_t planned_cycles = 0;
  sim::RunStats counts;
  runtime::BatchEngine engine({.workers = opts.threads, .cache = nullptr});
  {
    std::vector<runtime::KernelJob> jobs;
    for (size_t i = 0; i < shapes.size(); ++i) {
      const auto& p = rounds.front().plans[i];
      runtime::KernelJob j;
      j.kernel = shapes[i].kernel;
      j.repeats = shapes[i].repeats;
      j.use_spu = p.use_spu;
      j.mode = p.mode;
      j.cfg = p.cfg;
      j.backend = kernels::ExecBackend::kSimulator;
      jobs.push_back(std::move(j));
    }
    for (auto& r : engine.run_batch(std::move(jobs))) {
      if (!r.ok || !r.run.verified) rep.fail("planned shape on the simulator");
      planned_cycles += r.run.stats.cycles;
      counts += r.run.stats;
    }
  }

  if (!opts.trace) {
    // The shapes' latencies span three orders of magnitude, so a round's
    // median lands on whichever shape ranks 17th that round; each shape is
    // summarised over the rounds first. Interference from the shared host
    // only ever adds time, and it lands on a different few rounds each run:
    // over three runs Matrix Multiply@8's median over the rounds read
    // 4.56-5.77 ms and its lower quartile 4.37-4.40 ms. So each shape
    // counts with its lower quartile over the rounds; p50 and tail are
    // taken over those 33 values, and plan_cold_s is their sum.
    std::vector<double> per_shape;
    for (size_t i = 0; i < shapes.size(); ++i) {
      std::vector<double> v;
      for (const auto& r : rounds) v.push_back(r.latency_ms[i]);
      per_shape.push_back(percentile(v, 25));
    }
    const double plan_cold_s =
        std::accumulate(per_shape.begin(), per_shape.end(), 0.0) * 1e-3;
    rep.metric("p50_ms", percentile(per_shape, 50), "ms");
    rep.metric("tail_ms", percentile(per_shape, 90), "ms");
    rep.metric("ops_per_s", static_cast<double>(shapes.size()) / plan_cold_s,
               "1/s");
    rep.metric("model_cycles", static_cast<double>(planned_cycles), "cycles");
    rep.note("plan_cold_s", plan_cold_s, "s");
    rep.note("planned_cycles", static_cast<double>(planned_cycles), "cycles");
    rep.note("rounds", static_cast<double>(rounds.size()), "count");
    rep.note("tail_percentile", 90, "%");
  } else {
    Tracer& t = *tracer;
    std::vector<double> totals, traced_totals;
    for (const auto& r : rounds) totals.push_back(r.total_s);
    for (const auto& r : traced_rounds) traced_totals.push_back(r.total_s);
    const double untraced_s = percentile(totals, 50);
    rep.metric("trace.overhead_pct",
               100.0 * (percentile(traced_totals, 50) - untraced_s) / untraced_s,
               "%");
    rep.metric("runtime.cache_misses",
               static_cast<double>(rounds.front().cache_misses), "count");
    rep.metric("runtime.plan_misses",
               static_cast<double>(rounds.front().plan_misses), "count");

    // runtime / kernels / backend / core: each shape's planning and its
    // chosen preparation, step by step.
    int removed = 0;
    for (size_t i = 0; i < shapes.size(); ++i) {
      const auto k = kernels::make_kernel(shapes[i].kernel);
      traced(t, "runtime.plan", -1, i, [&] {
        return runtime::plan_kernel(*k, shapes[i].repeats).use_spu;
      });
      const auto& p = rounds.front().plans[i];
      removed += prepare_replica(
          *k, shapes[i].repeats, p.use_spu, p.mode, p.cfg,
          p.backend == kernels::ExecBackend::kNativeSwar, t);
    }
    rep.metric("runtime.plan_ms", t.mean_us("runtime.plan") * 1e-3, "ms");
    rep.metric("kernels.prepare_ms", t.mean_us("kernels.prepare") * 1e-3, "ms");
    rep.metric("backend.lower_ms", t.mean_us("backend.lower") * 1e-3, "ms");
    rep.metric("core.orchestrate_ms", t.mean_us("core.orchestrate") * 1e-3,
               "ms");
    rep.metric("core.removed_permutations", removed, "count");
    emit_sim_counts(counts, rep);
  }
  return rep;
}

}  // namespace perfbench
