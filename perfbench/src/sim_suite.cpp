// sim_suite — the paper's eight kernels on the cycle-level simulator.
//
// A closed batch on a runtime::BatchEngine with `threads` workers and a
// warm cache: every pass submits the Figure-9 suite at the
// bench::default_repeats sizes, each kernel as baseline, manual SPU config
// A (the Figure 9 methodology) and auto/D, and waits for all of it.
// Machine::run does nearly all the work, so this workload moves with the
// simulator core and stays put under fixed-cost changes; every simulated
// count must repeat exactly.
#include <algorithm>
#include <future>
#include <thread>

#include "bench_common.h"
#include "common.h"
#include "core/orchestrator.h"
#include "kernels/registry.h"
#include "layers.h"
#include "runtime/batch_engine.h"

namespace perfbench {

namespace {

using namespace subword;

enum Variant { kBaseline = 0, kManualA = 1, kAutoD = 2 };

struct SuiteJob {
  runtime::KernelJob job;
  Variant variant = kBaseline;
  uint64_t expected_cycles = 0;
};

std::vector<SuiteJob> suite() {
  std::vector<SuiteJob> jobs;
  for (const auto& k : bench::paper_kernels()) {
    for (const Variant v : {kBaseline, kManualA, kAutoD}) {
      SuiteJob s;
      s.variant = v;
      s.job.kernel = k->name();
      s.job.repeats = bench::default_repeats(k->name());
      s.job.backend = kernels::ExecBackend::kSimulator;
      s.job.use_spu = v != kBaseline;
      s.job.mode = v == kManualA ? kernels::SpuMode::Manual
                                 : kernels::SpuMode::Auto;
      s.job.cfg = v == kAutoD ? core::kConfigD : core::kConfigA;
      jobs.push_back(std::move(s));
    }
  }
  return jobs;
}

struct Pass {
  Group jobs;  // latency from submission to completion, per job
  std::vector<double> prepare_us;  // the engine's prepare_ns, per job
  uint64_t instructions = 0;
};

// One pass of the suite; completions are polled so each job's latency is
// its own, not its position in a wait order.
Pass run_pass(runtime::BatchEngine& engine, const std::vector<SuiteJob>& jobs,
              Report& rep, Tracer* tracer, uint64_t pass_id,
              std::vector<runtime::JobResult>* results) {
  Pass out;
  std::vector<std::future<runtime::JobResult>> futs;
  const int64_t t0 = now_ns();
  for (const auto& s : jobs) futs.push_back(engine.submit(s.job));
  std::vector<bool> done(futs.size(), false);
  size_t remaining = futs.size();
  while (remaining > 0) {
    for (size_t i = 0; i < futs.size(); ++i) {
      if (done[i] || futs[i].wait_for(std::chrono::seconds(0)) !=
                         std::future_status::ready) {
        continue;
      }
      const int64_t t1 = now_ns();
      done[i] = true;
      --remaining;
      runtime::JobResult r = futs[i].get();
      out.jobs.latency_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      if (tracer != nullptr) tracer->add("suite.job", t0, t1, -1, pass_id);
      ++rep.attempted;
      const auto& s = jobs[i];
      if (!r.ok || !r.run.verified) {
        rep.fail(s.job.kernel + " job failed: " + r.error);
      } else if (s.expected_cycles != 0 &&
                 r.run.stats.cycles != s.expected_cycles) {
        rep.fail(s.job.kernel + " cycle count moved");
      }
      out.instructions += r.run.stats.instructions;
      out.prepare_us.push_back(static_cast<double>(r.prepare_ns) * 1e-3);
      if (results != nullptr) (*results)[i] = std::move(r);
    }
    if (remaining > 0) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  out.jobs.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

}  // namespace

Report run_sim_suite(const Options& opts, Tracer* tracer) {
  Report rep;
  auto jobs = suite();

  // -- Setup: engine, capability probes, one warm pass ---------------------
  runtime::BatchEngine engine({.workers = opts.threads, .cache = nullptr});
  probe_registry(opts, rep);
  std::vector<runtime::JobResult> warm(jobs.size());
  {
    Report warm_rep;
    (void)run_pass(engine, jobs, warm_rep, nullptr, 0, &warm);
    if (!warm_rep.correct) {
      rep.fail("warm pass");
      return rep;
    }
  }
  mark_ready();
  if (opts.setup_only) return rep;

  // -- References: the warm pass's exact cycles. The Figure 9 slice goes
  // out as a note, which run.py checks against the checked-in baseline.
  uint64_t total = 0;
  uint64_t fig9 = 0;
  sim::RunStats counts;
  int removed = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].expected_cycles = warm[i].run.stats.cycles;
    total += warm[i].run.stats.cycles;
    if (jobs[i].variant != kAutoD) fig9 += warm[i].run.stats.cycles;
    counts += warm[i].run.stats;
    if (warm[i].run.orchestration) {
      removed += core::summarize(*warm[i].run.orchestration).removed_static;
    }
  }
  rep.note("sim_cycles_fig9_part", static_cast<double>(fig9), "cycles");

  const auto stats0 = engine.stats();
  const double S = opts.seconds;
  std::vector<double> prepare_us;
  // Runs passes for `seconds`; each pass is one summary group.
  auto passes = [&](double seconds, Tracer* t, std::vector<Group>* groups,
                    std::vector<double>* minstr_per_s) {
    const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
    for (uint64_t p = 0; p == 0 || now_ns() < deadline; ++p) {
      Pass r = run_pass(engine, jobs, rep, t, p, nullptr);
      minstr_per_s->push_back(static_cast<double>(r.instructions) * 1e-6 /
                              r.jobs.seconds);
      groups->push_back(std::move(r.jobs));
      prepare_us.insert(prepare_us.end(), r.prepare_us.begin(),
                        r.prepare_us.end());
      calibrate_between(opts.threads);
    }
  };

  if (!opts.trace) {
    std::vector<Group> groups;
    std::vector<double> minstr;
    passes(S, nullptr, &groups, &minstr);
    const Summary sm = summarize(groups, 90);
    rep.metric("p50_ms", sm.p50_ms, "ms");
    rep.metric("tail_ms", sm.tail_ms, "ms");
    rep.metric("ops_per_s", sm.ops_per_s, "1/s");
    rep.metric("model_cycles", static_cast<double>(total), "cycles");
    rep.note("sim_minstr_per_s", percentile(minstr, 50), "Minstr/s");
    rep.note("sim_cycles", static_cast<double>(total), "cycles");
    rep.note("jobs", static_cast<double>(sm.samples), "count");
    rep.note("passes", static_cast<double>(sm.groups), "count");
    rep.note("tail_percentile", 90, "%");
  } else {
    Tracer& t = *tracer;
    // Untraced and traced stretches alternate, so both see the same host.
    std::vector<Group> plain, traced_groups;
    std::vector<double> minstr;
    const auto eng0 = engine.stats();
    for (int i = 0; i < 6; ++i) {
      passes(0.05 * S, nullptr, &plain, &minstr);
      passes(0.05 * S, &t, &traced_groups, &minstr);
    }
    const auto eng1 = engine.stats();
    const double plain_p50 = summarize(plain, 90).p50_ms;
    rep.metric("trace.overhead_pct",
               100.0 * (summarize(traced_groups, 90).p50_ms - plain_p50) /
                   plain_p50,
               "%");
    emit_engine_deltas(eng0, eng1, rep);
    rep.metric("runtime.prepare_us", mean(prepare_us), "us");
    rep.metric("runtime.cache_misses",
               static_cast<double>(eng1.cache.misses - stats0.cache.misses),
               "count");
    std::vector<std::string> names;
    for (const auto& s : jobs) names.push_back(s.job.kernel);
    rep.metric("runtime.history_record_ns", history_record_ns(names), "ns");

    // sim / core / kernels: each job's prepare half and simulation replayed
    // step by step, baseline and SPU runs timed apart.
    uint64_t instr_base = 0, instr_spu = 0;
    for (const auto& s : jobs) {
      const auto k = kernels::make_kernel(s.job.kernel);
      (void)prepare_replica(*k, s.job.repeats, s.job.use_spu, s.job.mode,
                            s.job.cfg, false, t);
      const auto p = s.job.use_spu
                         ? kernels::prepare_spu(*k, s.job.repeats, s.job.cfg,
                                                s.job.mode)
                         : kernels::prepare_baseline(*k, s.job.repeats);
      sim::Machine m(p.program, kernels::kMemBytes, p.pc);
      const auto st = sim_replica(*k, p, {}, m,
                                  s.job.use_spu ? "sim.run.spu" : "sim.run.baseline",
                                  t, rep);
      (s.job.use_spu ? instr_spu : instr_base) += st.instructions;
      if (st.cycles != s.expected_cycles) rep.fail(s.job.kernel + " replica cycles");
    }
    // Run-span time over the instructions those runs retired.
    const auto ns_per_instr = [&](const char* span, uint64_t instr) {
      return t.mean_us(span) * 1e3 * static_cast<double>(t.count(span)) /
             static_cast<double>(std::max<uint64_t>(1, instr));
    };
    rep.metric("sim.reset_us", t.mean_us("sim.reset"), "us");
    rep.metric("sim.run_ms.baseline", t.mean_us("sim.run.baseline") * 1e-3, "ms");
    rep.metric("sim.run_ms.spu", t.mean_us("sim.run.spu") * 1e-3, "ms");
    rep.metric("sim.ns_per_instr.baseline",
               ns_per_instr("sim.run.baseline", instr_base), "ns");
    rep.metric("sim.ns_per_instr.spu", ns_per_instr("sim.run.spu", instr_spu),
               "ns");
    rep.metric("kernels.prepare_ms", t.mean_us("kernels.prepare") * 1e-3, "ms");
    rep.metric("core.orchestrate_ms", t.mean_us("core.orchestrate") * 1e-3,
               "ms");
    rep.metric("core.removed_permutations", removed, "count");
    emit_sim_counts(counts, rep);
  }
  return rep;
}

}  // namespace perfbench
