#include "layers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "backend/native.h"
#include "core/mmio.h"
#include "core/orchestrator.h"
#include "core/spu.h"
#include "kernels/registry.h"
#include "runtime/history.h"

namespace perfbench {

using namespace subword;

void probe_registry(const Options& opts, Report& rep) {
  const int64_t t0 = now_ns();
  for (const auto& info : kernels::kernel_infos()) {
    (void)info.has_manual_spu();
    (void)info.native_backend();
  }
  if (opts.trace) {
    rep.metric("kernels.registry_probe_ms",
               static_cast<double>(now_ns() - t0) * 1e-6, "ms");
  }
}

void emit_engine_deltas(const runtime::EngineStats& before,
                        const runtime::EngineStats& after, Report& rep) {
  const double jobs = static_cast<double>(
      std::max<uint64_t>(1, after.jobs_completed - before.jobs_completed));
  rep.metric("runtime.queue_wait_us",
             static_cast<double>(after.queue_wait_ns - before.queue_wait_ns) *
                 1e-3 / jobs,
             "us");
  rep.metric("runtime.queue_peak_depth",
             static_cast<double>(after.queue_peak_depth), "count");
  rep.metric("runtime.cache_lock_wait_us",
             static_cast<double>(after.cache.lock_wait_ns -
                                 before.cache.lock_wait_ns) *
                 1e-3 / jobs,
             "us");
}

std::string kernel_slug(const std::string& kernel) {
  if (kernel == "Color Convert") return "cc";
  if (kernel == "2D Convolution") return "conv2d";
  if (kernel == "Motion Estimation") return "me";
  std::string s;
  for (const char c : kernel) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return s;
}

double native_phases(const kernels::MediaKernel& k,
                     const kernels::PreparedProgram& p,
                     const std::vector<std::vector<uint8_t>>& inputs,
                     const std::vector<std::vector<uint8_t>>& expected,
                     int iterations, Tracer& t, Report& rep) {
  static constexpr std::array<const char*, 6> kPhases = {
      "kernels.arena_clear", "kernels.init_memory", "kernels.bind_input",
      "backend.trace",       "kernels.verify",      "kernels.copy_back"};
  const std::string s = "." + kernel_slug(k.name());
  const auto spec = k.buffer_spec();
  sim::Memory mem(kernels::kMemBytes);
  std::vector<uint8_t> out(spec.output_bytes);
  std::vector<double> phases_ns;
  std::vector<double> whole_ns;
  for (int i = 0; i < iterations; ++i) {
    const size_t which = static_cast<size_t>(i) % inputs.size();
    const std::span<const uint8_t> in(inputs[which]);
    const auto req = static_cast<uint64_t>(i);

    // The sequence execute_native runs, one timestamp between phases;
    // spans are appended afterwards so recording costs no phase time.
    std::array<int64_t, kPhases.size() + 1> ts{};
    ts[0] = now_ns();
    mem.clear();
    mem.unmap_device();
    ts[1] = now_ns();
    k.init_memory(mem);
    ts[2] = now_ns();
    k.bind_input(mem, in);
    ts[3] = now_ns();
    backend::NativeState st;
    st.mem = &mem;
    backend::run_trace(*p.native, st);
    ts[4] = now_ns();
    const bool verified = k.verify_bound(mem, in);
    ts[5] = now_ns();
    const auto bytes =
        mem.read_vector<uint8_t>(spec.output_addr, spec.output_bytes);
    std::copy(bytes.begin(), bytes.end(), out.begin());
    ts[6] = now_ns();
    const int64_t root = t.add("kernels.replica" + s, ts[0], ts[6], -1, req);
    for (size_t ph = 0; ph < kPhases.size(); ++ph) {
      t.add(kPhases[ph] + s, ts[ph], ts[ph + 1], root, req);
    }
    phases_ns.push_back(static_cast<double>(ts[6] - ts[0]));
    if (!verified || out != expected[which]) {
      rep.fail(k.name() + " phase replica output diverged");
    }

    kernels::BufferBinding binding{in, std::span<uint8_t>(out)};
    const int64_t w0 = now_ns();
    const auto run = kernels::execute_native(k, p, &mem, &binding);
    const int64_t w1 = now_ns();
    t.add("kernels.execute_native" + s, w0, w1, -1, req);
    whole_ns.push_back(static_cast<double>(w1 - w0));
    if (!run.verified || out != expected[which]) {
      rep.fail(k.name() + " execute_native output diverged");
    }
  }

  rep.metric("kernels.arena_clear_us" + s, t.mean_us("kernels.arena_clear" + s),
             "us");
  rep.metric("kernels.init_memory_us" + s,
             t.mean_us("kernels.init_memory" + s), "us");
  rep.metric("kernels.bind_input_us" + s, t.mean_us("kernels.bind_input" + s),
             "us");
  rep.metric("kernels.verify_us" + s, t.mean_us("kernels.verify" + s), "us");
  rep.metric("kernels.copy_back_us" + s, t.mean_us("kernels.copy_back" + s),
             "us");
  rep.metric("kernels.execute_native_us" + s,
             t.mean_us("kernels.execute_native" + s), "us");
  const double trace_us = t.mean_us("backend.trace" + s);
  const auto ops = static_cast<double>(p.native->ops.size());
  rep.metric("backend.trace_us" + s, trace_us, "us");
  rep.metric("backend.trace_ops" + s, ops, "count");
  rep.metric("backend.ns_per_op" + s, ops > 0 ? trace_us * 1e3 / ops : 0,
             "ns");
  // Medians, not means: one preemption of the process inside a single
  // iteration would otherwise move the sum by far more than any drift.
  const double phases = percentile(phases_ns, 50);
  const double whole = percentile(whole_ns, 50);
  const double err = whole > 0 ? 100.0 * (phases - whole) / whole : 0.0;
  if (std::abs(err) > kPhaseSumTolerancePct) {
    rep.fail(k.name() + " phase sum is " + std::to_string(err) +
             "% off one whole execute_native call");
  }
  return err;
}

sim::RunStats sim_replica(const kernels::MediaKernel& k,
                          const kernels::PreparedProgram& p,
                          std::span<const uint8_t> input, sim::Machine& m,
                          const std::string& run_span, Tracer& t,
                          Report& rep) {
  const int64_t t0 = now_ns();
  m.reset(p.program, p.pc);
  const int64_t t1 = now_ns();
  std::optional<core::Spu> spu;
  std::optional<core::SpuMmio> mmio;
  if (p.use_spu) {
    spu.emplace(p.cfg, p.num_contexts);
    mmio.emplace(&*spu);
    m.memory().map_device(p.mmio_base, core::SpuMmio::kWindowSize, &*mmio);
    m.set_router(&*spu);
  }
  k.init_memory(m.memory());
  if (!input.empty()) k.bind_input(m.memory(), input);
  const int64_t t2 = now_ns();
  const sim::RunStats stats = m.run();
  const int64_t t3 = now_ns();
  const bool verified = input.empty() ? k.verify(m.memory())
                                      : k.verify_bound(m.memory(), input);
  const int64_t t4 = now_ns();
  m.set_router(nullptr);
  m.memory().unmap_device();
  const int64_t root = t.add("sim.replica", t0, t4);
  t.add("sim.reset", t0, t1, root);
  t.add("sim.init", t1, t2, root);
  t.add(run_span, t2, t3, root);
  t.add("sim.verify", t3, t4, root);
  if (!verified) rep.fail(k.name() + " simulator replica failed verification");
  return stats;
}

int prepare_replica(const kernels::MediaKernel& k, int repeats, bool use_spu,
                    kernels::SpuMode mode, const core::CrossbarConfig& cfg,
                    bool native, Tracer& t) {
  int removed = 0;
  if (use_spu && mode == kernels::SpuMode::Auto) {
    const isa::Program mmx = k.build_mmx(repeats);
    core::OrchestratorOptions o;
    o.config = cfg;
    const int64_t a = now_ns();
    const auto result = core::Orchestrator(o).run(mmx);
    t.add("core.orchestrate", a, now_ns());
    removed = core::summarize(result).removed_static;
  }
  const int64_t a = now_ns();
  auto p = use_spu ? kernels::prepare_spu(k, repeats, cfg, mode)
                   : kernels::prepare_baseline(k, repeats);
  const int64_t b = now_ns();
  t.add("kernels.prepare", a, b);
  if (native) {
    kernels::lower_native(k, p);
    t.add("backend.lower", b, now_ns());
  }
  return removed;
}

void emit_sim_counts(const sim::RunStats& s, Report& rep) {
  rep.metric("sim.cycles", static_cast<double>(s.cycles), "cycles");
  rep.metric("sim.instructions", static_cast<double>(s.instructions), "count");
  rep.metric("sim.stall_cycles", static_cast<double>(s.stall_cycles),
             "cycles");
  rep.metric("sim.branch_mispredicts",
             static_cast<double>(s.branch_mispredicts), "count");
  rep.metric("sim.dual_issue_cycles", static_cast<double>(s.dual_issue_cycles),
             "cycles");
  rep.metric("sim.spu_routed_ops", static_cast<double>(s.spu_routed_ops),
             "count");
}

double history_record_ns(const std::vector<std::string>& kernels) {
  runtime::HistoryTable table;
  std::vector<runtime::HistoryKey> keys;
  for (const auto& k : kernels) {
    for (const bool spu : {false, true}) {
      keys.push_back(runtime::HistoryKey::from_shape(
          k, 1, spu, kernels::SpuMode::Auto, core::kConfigD,
          kernels::ExecBackend::kNativeSwar));
    }
  }
  constexpr int kRecords = 20000;
  const int64_t t0 = now_ns();
  for (int i = 0; i < kRecords; ++i) {
    table.record(keys[static_cast<size_t>(i) % keys.size()],
                 50000.0 + static_cast<double>(i % 7));
  }
  return static_cast<double>(now_ns() - t0) / kRecords;
}

}  // namespace perfbench
