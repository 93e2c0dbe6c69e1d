// layers.h — per-layer replicas for the traced run.
//
// The program has no spans of its own yet, so the traced run times the
// kernels, backend, core and sim layers by calling their public functions
// in the same order the runner does (kernels::execute_native,
// kernels::execute_prepared, the engine's prepare half), on the workload's
// own inputs, with a span around each call. The phase-sum check compares
// the replicated native sequence against whole execute_native calls on the
// same tiles, so the replica cannot silently drift from the runner.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "kernels/runner.h"
#include "runtime/batch_engine.h"
#include "sim/machine.h"

namespace perfbench {

// The registry's capability probes (has_manual_spu and native_backend of
// every kernel), which every workload's set-up pays once. On a traced run
// their time is reported as kernels.registry_probe_ms.
void probe_registry(const Options& opts, Report& rep);

// runtime.queue_wait_us and runtime.cache_lock_wait_us per job completed
// between `before` and `after`, and runtime.queue_peak_depth at `after`.
void emit_engine_deltas(const subword::runtime::EngineStats& before,
                        const subword::runtime::EngineStats& after,
                        Report& rep);

// Short metric suffix of a registry kernel ("Color Convert" -> "cc").
[[nodiscard]] std::string kernel_slug(const std::string& kernel);

// Replay `iterations` executions of the natively-lowered `p` phase by phase
// (arena clear, init_memory, bind_input, trace, verify, copy-back), each
// followed by one whole execute_native call on the same input, checking
// both outputs against `expected`. Emits kernels.<phase>_us.<slug>,
// backend.trace_us/trace_ops/ns_per_op.<slug> and
// kernels.execute_native_us.<slug>. Returns the relative deviation of the
// median phase sum from the median whole call, in percent; beyond
// kPhaseSumTolerancePct
// the replica no longer matches the runner and the run fails.
inline constexpr double kPhaseSumTolerancePct = 10.0;
double native_phases(const subword::kernels::MediaKernel& k,
                     const subword::kernels::PreparedProgram& p,
                     const std::vector<std::vector<uint8_t>>& inputs,
                     const std::vector<std::vector<uint8_t>>& expected,
                     int iterations, Tracer& t, Report& rep);

// One simulator execution replayed the way execute_prepared runs it
// (reset, SPU attach, init_memory, bind_input, run, verify) on `m`, with
// spans sim.reset, sim.init, `run_span` and sim.verify. Returns the
// machine's statistics; a failed verification is reported to `rep`.
subword::sim::RunStats sim_replica(const subword::kernels::MediaKernel& k,
                                   const subword::kernels::PreparedProgram& p,
                                   std::span<const uint8_t> input,
                                   subword::sim::Machine& m,
                                   const std::string& run_span, Tracer& t,
                                   Report& rep);

// The prepare half of one shape, step by step: Orchestrator::run (auto
// shapes), prepare_* and lower_native (native shapes), with spans
// core.orchestrate, kernels.prepare and backend.lower. Returns the
// orchestrator's removed permutations (0 for non-auto shapes).
int prepare_replica(const subword::kernels::MediaKernel& k, int repeats,
                    bool use_spu, subword::kernels::SpuMode mode,
                    const subword::core::CrossbarConfig& cfg, bool native,
                    Tracer& t);

// Exact simulator counters (sim.cycles, sim.instructions, ...).
void emit_sim_counts(const subword::sim::RunStats& s, Report& rep);

// Mean ns of one HistoryTable::record over the given shapes.
double history_record_ns(const std::vector<std::string>& kernels);

}  // namespace perfbench
