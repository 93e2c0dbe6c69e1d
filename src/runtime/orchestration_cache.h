// orchestration_cache.h — service-level amortization of SPU setup.
//
// The paper's economy is that a crossbar microprogram is expensive to set
// up once (the MMIO prologue) and nearly free per loop iteration. At
// service level the expensive step is one level up: the Orchestrator's
// provenance analysis and program rewriting (or the kernel's manual SPU
// program construction). This cache keys PreparedPrograms by
// (kernel id, problem size, crossbar config, orchestrator options, mode)
// and shares them across workers behind a shared mutex, so each unique
// configuration is orchestrated exactly once no matter how many requests
// replay it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "core/orchestrator.h"
#include "kernels/runner.h"
#include "runtime/history.h"
#include "runtime/planner.h"

namespace subword::runtime {

// Identity of one prepared configuration. CrossbarConfig carries only
// static data (geometry + modes flag), so its fields are the identity; the
// kernel is identified by registry name, the problem size by repeats.
struct OrchestrationKey {
  std::string kernel;
  int repeats = 1;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  bool use_spu = true;
  // Backend identity: a kNativeSwar preparation carries the lowered op
  // trace alongside the program, so it must never be shared with a
  // simulator preparation of the same shape — one entry per
  // (kernel, cfg, backend).
  kernels::ExecBackend backend = kernels::ExecBackend::kSimulator;
  // CrossbarConfig identity.
  int input_ports = 0;
  int output_ports = 0;
  int port_bits = 0;
  bool modes = false;
  // OrchestratorOptions identity (config is folded in above).
  int max_contexts = 8;
  uint64_t mmio_base = 0;
  bool orchestrate_empty_loops = false;
  // PipelineConfig identity (prepared programs embed the pipeline config).
  int mispredict_penalty = 4;
  int bht_entries = 1024;
  sim::PredictorKind bpred = sim::PredictorKind::LocalHistory;
  bool dual_issue = true;
  bool extra_spu_stage = false;
  uint64_t max_cycles = 1ull << 40;

  friend bool operator==(const OrchestrationKey& a,
                         const OrchestrationKey& b) {
    return a.kernel == b.kernel && a.repeats == b.repeats &&
           a.mode == b.mode && a.use_spu == b.use_spu &&
           a.backend == b.backend &&
           a.input_ports == b.input_ports &&
           a.output_ports == b.output_ports && a.port_bits == b.port_bits &&
           a.modes == b.modes && a.max_contexts == b.max_contexts &&
           a.mmio_base == b.mmio_base &&
           a.orchestrate_empty_loops == b.orchestrate_empty_loops &&
           a.mispredict_penalty == b.mispredict_penalty &&
           a.bht_entries == b.bht_entries && a.bpred == b.bpred &&
           a.dual_issue == b.dual_issue &&
           a.extra_spu_stage == b.extra_spu_stage &&
           a.max_cycles == b.max_cycles;
  }
};

struct OrchestrationKeyHash {
  size_t operator()(const OrchestrationKey& k) const {
    size_t h = std::hash<std::string>{}(k.kernel);
    auto mix = [&h](uint64_t v) {
      h ^= std::hash<uint64_t>{}(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    };
    mix(static_cast<uint64_t>(k.repeats));
    mix(static_cast<uint64_t>(k.mode) | (k.use_spu ? 0x100u : 0u) |
        (k.modes ? 0x200u : 0u) |
        (k.orchestrate_empty_loops ? 0x400u : 0u) |
        (k.dual_issue ? 0x800u : 0u) |
        (k.extra_spu_stage ? 0x1000u : 0u) |
        (static_cast<uint64_t>(k.backend) << 13));
    mix(k.max_cycles);
    mix(static_cast<uint64_t>(k.input_ports) |
        (static_cast<uint64_t>(k.output_ports) << 8) |
        (static_cast<uint64_t>(k.port_bits) << 16) |
        (static_cast<uint64_t>(k.max_contexts) << 24));
    mix(k.mmio_base);
    mix(static_cast<uint64_t>(k.mispredict_penalty) |
        (static_cast<uint64_t>(k.bht_entries) << 16) |
        (static_cast<uint64_t>(k.bpred) << 48));
    return h;
  }
};

// Identity of one planning decision. Planning is a pure function of the
// kernel, the problem size and the planner options, so two sessions
// sharing a cache resolve the same PlanKey to one stored Plan — the
// planner's 4-config provenance dry-run happens once per unique request
// shape no matter how many sessions ask.
struct PlanKey {
  std::string kernel;
  int repeats = 1;
  // PlanOptions identity (budget + search space + pinned backend).
  double area_budget_mm2 = 0;  // 0 = unconstrained
  double max_delay_ns = 0;     // 0 = unconstrained
  bool allow_manual = true;
  int pinned_backend = -1;     // -1: planner picks; else ExecBackend value

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    size_t h = std::hash<std::string>{}(k.kernel);
    auto mix = [&h](uint64_t v) {
      h ^= std::hash<uint64_t>{}(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    };
    mix(static_cast<uint64_t>(k.repeats));
    mix(std::hash<double>{}(k.area_budget_mm2));
    mix(std::hash<double>{}(k.max_delay_ns));
    mix((k.allow_manual ? 1u : 0u) |
        (static_cast<uint64_t>(k.pinned_backend + 1) << 1));
    return h;
  }
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  // Planner-decision cache (PlanKey -> Plan), counted separately: a
  // planned job normally scores one plan hit plus one preparation hit.
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_entries = 0;
  // Contention audit: total time callers spent *acquiring* mu_ inside
  // get_or_prepare/get_or_plan (shared and exclusive passes). On an idle
  // cache this is nanoseconds per lookup; a large value against small
  // hits+misses means the shared_mutex hot path is what flattens worker
  // scaling (see bench_runtime_throughput's worker sweep).
  uint64_t lock_wait_ns = 0;
  // The cycle memo (runtime/history.h): distinct shapes simulated, and the
  // epoch cached plans are validated against. plan_misses includes
  // epoch-driven re-plans, so a growing memo shows up as extra misses
  // here, not as silently stale decisions.
  uint64_t history_entries = 0;
  uint64_t history_epoch = 0;

  [[nodiscard]] double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class OrchestrationCache {
 public:
  using Factory = std::function<kernels::PreparedProgram()>;

  // Returns the cached PreparedProgram for `key`, invoking `factory`
  // exactly once per unique key across all threads (later callers block on
  // the in-flight preparation rather than duplicating it). If the factory
  // throws, the error propagates to every waiter of that preparation and
  // the entry is discarded so a retry is possible.
  [[nodiscard]] std::shared_ptr<const kernels::PreparedProgram> get_or_prepare(
      const OrchestrationKey& key, const Factory& factory);

  // Lookup without preparing; nullptr when absent (counts as neither hit
  // nor miss).
  [[nodiscard]] std::shared_ptr<const kernels::PreparedProgram> peek(
      const OrchestrationKey& key) const;

  using PlanFactory = std::function<Plan()>;

  // The planning analogue of get_or_prepare: resolves `key` to a stored
  // planner decision, invoking `factory` exactly once per unique key
  // across all threads and sessions sharing this cache — per history
  // epoch: a stored decision computed before the cycle memo's epoch
  // advanced (a new shape was simulated) is stale and the factory re-runs,
  // which is how measurements reach plans that were memoized cold. Errors
  // propagate to the caller; the stored decision (if any) is kept for the
  // next attempt.
  [[nodiscard]] std::shared_ptr<const Plan> get_or_plan(
      const PlanKey& key, const PlanFactory& factory);

  // Exact cycle memo shared by every engine on this cache. The engine
  // records default-pipeline simulator runs into it; the planner reads it
  // through PlanOptions::history.
  [[nodiscard]] HistoryTable& history() { return history_; }
  [[nodiscard]] const HistoryTable& history() const { return history_; }

  [[nodiscard]] CacheStats stats() const;

  void clear();

 private:
  struct Entry {
    std::once_flag once;
    // Written inside call_once; readers must have passed the same call_once
    // (which provides the happens-before edge).
    std::shared_ptr<const kernels::PreparedProgram> prepared;
    std::exception_ptr error;
    // Mirror of `prepared` written under mu_ after the preparation
    // completes — the only member peek() may read.
    std::shared_ptr<const kernels::PreparedProgram> published;
  };

  // Unlike Entry, plan memoization is epoch-scoped, so once_flag (one shot
  // ever) cannot express it: the entry mutex serializes (re)planning per
  // key while concurrent fresh readers share the stored decision.
  struct PlanEntry {
    std::mutex mu;
    std::shared_ptr<const Plan> plan;  // null until first success
    uint64_t epoch = 0;                // history epoch `plan` was computed at
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<OrchestrationKey, std::shared_ptr<Entry>,
                     OrchestrationKeyHash>
      map_;
  std::unordered_map<PlanKey, std::shared_ptr<PlanEntry>, PlanKeyHash>
      plans_;
  HistoryTable history_;
  // Atomic so the hot hit path never takes the exclusive lock.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};
  std::atomic<uint64_t> lock_wait_ns_{0};
};

// Key for a job as the batch engine prepares it.
[[nodiscard]] OrchestrationKey make_key(
    const std::string& kernel, int repeats, kernels::SpuMode mode,
    bool use_spu, const core::CrossbarConfig& cfg,
    const core::OrchestratorOptions& opts, const sim::PipelineConfig& pc,
    kernels::ExecBackend backend = kernels::ExecBackend::kSimulator);

}  // namespace subword::runtime
