// history.h — the exact cycle memo: the measurement half of the planner
// (docs/PLANNER.md).
//
// The planner prices candidates with the paper's static Table-1 cost model,
// which is deliberately optimistic (the manual-variant estimate is a
// static-fraction heuristic and mispredict costs are ignored entirely).
// This table corrects it with what the simulator actually charged. A
// simulator run's cycle count is a pure function of its shape — every
// registry kernel lowers to the native backend, so none has data-dependent
// control flow, and tests/test_registry_property.cpp pins one cycle count
// per shape across inputs — so one run *is* the answer, not a sample of it.
// The table is therefore a write-once map from shape
// (kernel, repeats, use_spu, mode, crossbar config) to exact cycles:
//
//  * record() keeps only simulator keys. A native run measures wall-clock
//    time, which is neither exact nor in the model's unit.
//  * The first value recorded for a key wins; later records of the same
//    key write nothing.
//  * Inserting a new key advances epoch(). OrchestrationCache stamps each
//    memoized plan with the epoch it was computed at and re-derives it
//    when the epoch moves, which is how a new measurement reaches a plan
//    that was memoized cold.
//
// The caller decides what counts as the planner's machine: BatchEngine
// records only runs on the default pipeline and orchestrator options, the
// configuration plan_kernel() plans for.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "core/crossbar.h"
#include "kernels/runner.h"

namespace subword::runtime {

// Where a plan's decision variable came from. Ordered: a comparison is only
// as measured as its least-measured side. The values are wire bytes; 1 is
// retired and never produced.
enum class ScoreSource : uint8_t {
  kModel = 0,     // Table-1 estimate: a side of the comparison is unmeasured
  kMeasured = 2,  // exact simulator cycles on both sides
};

[[nodiscard]] constexpr const char* to_string(ScoreSource s) {
  switch (s) {
    case ScoreSource::kModel: return "model";
    case ScoreSource::kMeasured: return "measured";
  }
  return "unknown";
}

// Identity of one execution shape. Normalized like OrchestrationKey:
// baseline shapes ignore mode and crossbar entirely, so equivalent
// executions share one entry.
struct HistoryKey {
  std::string kernel;
  int repeats = 1;
  bool use_spu = false;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  // Only kSimulator keys are ever stored (see record()).
  kernels::ExecBackend backend = kernels::ExecBackend::kSimulator;
  // CrossbarConfig identity (zeroed for baseline).
  int input_ports = 0;
  int output_ports = 0;
  int port_bits = 0;
  bool modes = false;

  friend bool operator==(const HistoryKey&, const HistoryKey&) = default;

  [[nodiscard]] static HistoryKey from_shape(const std::string& kernel,
                                             int repeats, bool use_spu,
                                             kernels::SpuMode mode,
                                             const core::CrossbarConfig& cfg,
                                             kernels::ExecBackend backend);
};

struct HistoryKeyHash {
  size_t operator()(const HistoryKey& k) const {
    size_t h = std::hash<std::string>{}(k.kernel);
    auto mix = [&h](uint64_t v) {
      h ^= std::hash<uint64_t>{}(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    };
    mix(static_cast<uint64_t>(k.repeats));
    mix((k.use_spu ? 1u : 0u) | (k.modes ? 2u : 0u) |
        (static_cast<uint64_t>(k.mode) << 2) |
        (static_cast<uint64_t>(k.backend) << 4));
    mix(static_cast<uint64_t>(k.input_ports) |
        (static_cast<uint64_t>(k.output_ports) << 8) |
        (static_cast<uint64_t>(k.port_bits) << 16));
    return h;
  }
};

class HistoryTable {
 public:
  // Memoize `cycles` as the exact cost of `key`. Ignores non-simulator
  // keys; a key already present keeps its first value (a shared-lock
  // lookup, no write).
  void record(const HistoryKey& key, double cycles);

  // The memoized cycles, or nullopt for a shape never simulated.
  [[nodiscard]] std::optional<uint64_t> lookup(const HistoryKey& key) const;

  // Advances once per inserted key (and on clear()). Cached planning
  // decisions stamp the epoch they were computed at and recompute when it
  // moves.
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  [[nodiscard]] size_t size() const;

  void clear();

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<HistoryKey, uint64_t, HistoryKeyHash> map_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace subword::runtime
