// history.h — observed-execution history: the measurement half of the
// feedback planner (docs/PLANNER.md).
//
// The PR-5 planner prices candidates with the paper's static Table-1 cost
// model and is deliberately optimistic — the manual-variant estimate is a
// static-fraction heuristic and mispredict costs are ignored entirely.
// This table closes the loop: BatchEngine::run_job records what each
// executed shape actually cost — simulator cycles, or wall-ns on the
// cycle-less native backend — keyed by
// (kernel, repeats, use_spu, mode, crossbar config, backend), and the
// planner blends those observations into its scores once enough samples
// accumulate (model-only below kHistoryMinSamples, measured-dominant at
// kHistoryFullSamples, linearly blended between).
//
// Concurrency contract: record() takes a per-key writer mutex (recordings
// of *different* keys never contend); lookup() is lock-free — each cell is
// a seqlock whose payload fields are individually atomic (relaxed) under
// an acquire/release sequence counter, so readers on the planning path
// never block a recording worker and TSan sees no race. The aggregate is
// Welford's (count, mean, M2), numerically stable at any sample count.
//
// Drift: every sample also enters a rolling window of kHistoryDriftWindow
// recent samples. When the window fills, its mean is compared against the
// full aggregate's; a relative deviation beyond kHistoryDriftTolerance
// means the workload's cost regime moved (e.g. a pipeline-config change
// upstream), so the aggregate is *reset to the window* — stale history
// must not outvote fresh measurements — and the table's epoch advances.
// The epoch also advances when a key crosses a sample threshold, which is
// what lets OrchestrationCache re-run memoized planning decisions exactly
// when new history could change them (see get_or_plan).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "core/crossbar.h"
#include "kernels/runner.h"

namespace subword::runtime {

// How much of a plan's decision variable came from measurement. Ordered:
// a comparison is only as measured as its least-measured side.
enum class ScoreSource : uint8_t {
  kModel = 0,     // pure Table-1 estimate (cold history)
  kBlended = 1,   // estimate + partial history (>= kHistoryMinSamples)
  kMeasured = 2,  // observed means dominate (>= kHistoryFullSamples)
};

[[nodiscard]] constexpr const char* to_string(ScoreSource s) {
  switch (s) {
    case ScoreSource::kModel: return "model";
    case ScoreSource::kBlended: return "blended";
    case ScoreSource::kMeasured: return "measured";
  }
  return "unknown";
}

// Sample thresholds for the blend weight w = n / kHistoryFullSamples
// (clamped to [0,1]; w forced to 0 below kHistoryMinSamples): one or two
// samples are too noisy to move a decision, eight of a deterministic
// simulator are definitive.
inline constexpr uint64_t kHistoryMinSamples = 3;
inline constexpr uint64_t kHistoryFullSamples = 8;
// Drift detection: recent-window length and the relative deviation of the
// window mean from the aggregate mean that invalidates the aggregate.
inline constexpr uint64_t kHistoryDriftWindow = 8;
inline constexpr double kHistoryDriftTolerance = 0.25;

// Identity of one observed execution shape. Normalized like
// OrchestrationKey: baseline shapes ignore mode and crossbar entirely, so
// equivalent executions aggregate into one entry.
struct HistoryKey {
  std::string kernel;
  int repeats = 1;
  bool use_spu = false;
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  // Unit discipline: a kSimulator entry aggregates cycle counts, a
  // kNativeSwar entry aggregates wall-ns. Keying by backend keeps the two
  // from ever mixing in one mean.
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

// One key's aggregate, as lookup() snapshots it.
struct HistoryStats {
  uint64_t count = 0;
  double mean = 0;      // cycles (sim) or wall-ns (native) per execution
  double variance = 0;  // sample variance (Welford M2 / (count - 1))
  // Largest relative |window mean - aggregate mean| ever seen for this
  // key, including deviations below the invalidation tolerance: how close
  // this key has come to drifting.
  double drift_watermark = 0;
  uint64_t invalidations = 0;  // drift resets this key has suffered

  [[nodiscard]] ScoreSource regime() const {
    if (count >= kHistoryFullSamples) return ScoreSource::kMeasured;
    if (count >= kHistoryMinSamples) return ScoreSource::kBlended;
    return ScoreSource::kModel;
  }
};

class HistoryTable {
 public:
  // Fold one observation into `key`'s aggregate (creating the entry on
  // first use). Serializes only with concurrent record()s of the same key.
  void record(const HistoryKey& key, double value);

  // Lock-free consistent snapshot; nullopt for a key with no completed
  // record() yet.
  [[nodiscard]] std::optional<HistoryStats> lookup(
      const HistoryKey& key) const;

  // Monotonic counter advanced whenever new history could change a plan:
  // a key crossing kHistoryMinSamples or kHistoryFullSamples, or a drift
  // invalidation. Cached planning decisions stamp the epoch they were
  // computed at and recompute when it moves.
  [[nodiscard]] uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  [[nodiscard]] size_t size() const;
  [[nodiscard]] uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  void clear();

 private:
  // Seqlock cell. Payload fields are individually atomic so a racing read
  // is data-race-free even mid-write; the sequence counter (odd while a
  // write is in flight) makes the snapshot *consistent*. The writer mutex
  // serializes recorders of one key; the drift window is only ever touched
  // under it, so its storage is plain.
  struct Cell {
    std::mutex writer;
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> count{0};
    std::atomic<double> mean{0};
    std::atomic<double> m2{0};
    std::atomic<double> drift_watermark{0};
    std::atomic<uint64_t> invalidations{0};
    // Rolling recent-sample window (writer-mutex-only state).
    double window[kHistoryDriftWindow] = {};
    uint64_t window_fill = 0;
  };

  [[nodiscard]] std::shared_ptr<Cell> cell_for(const HistoryKey& key);

  mutable std::shared_mutex map_mu_;  // guards the map, never the cells
  std::unordered_map<HistoryKey, std::shared_ptr<Cell>, HistoryKeyHash> map_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace subword::runtime
