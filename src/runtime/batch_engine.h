// batch_engine.h — thread-pooled batch execution of kernel jobs.
//
// Accepts queues of jobs ({kernel, size, repeats, crossbar config, mode}),
// runs them on per-worker sim::Machine instances (reset between jobs, not
// reallocated), and returns aggregated KernelRun stats. Preparation —
// program construction and orchestrator analysis — goes through a shared
// OrchestrationCache, so the expensive half runs once per unique
// configuration regardless of request volume or worker count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kernels/runner.h"
#include "runtime/orchestration_cache.h"

namespace subword::runtime {

// One request: which kernel, how big, how often, on which hardware shape.
struct KernelJob {
  std::string kernel;           // registry name (see kernels/registry.h)
  int repeats = 1;              // problem size knob
  bool use_spu = true;          // false: baseline MMX run
  kernels::SpuMode mode = kernels::SpuMode::Auto;
  // Which executor replays the prepared program. kNativeSwar runs the
  // pre-decoded host-SWAR trace (bit-identical outputs, no cycle stats);
  // jobs whose program the lowering rejects fail with
  // JobErrorKind::kBackendUnsupported.
  kernels::ExecBackend backend = kernels::ExecBackend::kSimulator;
  core::CrossbarConfig cfg = core::kConfigA;
  core::OrchestratorOptions opts{};  // Auto path; opts.config is overridden
  sim::PipelineConfig pc{};
  // Planner-driven job: the engine resolves {use_spu, mode, cfg, backend}
  // through runtime::plan_kernel (decision cached under PlanKey) before
  // preparing, ignoring the fixed-config knobs above. When backend_pinned
  // the caller's `backend` is kept and only config/mode are planned.
  bool plan = false;
  double area_budget_mm2 = 0;  // planner budgets; 0 = unconstrained
  double max_delay_ns = 0;
  bool backend_pinned = false;
  // User-owned buffers (see kernels/kernel.h). The spans view caller
  // memory that MUST stay alive until the job's future resolves; buffers
  // never affect preparation, so they are not part of the cache key.
  kernels::BufferBinding buffers{};
};

// Why a job produced no result. The engine never throws at the submission
// boundary — every outcome is delivered through the future, which is what
// the api:: facade converts into its Result/ApiError convention.
enum class JobErrorKind {
  kNone,                 // ok
  kRejected,             // submitted after shutdown; never entered the queue
  kCancelled,            // dropped by cancel() while still queued
  kFailed,               // preparation or execution failed (error has details)
  kBackendUnsupported,   // native lowering rejected the program
  kOverloaded,           // shed by admission control (shed_* thresholds)
};

struct JobResult {
  kernels::KernelRun run;
  bool ok = false;              // false: `kind`/`error` explain
  JobErrorKind kind = JobErrorKind::kNone;
  std::string error;
  bool cache_hit = false;       // preparation came from the cache
  uint64_t prepare_ns = 0;      // planning + time spent in get_or_prepare
  uint64_t execute_ns = 0;      // time spent simulating
  int worker = -1;              // which worker executed the job
  // For planner-driven jobs: what was chosen and why (aliases into the
  // cached Plan, so sharing it across results is free). Null otherwise.
  std::shared_ptr<const PlanSummary> plan;
};

// Aggregate view over a finished batch (or the engine's lifetime).
struct EngineStats {
  uint64_t jobs_submitted = 0;
  uint64_t jobs_completed = 0;
  uint64_t jobs_failed = 0;
  uint64_t jobs_rejected = 0;   // submit() after shutdown
  uint64_t cycles_simulated = 0;
  uint64_t instructions_retired = 0;
  // -- Contention audit (what flattens worker scaling, and where) ----------
  // Time jobs spent queued (enqueue -> dequeue, summed): rises with load
  // or with too few workers. queue_peak_depth is the deepest the single
  // queue ever got; submit_block_ns is time submitters spent blocked on a
  // full bounded queue (queue_capacity > 0 only — backpressure, not a
  // failure). scratch_*_allocs count per-worker Machine/arena
  // constructions: they must plateau at the worker count, anything more
  // means the reset-not-reallocate economy broke.
  uint64_t queue_wait_ns = 0;
  uint64_t queue_peak_depth = 0;
  uint64_t submit_block_ns = 0;
  // Jobs rejected by admission control (shed_queue_depth /
  // shed_max_block_ns) with JobErrorKind::kOverloaded. Shed jobs never
  // enter the queue and are not counted as submitted.
  uint64_t jobs_shed = 0;
  uint64_t scratch_machine_allocs = 0;
  uint64_t scratch_arena_allocs = 0;
  CacheStats cache;
};

struct BatchEngineOptions {
  int workers = 0;  // 0: hardware_concurrency (at least 1)
  // Bounds the job queue: submit() blocks (backpressure) while
  // `queue_capacity` jobs are already waiting, instead of growing the
  // queue without limit. 0: unbounded. Shutdown wakes blocked submitters,
  // whose jobs then resolve as rejected.
  int queue_capacity = 0;
  // Shared cache; when null the engine owns a private one. Sharing one
  // cache across engines models several service replicas amortizing the
  // same orchestrations.
  std::shared_ptr<OrchestrationCache> cache;
  // -- Admission control (load shedding) ------------------------------------
  // When nonzero, a submission that finds `shed_queue_depth` jobs already
  // queued is rejected immediately with JobErrorKind::kOverloaded instead
  // of growing the queue (or blocking on a full bounded one). This is what
  // lets a serving layer fail fast under overload rather than stalling its
  // sockets on backpressure.
  int shed_queue_depth = 0;
  // With a bounded queue (queue_capacity > 0): the longest one submission
  // may block on backpressure before being shed with kOverloaded.
  // 0: block indefinitely (PR-6 behaviour). Shed-or-not is decided per
  // submission, so blocked time stays bounded and observable
  // (EngineStats::submit_block_ns still accumulates the time spent).
  uint64_t shed_max_block_ns = 0;
};

class BatchEngine {
 public:
  using Options = BatchEngineOptions;

  explicit BatchEngine(Options opts = {});
  // Drains gracefully: equivalent to shutdown().
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // Enqueue one job. Never throws for lifecycle reasons: after shutdown()
  // began the returned future resolves immediately with ok=false and
  // kind=JobErrorKind::kRejected.
  std::future<JobResult> submit(KernelJob job);

  // Convenience: submit everything, wait for everything, preserve order.
  [[nodiscard]] std::vector<JobResult> run_batch(std::vector<KernelJob> jobs);

  // Stop accepting new jobs, finish every job already queued or in flight,
  // join the workers. Idempotent; called by the destructor.
  void shutdown();

  // Stop accepting new jobs and discard the still-queued ones (their
  // futures resolve with ok=false, error="cancelled"); in-flight jobs
  // complete. Joins the workers.
  void cancel();

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  // Live queue depth, readable without taking the queue mutex: an atomic
  // snapshot maintained at every push/pop. This is what admission-control
  // policies poll per request — EngineStats::queue_peak_depth is only the
  // after-the-fact high-water mark, and stats() costs a mutex round trip.
  // The value may be momentarily stale (a concurrent push/pop), never torn.
  [[nodiscard]] size_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const OrchestrationCache& cache() const { return *cache_; }
  [[nodiscard]] std::shared_ptr<OrchestrationCache> shared_cache() const {
    return cache_;
  }
  [[nodiscard]] EngineStats stats() const;

 private:
  struct Task {
    KernelJob job;
    std::promise<JobResult> promise;
    uint64_t enqueue_ns = 0;  // queue-wait accounting
  };

  // Per-worker reusable execution state: the simulator's Machine and the
  // native backend's arena, both reset between jobs, never reallocated.
  struct WorkerScratch {
    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<sim::Memory> arena;
  };

  void worker_loop(int worker_id);
  [[nodiscard]] JobResult run_job(const KernelJob& job, int worker_id,
                                  WorkerScratch& scratch);
  void finish(Task&& task, JobResult&& result);

  std::shared_ptr<OrchestrationCache> cache_;
  std::vector<std::thread> threads_;
  size_t queue_capacity_ = 0;    // 0: unbounded
  size_t shed_queue_depth_ = 0;  // 0: no depth-based shedding
  uint64_t shed_max_block_ns_ = 0;  // 0: block without limit

  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers: work available / draining
  std::condition_variable cv_space_;  // submitters: bounded queue has room
  std::deque<Task> queue_;
  bool accepting_ = true;
  bool draining_ = false;   // workers exit once the queue empties
  bool joined_ = false;

  // Aggregates (guarded by mu_). Scratch-allocation counters are updated
  // lock-free from inside run_job, so they live outside agg_ as atomics
  // and are folded into the snapshot by stats().
  EngineStats agg_;
  std::atomic<size_t> queue_depth_{0};  // mirrors queue_.size()
  std::atomic<uint64_t> scratch_machine_allocs_{0};
  std::atomic<uint64_t> scratch_arena_allocs_{0};
};

}  // namespace subword::runtime
