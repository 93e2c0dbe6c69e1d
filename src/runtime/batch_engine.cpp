#include "runtime/batch_engine.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "backend/lowering.h"
#include "kernels/registry.h"

namespace subword::runtime {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

BatchEngine::BatchEngine(Options opts) {
  cache_ = opts.cache ? std::move(opts.cache)
                      : std::make_shared<OrchestrationCache>();
  queue_capacity_ =
      opts.queue_capacity > 0 ? static_cast<size_t>(opts.queue_capacity) : 0;
  shed_queue_depth_ =
      opts.shed_queue_depth > 0 ? static_cast<size_t>(opts.shed_queue_depth)
                                : 0;
  shed_max_block_ns_ = opts.shed_max_block_ns;
  int n = opts.workers;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

BatchEngine::~BatchEngine() { shutdown(); }

std::future<JobResult> BatchEngine::submit(KernelJob job) {
  Task task;
  task.job = std::move(job);
  std::future<JobResult> fut = task.promise.get_future();
  {
    std::unique_lock lock(mu_);
    // Admission control: shed instead of queueing once the depth threshold
    // is crossed. Decided under the queue mutex, so the depth read cannot
    // race a concurrent push — the policy is exact, not advisory.
    if (accepting_ && shed_queue_depth_ != 0 &&
        queue_.size() >= shed_queue_depth_) {
      ++agg_.jobs_shed;
      JobResult r;
      r.ok = false;
      r.kind = JobErrorKind::kOverloaded;
      r.error = "shed: engine queue depth " + std::to_string(queue_.size()) +
                " >= shed threshold " + std::to_string(shed_queue_depth_);
      task.promise.set_value(std::move(r));
      return fut;
    }
    if (queue_capacity_ != 0 && accepting_ &&
        queue_.size() >= queue_capacity_) {
      // Bounded queue: block the submitter (backpressure) until a worker
      // makes room or shutdown begins. Workers never wait on submitters,
      // so this cannot deadlock a pipeline driver feeding the engine.
      // With shed_max_block_ns the wait is bounded: a submission that
      // would block longer is shed with kOverloaded instead.
      const uint64_t b0 = now_ns();
      const auto have_room = [this] {
        return !accepting_ || queue_.size() < queue_capacity_;
      };
      bool room = true;
      if (shed_max_block_ns_ != 0) {
        room = cv_space_.wait_for(
            lock, std::chrono::nanoseconds(shed_max_block_ns_), have_room);
      } else {
        cv_space_.wait(lock, have_room);
      }
      agg_.submit_block_ns += now_ns() - b0;
      if (!room) {
        ++agg_.jobs_shed;
        JobResult r;
        r.ok = false;
        r.kind = JobErrorKind::kOverloaded;
        r.error = "shed: blocked on a full queue (capacity " +
                  std::to_string(queue_capacity_) + ") longer than " +
                  std::to_string(shed_max_block_ns_) + " ns";
        task.promise.set_value(std::move(r));
        return fut;
      }
    }
    if (!accepting_) {
      ++agg_.jobs_rejected;
      JobResult r;
      r.ok = false;
      r.kind = JobErrorKind::kRejected;
      r.error = "submit after shutdown: engine is not accepting jobs";
      task.promise.set_value(std::move(r));
      return fut;
    }
    ++agg_.jobs_submitted;
    task.enqueue_ns = now_ns();
    queue_.push_back(std::move(task));
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    agg_.queue_peak_depth =
        std::max(agg_.queue_peak_depth, static_cast<uint64_t>(queue_.size()));
  }
  cv_.notify_one();
  return fut;
}

std::vector<JobResult> BatchEngine::run_batch(std::vector<KernelJob> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& j : jobs) futures.push_back(submit(std::move(j)));
  std::vector<JobResult> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

void BatchEngine::shutdown() {
  bool join_here = false;
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  cv_.notify_all();
  cv_space_.notify_all();
  if (join_here) {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
}

void BatchEngine::cancel() {
  std::deque<Task> dropped;
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    dropped.swap(queue_);
    queue_depth_.store(0, std::memory_order_relaxed);
  }
  cv_.notify_all();
  cv_space_.notify_all();
  for (auto& task : dropped) {
    JobResult r;
    r.ok = false;
    r.kind = JobErrorKind::kCancelled;
    r.error = "cancelled";
    {
      std::lock_guard lock(mu_);
      ++agg_.jobs_completed;
      ++agg_.jobs_failed;
    }
    task.promise.set_value(std::move(r));
  }
  shutdown();
}

EngineStats BatchEngine::stats() const {
  EngineStats s;
  {
    std::lock_guard lock(mu_);
    s = agg_;
  }
  s.scratch_machine_allocs =
      scratch_machine_allocs_.load(std::memory_order_relaxed);
  s.scratch_arena_allocs =
      scratch_arena_allocs_.load(std::memory_order_relaxed);
  s.cache = cache_->stats();
  return s;
}

void BatchEngine::worker_loop(int worker_id) {
  WorkerScratch scratch;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
      agg_.queue_wait_ns += now_ns() - task.enqueue_ns;
    }
    if (queue_capacity_ != 0) cv_space_.notify_one();
    JobResult result = run_job(task.job, worker_id, scratch);
    finish(std::move(task), std::move(result));
  }
}

JobResult BatchEngine::run_job(const KernelJob& job, int worker_id,
                               WorkerScratch& scratch) {
  JobResult r;
  r.worker = worker_id;
  try {
    const auto kernel = kernels::make_kernel(job.kernel);
    const uint64_t t0 = now_ns();

    // Planner-driven jobs resolve their execution shape first; the
    // decision is cached under PlanKey so concurrent sessions sharing this
    // cache plan each unique request shape exactly once.
    bool use_spu = job.use_spu;
    kernels::SpuMode mode = job.mode;
    core::CrossbarConfig cfg = job.cfg;
    kernels::ExecBackend backend = job.backend;
    if (job.plan) {
      PlanKey pk;
      pk.kernel = job.kernel;
      pk.repeats = job.repeats;
      pk.area_budget_mm2 = job.area_budget_mm2;
      pk.max_delay_ns = job.max_delay_ns;
      pk.pinned_backend =
          job.backend_pinned ? static_cast<int>(job.backend) : -1;
      const auto plan = cache_->get_or_plan(pk, [&] {
        PlanOptions po;
        po.budget.area_mm2 = job.area_budget_mm2;
        po.budget.delay_ns = job.max_delay_ns;
        if (job.backend_pinned) po.backend = job.backend;
        po.history = &cache_->history();
        return plan_kernel(*kernel, job.repeats, po);
      });
      use_spu = plan->use_spu;
      mode = plan->mode;
      cfg = plan->cfg;
      backend = plan->backend;
      r.plan = std::shared_ptr<const PlanSummary>(plan, &plan->summary);
    }
    const bool native = backend == kernels::ExecBackend::kNativeSwar;

    const OrchestrationKey key = make_key(job.kernel, job.repeats, mode,
                                          use_spu, cfg, job.opts, job.pc,
                                          backend);
    bool prepared_here = false;
    const auto prepared = cache_->get_or_prepare(key, [&] {
      prepared_here = true;
      auto p = use_spu
                   ? kernels::prepare_spu(*kernel, job.repeats, cfg,
                                          mode, job.pc, &job.opts)
                   : kernels::prepare_baseline(*kernel, job.repeats, job.pc);
      // Lowering is part of the prepare half: the trace is cached with the
      // program and replayed decode-free ever after.
      if (native) kernels::lower_native(*kernel, p);
      return p;
    });
    const uint64_t t1 = now_ns();
    r.cache_hit = !prepared_here;
    r.prepare_ns = t1 - t0;

    if (native) {
      if (!scratch.arena) {
        scratch.arena = std::make_unique<sim::Memory>(kernels::kMemBytes);
        scratch_arena_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      r.run = kernels::execute_native(*kernel, *prepared,
                                      scratch.arena.get(), &job.buffers);
    } else {
      if (!scratch.machine) {
        scratch.machine = std::make_unique<sim::Machine>(
            prepared->program, kernels::kMemBytes, prepared->pc);
        scratch_machine_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      r.run = kernels::execute_prepared(*kernel, *prepared,
                                        scratch.machine.get(), &job.buffers);
    }
    r.execute_ns = now_ns() - t1;
    r.ok = true;

    // Close the measure->plan loop: memoize the exact cycles of a
    // simulator run on the machine the planner plans for — the default
    // pipeline and orchestrator options, i.e. a job whose preparation key
    // matches the default one. Native runs measure no cycles.
    if (!native && key == make_key(job.kernel, job.repeats, mode, use_spu,
                                   cfg, {}, {}, backend)) {
      cache_->history().record(
          HistoryKey::from_shape(job.kernel, job.repeats, use_spu, mode, cfg,
                                 backend),
          static_cast<double>(r.run.stats.cycles));
    }
  } catch (const backend::LoweringError& e) {
    r.ok = false;
    r.kind = JobErrorKind::kBackendUnsupported;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.ok = false;
    r.kind = JobErrorKind::kFailed;
    r.error = e.what();
  }
  return r;
}

void BatchEngine::finish(Task&& task, JobResult&& result) {
  {
    std::lock_guard lock(mu_);
    ++agg_.jobs_completed;
    if (!result.ok) ++agg_.jobs_failed;
    // Native-backend runs carry no cycle model (has_cycles=false); only
    // genuine simulator cycles may enter the aggregate.
    if (result.run.stats.has_cycles) {
      agg_.cycles_simulated += result.run.stats.cycles;
    }
    agg_.instructions_retired += result.run.stats.instructions;
  }
  task.promise.set_value(std::move(result));
}

}  // namespace subword::runtime
