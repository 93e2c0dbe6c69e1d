#include "runtime/orchestration_cache.h"

#include <chrono>

namespace subword::runtime {

namespace {

// Time one mutex acquisition for the contention audit. Two clock reads per
// lookup (~tens of ns) against a map find — cheap enough to keep always
// on, and the only way the scaling bench can attribute flat worker curves
// to this shared_mutex rather than the queue or the arenas.
template <typename Lock, typename Mutex>
Lock timed_lock(Mutex& mu, std::atomic<uint64_t>& wait_ns) {
  const auto t0 = std::chrono::steady_clock::now();
  Lock lock(mu);
  const auto dt = std::chrono::steady_clock::now() - t0;
  wait_ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()),
      std::memory_order_relaxed);
  return lock;
}

}  // namespace

std::shared_ptr<const kernels::PreparedProgram>
OrchestrationCache::get_or_prepare(const OrchestrationKey& key,
                                   const Factory& factory) {
  std::shared_ptr<Entry> entry;
  {
    // Fast path: shared lock, entry exists and is already populated.
    auto lock = timed_lock<std::shared_lock<std::shared_mutex>>(
        mu_, lock_wait_ns_);
    auto it = map_.find(key);
    if (it != map_.end()) entry = it->second;
  }
  if (!entry) {
    auto lock = timed_lock<std::unique_lock<std::shared_mutex>>(
        mu_, lock_wait_ns_);
    auto [it, fresh] = map_.try_emplace(key);
    if (fresh) it->second = std::make_shared<Entry>();
    entry = it->second;
  }

  // Exactly-once preparation per key; racing callers block here until the
  // winner finishes, then share its product. call_once synchronizes the
  // winner's writes to entry->prepared/error with every later caller.
  bool ran_factory = false;
  std::call_once(entry->once, [&] {
    ran_factory = true;
    try {
      entry->prepared = std::make_shared<const kernels::PreparedProgram>(
          factory());
    } catch (...) {
      entry->error = std::current_exception();
    }
  });

  if (entry->error) {
    {
      // Drop the poisoned entry so a later call can retry.
      std::unique_lock lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end() && it->second == entry) map_.erase(it);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::rethrow_exception(entry->error);
  }
  if (ran_factory) {
    // Only the factory runner takes the exclusive lock (once per key), to
    // publish the result for peek(); pure hits never serialize on mu_.
    std::unique_lock lock(mu_);
    entry->published = entry->prepared;
    misses_.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry->prepared;
}

std::shared_ptr<const kernels::PreparedProgram> OrchestrationCache::peek(
    const OrchestrationKey& key) const {
  std::shared_lock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  // `published` is only ever written under mu_ (see get_or_prepare), so
  // this read is race-free; an in-flight preparation reads as absent.
  return it->second->published;
}

std::shared_ptr<const Plan> OrchestrationCache::get_or_plan(
    const PlanKey& key, const PlanFactory& factory) {
  std::shared_ptr<PlanEntry> entry;
  {
    auto lock = timed_lock<std::shared_lock<std::shared_mutex>>(
        mu_, lock_wait_ns_);
    auto it = plans_.find(key);
    if (it != plans_.end()) entry = it->second;
  }
  if (!entry) {
    auto lock = timed_lock<std::unique_lock<std::shared_mutex>>(
        mu_, lock_wait_ns_);
    auto [it, fresh] = plans_.try_emplace(key);
    if (fresh) it->second = std::make_shared<PlanEntry>();
    entry = it->second;
  }

  // Exactly-once planning per key *per history epoch*: racing callers
  // serialize on the entry mutex — the first to find the stored decision
  // absent or stale re-runs the factory, later callers that read the same
  // epoch share its product without replanning. The epoch is read before
  // planning, so history advancing mid-plan makes the next lookup replan
  // rather than trusting a decision computed on partial data.
  std::unique_lock entry_lock(entry->mu);
  const uint64_t epoch_now = history_.epoch();
  if (entry->plan != nullptr && entry->epoch == epoch_now) {
    plan_hits_.fetch_add(1, std::memory_order_relaxed);
    return entry->plan;
  }
  plan_misses_.fetch_add(1, std::memory_order_relaxed);
  // A factory throw leaves any previous decision in place (stale is
  // better than absent for the *next* caller, who will retry anyway) and
  // propagates to this caller only.
  entry->plan = std::make_shared<const Plan>(factory());
  entry->epoch = epoch_now;
  return entry->plan;
}

CacheStats OrchestrationCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  s.lock_wait_ns = lock_wait_ns_.load(std::memory_order_relaxed);
  s.history_entries = history_.size();
  s.history_epoch = history_.epoch();
  {
    std::shared_lock lock(mu_);
    s.entries = map_.size();
    s.plan_entries = plans_.size();
  }
  return s;
}

void OrchestrationCache::clear() {
  history_.clear();
  std::unique_lock lock(mu_);
  map_.clear();
  plans_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  plan_hits_.store(0, std::memory_order_relaxed);
  plan_misses_.store(0, std::memory_order_relaxed);
  lock_wait_ns_.store(0, std::memory_order_relaxed);
}

OrchestrationKey make_key(const std::string& kernel, int repeats,
                          kernels::SpuMode mode, bool use_spu,
                          const core::CrossbarConfig& cfg,
                          const core::OrchestratorOptions& opts,
                          const sim::PipelineConfig& pc,
                          kernels::ExecBackend backend) {
  OrchestrationKey k;
  k.kernel = kernel;
  k.repeats = repeats;
  k.use_spu = use_spu;
  k.backend = backend;
  // Normalize fields that cannot affect the preparation, so equivalent
  // requests share one entry: baseline jobs ignore the crossbar, the
  // orchestrator options and the mode entirely; manual SPU programs ignore
  // the orchestrator options.
  if (use_spu) {
    k.mode = mode;
    k.input_ports = cfg.input_ports;
    k.output_ports = cfg.output_ports;
    k.port_bits = cfg.port_bits;
    k.modes = cfg.modes;
    if (mode == kernels::SpuMode::Auto) {
      k.max_contexts = opts.max_contexts;
      k.mmio_base = opts.mmio_base;
      k.orchestrate_empty_loops = opts.orchestrate_empty_loops;
    }
  }
  k.mispredict_penalty = pc.mispredict_penalty;
  k.bht_entries = pc.bht_entries;
  k.bpred = pc.bpred;
  k.dual_issue = pc.dual_issue;
  // SPU preparations force extra_spu_stage on, so for them the incoming
  // value is inert — normalize it like the other non-affecting fields.
  k.extra_spu_stage = use_spu ? true : pc.extra_spu_stage;
  k.max_cycles = pc.max_cycles;
  return k;
}

}  // namespace subword::runtime
