// session.h — the facade's entry point and the one supported way to use
// the system.
//
// A Session owns the execution substrate — a runtime::BatchEngine worker
// pool plus the shared OrchestrationCache — and hands out typed handles:
// Request builders for single kernel executions and Pipeline builders for
// buffer-chained stage graphs. Several Sessions may share one cache
// (SessionOptions::cache), modelling service replicas amortizing the same
// orchestrations; the cache is thread-safe and prepares each unique
// configuration exactly once across all of them.
//
// Everything fallible returns Result<T> (api/result.h). The lower layers'
// exceptions stop at the engine boundary; Session itself never throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/pipeline.h"
#include "api/request.h"
#include "api/result.h"
#include "kernels/registry.h"
#include "runtime/batch_engine.h"

namespace subword::api {

struct SessionOptions {
  int workers = 0;  // 0: hardware_concurrency (at least 1)
  // Bounds the engine's job queue: submissions (including tiled fan-outs)
  // block while this many jobs are already waiting, instead of growing
  // the queue without limit. 0: unbounded. Blocked time is visible as
  // EngineStats::submit_block_ns.
  int queue_capacity = 0;
  // -- Admission control (load shedding) ------------------------------------
  // When nonzero, submissions finding this many jobs already queued resolve
  // immediately with ErrorCode::kOverloaded instead of queueing (or
  // blocking on a full bounded queue). A serving layer sets this so
  // overload fails fast at the submitter instead of stalling its sockets.
  int shed_queue_depth = 0;
  // With a bounded queue: the longest one submission may block on
  // backpressure before resolving with kOverloaded. 0: block indefinitely.
  uint64_t shed_max_block_ns = 0;
  // Shared orchestration cache; null means the Session owns a private one.
  std::shared_ptr<runtime::OrchestrationCache> cache;
};

class Session {
 public:
  using Options = SessionOptions;

  explicit Session(SessionOptions opts = {});
  ~Session();  // drains in-flight work (BatchEngine::shutdown)

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Start building a request for a registry kernel. Name matching is
  // case-insensitive; validation happens at the Request's build()/submit().
  [[nodiscard]] Request request(std::string kernel);

  // Start building a buffer-chained stage pipeline.
  [[nodiscard]] Pipeline pipeline();

  // Enumerate the registry: every kernel's identity, suite membership,
  // manual-SPU capability, and buffer contract.
  [[nodiscard]] const std::vector<kernels::KernelInfo>& kernels() const;

  // Descriptor lookup (case-insensitive).
  [[nodiscard]] Result<kernels::KernelInfo> kernel(
      std::string_view name) const;

  [[nodiscard]] runtime::EngineStats stats() const;

  // Live engine queue depth — a lock-free atomic snapshot, cheap enough to
  // poll per request (stats() takes the queue mutex; this does not).
  [[nodiscard]] size_t queue_depth() const;
  [[nodiscard]] std::shared_ptr<runtime::OrchestrationCache> shared_cache()
      const;
  [[nodiscard]] int workers() const;

  // Stop accepting requests and drain. Idempotent; later submits resolve
  // with ErrorCode::kSessionShutdown.
  void shutdown();

 private:
  friend class Request;
  friend class Pipeline;

  runtime::BatchEngine engine_;
};

}  // namespace subword::api
