// request.h — the facade's fluent request builder.
//
//   Session session;
//   auto r = session.request("fir12").repeats(8)
//                   .spu(core::kConfigD).auto_orchestrate().run();
//
// A Request is cheap to copy and carries typed knobs only; every check —
// kernel name against the registry's KernelInfo descriptors, mode against
// the kernel's capabilities, buffer spans against its BufferSpec — happens
// at build()/submit() time and is reported through Result<T> instead of
// exceptions. The Request borrows its Session: it must not outlive it.
#pragma once

#include <cstdint>
#include <future>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "api/result.h"
#include "runtime/batch_engine.h"
#include "runtime/tiling.h"

namespace subword::api {

class Session;

// Re-exported so facade users need not reach into kernels:: for the knob.
using ExecBackend = kernels::ExecBackend;

// The planner's audit trail (runtime/planner.h): what was chosen and why.
using PlanSummary = runtime::PlanSummary;

// What a finished request yields: the KernelRun (simulation stats,
// bit-exact verification flag, SPU counters, orchestration report when
// auto-orchestrated) plus the service-side economics of this execution.
struct Response {
  kernels::KernelRun run;
  bool cache_hit = false;   // preparation came from the orchestration cache
  uint64_t prepare_ns = 0;
  uint64_t execute_ns = 0;
  int worker = -1;
  // For auto_plan() requests: the planner's decision and scoring (config,
  // mode, backend, score with its provenance — model or measured — the
  // winner's memoized cycles, full candidate field). Null for
  // explicitly-configured requests.
  std::shared_ptr<const PlanSummary> plan;

  // -- Fan-out economics (tile() requests; degenerate 1/1 otherwise) -------
  // How many engine jobs this one request became, how many of them
  // replayed the shared cached preparation (tiles - 1 when the shape was
  // cold, tiles when warm), and how many distinct workers the tiles
  // actually spread across. For tiled requests the scalar fields above
  // aggregate over the fan-out: prepare_ns/execute_ns are sums, cache_hit
  // is the conjunction, worker is -1 when tiles landed on more than one.
  size_t jobs_fanned_out = 1;
  size_t tile_cache_hits = 0;
  int workers_used = 1;

  // Simulator cycles, or nullopt when the execution backend has no cycle
  // model (native-SWAR). Prefer this over run.stats.cycles when mixing
  // backends: the raw field reads 0 there and poisons averages.
  [[nodiscard]] std::optional<uint64_t> cycles() const {
    return run.stats.cycles_opt();
  }
};

// A validated request in flight — one engine job, or a tiled fan-out of
// them. Move-only; wait() resolves exactly once. The caller's buffer spans
// must stay alive until wait() returns.
class Submitted {
 public:
  [[nodiscard]] Result<Response> wait();

 private:
  friend class Request;
  Submitted(std::future<runtime::JobResult> fut, std::string context)
      : fut_(std::move(fut)), context_(std::move(context)) {}
  Submitted(runtime::TiledSubmission sub, std::string context)
      : tiled_(std::move(sub)), context_(std::move(context)) {}

  std::future<runtime::JobResult> fut_;
  std::optional<runtime::TiledSubmission> tiled_;
  std::string context_;
};

class Request {
 public:
  // -- Knobs (fluent, each returns *this) ----------------------------------
  Request& repeats(int n);                       // problem-size knob, >= 1
  Request& baseline();                           // plain MMX, no SPU (default)
  Request& spu(const core::CrossbarConfig& cfg); // SPU on; mode stays Manual
                                                 // until auto_orchestrate()
  Request& manual_spu();                         // hand-written SPU variant
  Request& auto_orchestrate();                   // orchestrator over baseline
  Request& orchestrator(const core::OrchestratorOptions& opts);  // implies auto
  Request& pipeline_config(const sim::PipelineConfig& pc);

  // Let the cost-model planner (runtime/planner.h, docs/PLANNER.md) choose
  // the crossbar config, execution mode (baseline/manual/auto) and backend
  // for this kernel and repeat count. Mutually exclusive with the explicit
  // mode knobs above (baseline/spu/manual_spu/auto_orchestrate/
  // orchestrator) — combining them is a build()-time kInvalidArgument. An
  // explicit backend() call pins the backend and the planner decides only
  // config and mode. The decision arrives in Response::plan.
  Request& auto_plan();

  // Hardware budgets for the planner, in the paper's Table-1 units
  // (0.25um). Each implies auto_plan(); configurations that bust a budget
  // are excluded from the search.
  Request& area_budget_mm2(double mm2);  // crossbar + control memory area
  Request& max_delay_ns(double ns);      // crossbar delay ceiling

  // Execution backend: the cycle-level simulator (default — the only
  // backend with cycle statistics) or the native-SWAR trace executor
  // (bit-identical outputs, order-of-magnitude faster, cycle stats zero).
  // build() does not probe the lowering: a shape the lowering cannot prove
  // data-independent, or whose trace exceeds the lowering's size cap,
  // reports kBackendUnsupported from run()/wait(), naming the op and the
  // config.
  Request& backend(ExecBackend b);

  // Tile the bound input frame across the engine: the request fans out as
  // one KernelJob per base tile (per the kernel's BufferSpec tile
  // geometry — stride, halo, unit granularity), every tile sharing the
  // same cached PreparedProgram, and the Response aggregates the fan-out
  // (see the economics fields). Requires a tileable kernel and a bound
  // input whose size plan_tiles accepts: any frame >= one base tile for
  // halo-free kernels (a trailing remainder must be a whole number of
  // units; it runs as a zero-padded tail tile), an exact `base + k*stride`
  // fit for halo'd ones. Violations are kTilingUnsupported at build().
  // The output, when bound, must be exactly the gathered frame-output
  // size. Note build()'s KernelJob then carries the *frame* spans — it
  // documents the request but is not directly engine-executable when the
  // frame is larger than one tile; submit() performs the fan-out.
  Request& tile();

  // User-owned buffers (kernels advertising a BufferSpec only). The spans
  // view caller memory that must stay alive until the response arrives.
  Request& input(std::span<const uint8_t> bytes);
  Request& input(std::span<const int16_t> samples);
  Request& output(std::span<uint8_t> bytes);
  Request& output(std::span<int16_t> samples);

  // -- Terminal operations -------------------------------------------------
  // Validate every knob against the registry and assemble the runtime job.
  // This is where unknown kernels, repeats < 1, Manual mode without a
  // manual variant, and buffer-size mismatches are caught.
  [[nodiscard]] Result<runtime::KernelJob> build() const;

  // Validate, then enqueue on the Session's engine (async).
  [[nodiscard]] Result<Submitted> submit();

  // Validate, enqueue, and wait (sync convenience).
  [[nodiscard]] Result<Response> run();

  [[nodiscard]] const std::string& kernel_name() const { return kernel_; }

 private:
  friend class Session;
  friend class Pipeline;

  Request(Session* session, std::string kernel)
      : session_(session), kernel_(std::move(kernel)) {}

  Session* session_;
  std::string kernel_;
  int repeats_ = 1;
  bool use_spu_ = false;
  ExecBackend backend_ = ExecBackend::kSimulator;
  kernels::SpuMode mode_ = kernels::SpuMode::Manual;
  core::CrossbarConfig cfg_ = core::kConfigA;
  core::OrchestratorOptions opts_{};
  bool has_opts_ = false;
  sim::PipelineConfig pc_{};
  kernels::BufferBinding buffers_{};
  bool tile_ = false;          // tile() called: submit() fans out per tile
  bool plan_ = false;          // auto_plan() / budgets called
  bool mode_set_ = false;      // an explicit mode knob was called
  bool backend_set_ = false;   // backend() was called (pins it under plan)
  double area_budget_mm2_ = 0;
  double max_delay_ns_ = 0;
};

namespace detail {
// Shared JobResult -> Result<Response> conversion (Submitted and Pipeline).
[[nodiscard]] Result<Response> to_response(runtime::JobResult r,
                                           const std::string& context);

// 16-bit lane spans reinterpreted as the byte spans BufferBinding carries.
[[nodiscard]] inline std::span<const uint8_t> as_byte_span(
    std::span<const int16_t> s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size_bytes()};
}
[[nodiscard]] inline std::span<uint8_t> as_writable_byte_span(
    std::span<int16_t> s) {
  return {reinterpret_cast<uint8_t*>(s.data()), s.size_bytes()};
}
}  // namespace detail

}  // namespace subword::api
