#include "api/request.h"

#include <utility>

#include "api/session.h"
#include "kernels/registry.h"

namespace subword::api {

Request& Request::repeats(int n) {
  repeats_ = n;
  return *this;
}

Request& Request::baseline() {
  use_spu_ = false;
  mode_set_ = true;
  return *this;
}

Request& Request::spu(const core::CrossbarConfig& cfg) {
  use_spu_ = true;
  cfg_ = cfg;
  mode_set_ = true;
  return *this;
}

Request& Request::manual_spu() {
  use_spu_ = true;
  mode_ = kernels::SpuMode::Manual;
  mode_set_ = true;
  return *this;
}

Request& Request::auto_orchestrate() {
  use_spu_ = true;
  mode_ = kernels::SpuMode::Auto;
  mode_set_ = true;
  return *this;
}

Request& Request::orchestrator(const core::OrchestratorOptions& opts) {
  use_spu_ = true;
  mode_ = kernels::SpuMode::Auto;
  opts_ = opts;
  has_opts_ = true;
  mode_set_ = true;
  return *this;
}

Request& Request::auto_plan() {
  plan_ = true;
  return *this;
}

Request& Request::area_budget_mm2(double mm2) {
  plan_ = true;
  area_budget_mm2_ = mm2;
  return *this;
}

Request& Request::max_delay_ns(double ns) {
  plan_ = true;
  max_delay_ns_ = ns;
  return *this;
}

Request& Request::pipeline_config(const sim::PipelineConfig& pc) {
  pc_ = pc;
  return *this;
}

Request& Request::backend(ExecBackend b) {
  backend_ = b;
  backend_set_ = true;
  return *this;
}

Request& Request::tile() {
  tile_ = true;
  return *this;
}

Request& Request::input(std::span<const uint8_t> bytes) {
  buffers_.input = bytes;
  return *this;
}

Request& Request::input(std::span<const int16_t> samples) {
  buffers_.input = detail::as_byte_span(samples);
  return *this;
}

Request& Request::output(std::span<uint8_t> bytes) {
  buffers_.output = bytes;
  return *this;
}

Request& Request::output(std::span<int16_t> samples) {
  buffers_.output = detail::as_writable_byte_span(samples);
  return *this;
}

Result<runtime::KernelJob> Request::build() const {
  const std::string context = "request(" + kernel_ + ")";
  const auto* info = kernels::find_kernel_info(kernel_);
  if (info == nullptr) {
    return ApiError{ErrorCode::kUnknownKernel,
                    "no registered kernel named '" + kernel_ + "'", context};
  }
  if (repeats_ < 1) {
    return ApiError{ErrorCode::kInvalidArgument,
                    "repeats must be >= 1, got " + std::to_string(repeats_),
                    context};
  }
  if (plan_ && mode_set_) {
    return ApiError{ErrorCode::kInvalidArgument,
                    "auto_plan() replaces the explicit mode knobs "
                    "(baseline/spu/manual_spu/auto_orchestrate/"
                    "orchestrator); use one or the other",
                    context};
  }
  if (plan_ && (area_budget_mm2_ < 0 || max_delay_ns_ < 0)) {
    return ApiError{ErrorCode::kInvalidArgument,
                    "planner budgets must be >= 0 (0 = unconstrained)",
                    context};
  }
  if (!plan_ && use_spu_ && mode_ == kernels::SpuMode::Manual &&
      !info->has_manual_spu()) {
    return ApiError{ErrorCode::kNoManualSpuVariant,
                    "kernel has no hand-written SPU variant; use "
                    "auto_orchestrate()",
                    context};
  }
  if (tile_) {
    if (!info->buffers.supported()) {
      return ApiError{ErrorCode::kBuffersUnsupported,
                      "kernel does not accept user-owned buffers", context};
    }
    if (buffers_.input.empty()) {
      return ApiError{ErrorCode::kInvalidArgument,
                      "tile() needs a bound input frame to derive the tile "
                      "geometry from",
                      context};
    }
    std::string terr;
    const auto geom =
        runtime::plan_tiles(info->buffers, buffers_.input.size(), &terr);
    if (!geom) {
      return ApiError{ErrorCode::kTilingUnsupported, std::move(terr),
                      context};
    }
    if (!buffers_.output.empty() &&
        buffers_.output.size() != geom->frame_output_bytes) {
      return ApiError{
          ErrorCode::kBufferSizeMismatch,
          "output buffer is " + std::to_string(buffers_.output.size()) +
              " bytes, the gathered frame output is " +
              std::to_string(geom->frame_output_bytes),
          context};
    }
  } else if (!buffers_.empty()) {
    if (!info->buffers.supported()) {
      return ApiError{ErrorCode::kBuffersUnsupported,
                      "kernel does not accept user-owned buffers", context};
    }
    if (!buffers_.input.empty() &&
        buffers_.input.size() != info->buffers.input_bytes) {
      return ApiError{
          ErrorCode::kBufferSizeMismatch,
          "input buffer is " + std::to_string(buffers_.input.size()) +
              " bytes, kernel wants " +
              std::to_string(info->buffers.input_bytes),
          context};
    }
    if (!buffers_.output.empty() &&
        buffers_.output.size() != info->buffers.output_bytes) {
      return ApiError{
          ErrorCode::kBufferSizeMismatch,
          "output buffer is " + std::to_string(buffers_.output.size()) +
              " bytes, kernel produces " +
              std::to_string(info->buffers.output_bytes),
          context};
    }
  }

  runtime::KernelJob job;
  job.kernel = info->name;  // canonical registry spelling
  job.repeats = repeats_;
  job.use_spu = use_spu_;
  job.backend = backend_;
  job.mode = mode_;
  job.cfg = cfg_;
  if (has_opts_) job.opts = opts_;
  job.pc = pc_;
  job.buffers = buffers_;
  job.plan = plan_;
  job.area_budget_mm2 = area_budget_mm2_;
  job.max_delay_ns = max_delay_ns_;
  job.backend_pinned = plan_ && backend_set_;
  return job;
}

Result<Submitted> Request::submit() {
  auto job = build();
  if (!job.ok()) return job.error();
  const std::string context = "request(" + job->kernel + ")";
  if (tile_) {
    // build() validated the geometry; re-derive it and fan the frame out.
    // The prototype job sheds the frame spans — every tile binds its own
    // window inside submit_tiled.
    const auto* info = kernels::find_kernel_info(job->kernel);
    const auto geom =
        runtime::plan_tiles(info->buffers, job->buffers.input.size());
    const std::span<const uint8_t> input = job->buffers.input;
    const std::span<uint8_t> output = job->buffers.output;
    job->buffers = {};
    return Submitted(
        runtime::submit_tiled(session_->engine_, *job, *geom, input, output),
        context);
  }
  return Submitted(session_->engine_.submit(*std::move(job)), context);
}

Result<Response> Request::run() {
  auto submitted = submit();
  if (!submitted.ok()) return submitted.error();
  return submitted->wait();
}

Result<Response> Submitted::wait() {
  if (tiled_.has_value()) {
    auto gathered = runtime::gather_tiled(*std::move(tiled_));
    tiled_.reset();
    auto resp = detail::to_response(std::move(gathered.result), context_);
    if (!resp.ok()) return resp.error();
    resp->jobs_fanned_out = gathered.jobs;
    resp->tile_cache_hits = gathered.cache_hits;
    resp->workers_used = gathered.workers_used;
    return resp;
  }
  if (!fut_.valid()) {
    return ApiError{ErrorCode::kInvalidArgument,
                    "wait() already consumed this Submitted", context_};
  }
  return detail::to_response(fut_.get(), context_);
}

namespace detail {

Result<Response> to_response(runtime::JobResult r,
                             const std::string& context) {
  if (!r.ok) {
    ErrorCode code = ErrorCode::kExecutionFailed;
    switch (r.kind) {
      case runtime::JobErrorKind::kRejected:
        code = ErrorCode::kSessionShutdown;
        break;
      case runtime::JobErrorKind::kCancelled:
        code = ErrorCode::kCancelled;
        break;
      case runtime::JobErrorKind::kOverloaded:
        code = ErrorCode::kOverloaded;
        break;
      case runtime::JobErrorKind::kBackendUnsupported:
        code = ErrorCode::kBackendUnsupported;
        break;
      case runtime::JobErrorKind::kFailed:
      case runtime::JobErrorKind::kNone:
        code = ErrorCode::kExecutionFailed;
        break;
    }
    return ApiError{code, r.error, context};
  }
  if (!r.run.verified) {
    // Verification is part of the facade's correctness contract: a caller
    // must never consume outputs that diverged from the scalar reference
    // (reachable with user-owned buffers whose values break the kernel's
    // documented range contract).
    return ApiError{ErrorCode::kVerificationFailed,
                    "outputs did not match the scalar reference for the "
                    "data the kernel received",
                    context};
  }
  Response resp;
  resp.run = std::move(r.run);
  resp.cache_hit = r.cache_hit;
  resp.prepare_ns = r.prepare_ns;
  resp.execute_ns = r.execute_ns;
  resp.worker = r.worker;
  resp.plan = std::move(r.plan);
  resp.tile_cache_hits = r.cache_hit ? 1 : 0;
  return resp;
}

}  // namespace detail

}  // namespace subword::api
