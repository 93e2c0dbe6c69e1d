#include "api/pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "api/session.h"
#include "kernels/registry.h"
#include "runtime/tiling.h"

namespace subword::api {

namespace {

std::string stage_context(size_t i, const std::string& kernel) {
  return "pipeline stage " + std::to_string(i) + " (" + kernel + ")";
}

}  // namespace

Pipeline& Pipeline::then(Request stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::input(std::span<const uint8_t> bytes) {
  input_ = bytes;
  return *this;
}

Pipeline& Pipeline::input(std::span<const int16_t> samples) {
  input_ = detail::as_byte_span(samples);
  return *this;
}

Pipeline& Pipeline::output(std::span<uint8_t> bytes) {
  output_ = bytes;
  return *this;
}

Pipeline& Pipeline::output(std::span<int16_t> samples) {
  output_ = detail::as_writable_byte_span(samples);
  return *this;
}

Pipeline& Pipeline::tile() {
  tile_ = true;
  return *this;
}

Result<Pipeline::Validated> Pipeline::validate() const {
  if (stages_.empty()) {
    return ApiError{ErrorCode::kInvalidArgument, "pipeline has no stages",
                    "pipeline"};
  }

  Validated v;
  v.jobs.reserve(stages_.size());
  v.specs.reserve(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Request& st = stages_[i];
    const std::string context = stage_context(i, st.kernel_name());
    if (st.session_ != session_) {
      return ApiError{ErrorCode::kInvalidArgument,
                      "stage was built on a different Session", context};
    }
    if (!st.buffers_.empty()) {
      return ApiError{ErrorCode::kInvalidArgument,
                      "stages must not bind buffers directly; the pipeline "
                      "owns the inter-stage buffers (use Pipeline::input/"
                      "output for the endpoints)",
                      context};
    }
    auto job = st.build();
    if (!job.ok()) return job.error();
    const auto* info = kernels::find_kernel_info(job->kernel);
    if (info == nullptr) {  // unreachable: build() canonicalized the name
      return ApiError{ErrorCode::kUnknownKernel,
                      "kernel vanished from the registry", context};
    }
    if (!info->buffers.supported()) {
      return ApiError{ErrorCode::kBuffersUnsupported,
                      "kernel does not accept user-owned buffers, so it "
                      "cannot be a pipeline stage",
                      context};
    }
    v.specs.push_back(info->buffers);
    v.jobs.push_back(*std::move(job));
  }

  for (size_t i = 1; i < v.specs.size(); ++i) {
    // A downstream stage may consume a prefix of the upstream output, but
    // never more than the upstream produced. In a tiled run the rule is
    // the same, applied per tile.
    if (v.specs[i - 1].output_bytes < v.specs[i].input_bytes) {
      return ApiError{
          ErrorCode::kPipelineMismatch,
          v.jobs[i - 1].kernel + " produces " +
              std::to_string(v.specs[i - 1].output_bytes) + " bytes but " +
              v.jobs[i].kernel + " needs " +
              std::to_string(v.specs[i].input_bytes),
          "pipeline stage " + std::to_string(i)};
    }
  }

  const std::string context = stage_context(0, v.jobs.front().kernel);
  const kernels::BufferSpec& first = v.specs.front();
  if (tile_) {
    std::string terr;
    const auto geom = runtime::plan_tiles(first, input_.size(), &terr);
    if (!geom) {
      return ApiError{ErrorCode::kTilingUnsupported, std::move(terr),
                      context};
    }
    if (geom->tail_units != 0) {
      // A padded tail tile's valid output is a fragment of a tile, which
      // cannot feed a downstream stage expecting a full upstream tile.
      return ApiError{ErrorCode::kTilingUnsupported,
                      "frame leaves a partial tail tile; a streamed "
                      "pipeline needs the frame to tile exactly",
                      context};
    }
    v.geom = *geom;
  } else {
    if (input_.size() != first.input_bytes) {
      return ApiError{ErrorCode::kBufferSizeMismatch,
                      "pipeline input is " + std::to_string(input_.size()) +
                          " bytes, first stage wants " +
                          std::to_string(first.input_bytes),
                      context};
    }
    // An untiled chain is the one-tile case of a streamed one; run_tiled
    // reads only the tile count, the stride and the tile size.
    v.geom.tiles = 1;
    v.geom.input_stride = v.geom.tile_input_bytes = first.input_bytes;
  }
  const size_t want = v.geom.tiles * v.specs.back().output_bytes;
  if (!output_.empty() && output_.size() != want) {
    return ApiError{
        ErrorCode::kBufferSizeMismatch,
        "pipeline output is " + std::to_string(output_.size()) +
            " bytes, the last stage produces " + std::to_string(want),
        stage_context(v.specs.size() - 1, v.jobs.back().kernel)};
  }
  return v;
}

Result<PipelineRun> Pipeline::run() {
  auto v = validate();
  if (!v.ok()) return v.error();
  return run_tiled(*std::move(v));
}

Result<SubmittedPipeline> Pipeline::submit() {
  auto v = validate();
  if (!v.ok()) return v.error();
  // The driver thread owns a moved-in copy of this Pipeline (stages,
  // spans, tiling flag); the spans still view caller memory, which must
  // outlive wait(). run() revalidates — cheap, and it keeps one code path.
  auto state = std::make_shared<Pipeline>(std::move(*this));
  std::promise<Result<PipelineRun>> promise;
  auto fut = promise.get_future();
  std::thread driver([state, promise = std::move(promise)]() mutable {
    promise.set_value(state->run());
  });
  return SubmittedPipeline(std::move(driver), std::move(fut));
}

SubmittedPipeline::~SubmittedPipeline() {
  if (driver_.joinable()) driver_.join();
}

Result<PipelineRun> SubmittedPipeline::wait() {
  if (driver_.joinable()) driver_.join();
  if (!fut_.valid()) {
    return ApiError{ErrorCode::kInvalidArgument,
                    "wait() already consumed this SubmittedPipeline",
                    "pipeline"};
  }
  return fut_.get();
}

Result<PipelineRun> Pipeline::run_tiled(Validated v) {
  const size_t S = v.jobs.size();       // stages
  const size_t K = v.geom.tiles;        // tiles (exact fit; no tail)
  const size_t out_bytes = v.specs.back().output_bytes;

  // Per-(stage, tile) output buffers and futures. Tile k's stage-s input
  // aliases a prefix of bufs[s-1][k], so a job is submitted only after its
  // predecessor tile settled — the wavefront order below enforces that.
  std::vector<std::vector<std::vector<uint8_t>>> bufs(S);
  std::vector<std::vector<std::future<runtime::JobResult>>> futs(S);
  for (size_t s = 0; s < S; ++s) {
    bufs[s].assign(K, std::vector<uint8_t>(v.specs[s].output_bytes));
    futs[s].resize(K);
  }
  std::vector<runtime::JobResultAccumulator> acc(S);
  std::optional<ApiError> failure;

  PipelineRun out;
  out.tiles = K;
  out.output.resize(K * out_bytes);

  const auto submit_job = [&](size_t s, size_t k) {
    runtime::KernelJob job = v.jobs[s];  // shared knobs, per-tile buffers
    job.buffers.input =
        s == 0 ? input_.subspan(k * v.geom.input_stride,
                                v.geom.tile_input_bytes)
               : std::span<const uint8_t>(bufs[s - 1][k])
                     .first(v.specs[s].input_bytes);
    job.buffers.output = bufs[s][k];
    futs[s][k] = session_->engine_.submit(std::move(job));
  };
  // Wait for (s, k), fold it into the stage aggregate; on the first
  // failure record the typed error and stop the wavefront.
  const auto settle = [&](size_t s, size_t k) {
    runtime::JobResult r = futs[s][k].get();
    if (!r.ok || !r.run.verified) {
      if (!failure) {
        auto resp =
            detail::to_response(std::move(r), stage_context(s, v.jobs[s].kernel));
        failure = resp.error();
      }
      return;
    }
    acc[s].add(std::move(r));
  };

  // Stage 0 has no dependencies: every tile goes to the engine up front
  // (a bounded queue turns this into backpressure), so the workers can
  // spread the whole frame immediately.
  for (size_t k = 0; k < K; ++k) submit_job(0, k);

  // Then a wavefront over the (stage, tile) grid in diagonal order
  // d = s + k: processing (s, k) first settles its predecessor (s-1, k) —
  // submitted one diagonal earlier — then submits (s, k) itself, so stage
  // s starts tile k as soon as stage s-1 finished it while stage s-1 is
  // still working on tile k+1. The virtual row s == S settles the final
  // stage and gathers its tile into place.
  for (size_t d = 1; d < S + K && !failure; ++d) {
    const size_t s_hi = std::min(d, S);
    const size_t s_lo = std::max<size_t>(1, d >= K - 1 ? d - (K - 1) : 1);
    for (size_t s = s_hi + 1; s-- > s_lo;) {
      const size_t k = d - s;
      settle(s - 1, k);
      if (failure) break;
      if (s == S) {
        std::copy(bufs[S - 1][k].begin(), bufs[S - 1][k].end(),
                  out.output.begin() + static_cast<ptrdiff_t>(k * out_bytes));
      } else {
        submit_job(s, k);
      }
    }
  }
  if (failure) {
    // Drain every in-flight tile before the buffers they reference die.
    for (auto& stage : futs) {
      for (auto& f : stage) {
        if (f.valid()) f.get();
      }
    }
    return *failure;
  }

  out.all_cache_hits = true;
  out.total_cycles = 0;
  for (size_t s = 0; s < S; ++s) {
    const size_t jobs = acc[s].jobs();
    const size_t hits = acc[s].cache_hits();
    const int workers = acc[s].workers_used();
    auto resp = detail::to_response(std::move(acc[s]).take(),
                                    stage_context(s, v.jobs[s].kernel));
    if (!resp.ok()) return resp.error();  // unreachable: every tile settled ok
    resp->jobs_fanned_out = jobs;
    resp->tile_cache_hits = hits;
    resp->workers_used = workers;
    if (const auto c = resp->run.stats.cycles_opt(); c && out.total_cycles) {
      *out.total_cycles += *c;
    } else {
      out.total_cycles.reset();
    }
    out.total_routed_operands += resp->run.stats.spu_routed_ops;
    out.all_cache_hits = out.all_cache_hits && resp->cache_hit;
    StageRun sr;
    sr.kernel = v.jobs[s].kernel;
    sr.response = *std::move(resp);
    sr.input_bytes = v.specs[s].input_bytes;
    sr.output_bytes = v.specs[s].output_bytes;
    out.stages.push_back(std::move(sr));
  }
  if (!output_.empty()) {
    std::copy(out.output.begin(), out.output.end(), output_.begin());
  }
  return out;
}

}  // namespace subword::api
