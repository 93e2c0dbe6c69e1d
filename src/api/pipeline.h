// pipeline.h — ordered composition of kernel stages over user-owned
// buffers: stage N's primary output feeds stage N+1's primary input
// through one Session.
//
//   Session session;
//   auto run = session.pipeline()
//                  .then(session.request("Color Convert").spu(core::kConfigD))
//                  .then(session.request("2D Convolution").spu(core::kConfigD))
//                  .then(session.request("Motion Estimation").spu(core::kConfigD))
//                  .input(frame_bytes)
//                  .run();
//
// Data flow: the pipeline owns the intermediate buffers. A downstream
// stage consumes a *prefix* of the upstream output when its input is
// smaller (a 512-byte Y plane feeding a 400-byte convolution tile); an
// upstream output smaller than the next input is a kPipelineMismatch.
// Every stage is verified bit-exactly against its scalar reference *given
// the data it actually received* (MediaKernel::verify_bound), so a
// passing pipeline is end-to-end bit-exact against the composed scalar
// references by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/request.h"
#include "api/result.h"

namespace subword::api {

class Session;

// Per-stage outcome: which kernel ran, the full Response (KernelRun stats,
// cache economics), and how many upstream bytes it consumed. In a tiled
// run the Response aggregates the stage's whole tile fan-out (see its
// economics fields) and the byte counts stay per-tile.
struct StageRun {
  std::string kernel;
  Response response;
  size_t input_bytes = 0;   // bytes fed into this stage (per tile)
  size_t output_bytes = 0;  // bytes this stage produced (per tile)
};

struct PipelineRun {
  std::vector<StageRun> stages;
  std::vector<uint8_t> output;      // final stage's primary output
  // Simulator cycles summed over stages. nullopt when any stage ran on a
  // backend without a cycle model (native-SWAR): a partial sum would
  // silently under-report, so the total is withheld instead.
  std::optional<uint64_t> total_cycles;
  uint64_t total_routed_operands = 0;
  bool all_cache_hits = false;      // every stage replayed a cached program
  // How many tiles the frame was cut into (1: untiled). A tiled run
  // executed stages.size() * tiles engine jobs; `output` concatenates the
  // final stage's per-tile outputs in tile order.
  size_t tiles = 1;
};

// A pipeline in flight on a driver thread. Move-only; wait() joins the
// driver and yields the run's result exactly once. Must not outlive the
// Session the pipeline was built on, and the input/output spans must stay
// alive until wait() returns.
class SubmittedPipeline {
 public:
  SubmittedPipeline(SubmittedPipeline&&) = default;
  SubmittedPipeline& operator=(SubmittedPipeline&&) = default;
  ~SubmittedPipeline();  // joins the driver if wait() was never called

  [[nodiscard]] Result<PipelineRun> wait();

 private:
  friend class Pipeline;
  SubmittedPipeline(std::thread driver, std::future<Result<PipelineRun>> fut)
      : driver_(std::move(driver)), fut_(std::move(fut)) {}

  std::thread driver_;
  std::future<Result<PipelineRun>> fut_;
};

class Pipeline {
 public:
  // Append a configured stage (a Request from the same Session; its
  // terminal operations are never called — the pipeline drives it).
  Pipeline& then(Request stage);

  // The first stage's input. Must match its BufferSpec exactly.
  Pipeline& input(std::span<const uint8_t> bytes);
  Pipeline& input(std::span<const int16_t> samples);

  // Optional: also copy the final output into caller memory (must match
  // the last stage's output_bytes exactly; for tiled runs, tiles * that).
  Pipeline& output(std::span<uint8_t> bytes);
  Pipeline& output(std::span<int16_t> samples);

  // Stream the pipeline tile by tile: the input frame is cut per the
  // *first* stage's tile geometry, and each tile then flows through the
  // whole chain independently (the prefix rule applies per tile), so
  // stage N+1 starts tile k as soon as stage N finishes it — stages
  // overlap across tiles instead of running frame-at-a-time. Requires the
  // first stage's kernel to be tileable and the frame to tile *exactly*
  // (a partial tail tile cannot feed a downstream stage expecting a full
  // upstream tile); violations are kTilingUnsupported. Later stages need
  // no tile geometry — each runs its ordinary base shape once per tile.
  Pipeline& tile();

  // Validate the whole chain (every stage known, buffer-capable, sizes
  // compatible), then execute the stages in order through the Session's
  // engine. Any stage failure aborts the run with that stage's error.
  [[nodiscard]] Result<PipelineRun> run();

  // Validate here (errors surface synchronously), then run the pipeline
  // on a driver thread and return immediately. Consumes the Pipeline.
  [[nodiscard]] Result<SubmittedPipeline> submit();

 private:
  friend class Session;
  explicit Pipeline(Session* session) : session_(session) {}

  // The validated chain, ready to execute.
  struct Validated {
    std::vector<runtime::KernelJob> jobs;          // per-stage prototypes
    std::vector<kernels::BufferSpec> specs;
    runtime::TileGeometry geom;                    // one tile when untiled
  };
  [[nodiscard]] Result<Validated> validate() const;
  [[nodiscard]] Result<PipelineRun> run_tiled(Validated v);

  Session* session_;
  std::vector<Request> stages_;
  std::span<const uint8_t> input_{};
  std::span<uint8_t> output_{};
  bool tile_ = false;
};

}  // namespace subword::api
