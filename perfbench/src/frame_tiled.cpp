// frame_tiled — closed loop, one 1080p frame in flight.
//
// Each frame is a seeded interleaved-RGB 1080p frame sent as one tiled
// Color Convert request (config D, auto-orchestrated, native backend) on a
// Session with `threads` workers: 8100 tiles sharing one cached
// preparation. No service layer is involved, so runtime fan-out and the
// per-tile fixed execute costs dominate.
#include <algorithm>
#include <cmath>

#include "api/session.h"
#include "common.h"
#include "kernels/registry.h"
#include "layers.h"
#include "ref/ref_color.h"
#include "ref/workload.h"
#include "runtime/tiling.h"

namespace perfbench {

namespace {

using namespace subword;

constexpr const char* kKernel = "Color Convert";
constexpr size_t kFramePixels = 1920ull * 1080;
constexpr int kFrames = 2;  // distinct seeded frames, sent alternately
constexpr size_t kFramesPerGroup = 8;  // ~1 s of frames per summary group

api::Request frame_request(api::Session& s, const std::vector<uint8_t>& frame,
                           std::vector<uint8_t>& y) {
  api::Request r = s.request(kKernel);
  r.spu(core::kConfigD)
      .auto_orchestrate()
      .backend(api::ExecBackend::kNativeSwar)
      .tile()
      .input(std::span<const uint8_t>(frame))
      .output(std::span<uint8_t>(y));
  return r;
}

// Send frames until `seconds` pass; returns per-frame latencies in ms.
std::vector<double> send_frames(api::Session& s,
                                const std::vector<std::vector<uint8_t>>& frames,
                                const std::vector<std::vector<uint8_t>>& want,
                                double seconds, Report& rep, Tracer* tracer,
                                std::vector<double>* prepare_us_per_tile) {
  std::vector<double> lat;
  std::vector<uint8_t> y(want[0].size());
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; lat.empty() || now_ns() < deadline; ++i) {
    const size_t f = i % frames.size();
    std::fill(y.begin(), y.end(), 0);
    const int64_t t0 = now_ns();
    auto r = frame_request(s, frames[f], y).run();
    const int64_t t1 = now_ns();
    if (tracer != nullptr) tracer->add("frame", t0, t1, -1, i);
    lat.push_back(static_cast<double>(t1 - t0) * 1e-6);
    ++rep.attempted;
    if (!r.ok()) {
      rep.fail("frame: " + r.error().to_string());
    } else if (y != want[f]) {
      rep.fail("frame Y plane differs from ref::rgb_to_ycbcr");
    } else if (prepare_us_per_tile != nullptr) {
      prepare_us_per_tile->push_back(static_cast<double>(r->prepare_ns) * 1e-3 /
                                     static_cast<double>(r->jobs_fanned_out));
    }
  }
  return lat;
}

}  // namespace

Report run_frame_tiled(const Options& opts, Tracer* tracer) {
  Report rep;
  // Memory-bound tiles (each clears a 1 MiB arena) do not follow the
  // compute-bound calibration loop: scaled, ten-seed spreads were 0.10-0.25
  // against 0.05-0.11 as measured.
  rep.host_scaled = false;
  std::vector<std::vector<uint8_t>> frames;
  for (int f = 0; f < kFrames; ++f) {
    frames.push_back(make_input(3 * kFramePixels * 2,
                                opts.seed * 0x10001ull + static_cast<uint64_t>(f)));
  }
  const auto* info = kernels::find_kernel_info(kKernel);

  // -- Setup: session, capability probes, the shape's one preparation -----
  api::Session session({.workers = opts.threads, .cache = nullptr});
  probe_registry(opts, rep);
  {
    const std::vector<uint8_t> tile(frames[0].begin(),
                                    frames[0].begin() +
                                        static_cast<ptrdiff_t>(info->buffers.input_bytes));
    std::vector<uint8_t> out(info->buffers.output_bytes);
    if (!frame_request(session, tile, out).run().ok()) {
      rep.fail("warm-up tile");
      return rep;
    }
  }
  mark_ready();
  if (opts.setup_only) return rep;

  // -- References: the Y plane of every frame ------------------------------
  std::vector<std::vector<uint8_t>> want;
  for (const auto& f : frames) {
    const std::span<const int16_t> lanes(
        reinterpret_cast<const int16_t*>(f.data()), f.size() / 2);
    const auto y = ref::rgb_to_ycbcr(lanes).y;
    std::vector<uint8_t> bytes(y.size() * 2);
    std::copy_n(reinterpret_cast<const uint8_t*>(y.data()), bytes.size(),
                bytes.begin());
    want.push_back(std::move(bytes));
  }
  const auto geom = runtime::plan_tiles(info->buffers, frames[0].size());
  if (!geom) {
    rep.fail("1080p frame does not tile");
    return rep;
  }
  uint64_t tile_cycles = 0;
  {
    auto r = session.request(kKernel).spu(core::kConfigD).auto_orchestrate().run();
    if (!r.ok() || !r->cycles()) {
      rep.fail("modelled tile cycles");
      return rep;
    }
    tile_cycles = *r->cycles();
  }

  const auto stats0 = session.stats();
  const double S = opts.seconds;
  if (!opts.trace) {
    const auto lat = send_frames(session, frames, want, S, rep, nullptr, nullptr);
    const Summary sm = summarize(chunk(lat, kFramesPerGroup), 90);
    rep.metric("p50_ms", sm.p50_ms, "ms");
    rep.metric("tail_ms", sm.tail_ms, "ms");
    rep.metric("ops_per_s", sm.ops_per_s, "1/s");
    rep.metric("model_cycles",
               static_cast<double>(tile_cycles * geom->tiles), "cycles");
    rep.note("frames_per_s", sm.ops_per_s, "1/s");
    rep.note("frames", static_cast<double>(sm.samples), "count");
    rep.note("groups", static_cast<double>(sm.groups), "count");
    rep.note("tail_percentile", 90, "%");
    rep.note("tiles_per_frame", static_cast<double>(geom->tiles), "count");
  } else {
    Tracer& t = *tracer;
    // Untraced and traced stretches alternate, so both see the same host.
    std::vector<double> plain, traced_lat, prepare_us;
    const auto eng0 = session.stats();
    for (int i = 0; i < 6; ++i) {
      const auto a = send_frames(session, frames, want, 0.05 * S, rep, nullptr,
                                 nullptr);
      const auto b =
          send_frames(session, frames, want, 0.05 * S, rep, &t, &prepare_us);
      plain.insert(plain.end(), a.begin(), a.end());
      traced_lat.insert(traced_lat.end(), b.begin(), b.end());
    }
    const auto eng1 = session.stats();
    rep.metric("trace.overhead_pct",
               100.0 * (percentile(traced_lat, 50) - percentile(plain, 50)) /
                   percentile(plain, 50),
               "%");
    emit_engine_deltas(eng0, eng1, rep);
    rep.metric("runtime.cache_misses",
               static_cast<double>(eng1.cache.misses - stats0.cache.misses),
               "count");
    rep.metric("runtime.prepare_us", mean(prepare_us), "us");

    // api: validation of the frame request, and the whole tiled run.
    {
      std::vector<uint8_t> y(want[0].size());
      auto r = frame_request(session, frames[0], y);
      for (int i = 0; i < 200; ++i) {
        traced(t, "api.build", -1, static_cast<uint64_t>(i),
               [&] { return r.build().ok(); });
      }
    }
    rep.metric("api.build_us", t.mean_us("api.build"), "us");
    rep.metric("api.run_us", t.mean_us("frame"), "us");

    // runtime: the same frames through submit_tiled / gather_tiled, so
    // scatter and gather are timed apart.
    {
      runtime::BatchEngine engine({.workers = opts.threads, .cache = nullptr});
      runtime::KernelJob proto;
      proto.kernel = kKernel;
      proto.use_spu = true;
      proto.mode = kernels::SpuMode::Auto;
      proto.cfg = core::kConfigD;
      proto.backend = kernels::ExecBackend::kNativeSwar;
      std::vector<uint8_t> y(want[0].size());
      double workers_used = 0;
      const int64_t deadline = now_ns() + static_cast<int64_t>(0.2 * S * 1e9);
      uint64_t i = 0;
      for (; i < 2 || now_ns() < deadline; ++i) {
        const size_t f = i % frames.size();
        const int64_t a = now_ns();
        auto sub = runtime::submit_tiled(engine, proto, *geom, frames[f], y);
        const int64_t b = now_ns();
        auto res = runtime::gather_tiled(std::move(sub));
        const int64_t c = now_ns();
        const int64_t root = t.add("runtime.frame", a, c, -1, i);
        t.add("runtime.scatter", a, b, root, i);
        t.add("runtime.gather", b, c, root, i);
        ++rep.attempted;
        if (!res.result.ok || y != want[f]) rep.fail("runtime tiled frame");
        workers_used += res.workers_used;
      }
      rep.metric("runtime.scatter_ms", t.mean_us("runtime.scatter") * 1e-3,
                 "ms");
      rep.metric("runtime.gather_ms", t.mean_us("runtime.gather") * 1e-3, "ms");
      rep.metric("runtime.workers_used", workers_used / static_cast<double>(i),
                 "count");
    }
    rep.metric("runtime.history_record_ns", history_record_ns({kKernel}), "ns");

    // kernels / backend / core: the frame's own tiles, replayed by phase.
    const auto kernel = kernels::make_kernel(kKernel);
    const int removed = prepare_replica(*kernel, 1, true, kernels::SpuMode::Auto,
                                        core::kConfigD, true, t);
    auto p = kernels::prepare_spu(*kernel, 1, core::kConfigD,
                                  kernels::SpuMode::Auto);
    kernels::lower_native(*kernel, p);
    std::vector<std::vector<uint8_t>> tile_in, tile_out;
    for (size_t i = 0; i < 64; ++i) {
      const size_t tile = i * 127 % geom->full_tiles;
      const auto in0 = frames[0].begin() +
                       static_cast<ptrdiff_t>(tile * geom->input_stride);
      tile_in.emplace_back(in0, in0 + static_cast<ptrdiff_t>(geom->tile_input_bytes));
      const auto out0 = want[0].begin() +
                        static_cast<ptrdiff_t>(tile * geom->tile_output_bytes);
      tile_out.emplace_back(out0,
                            out0 + static_cast<ptrdiff_t>(geom->tile_output_bytes));
    }
    const double err = native_phases(*kernel, p, tile_in, tile_out, 2000, t, rep);
    rep.metric("trace.phase_sum_error_pct", std::abs(err), "%");
    rep.metric("kernels.prepare_ms", t.mean_us("kernels.prepare") * 1e-3, "ms");
    rep.metric("backend.lower_ms", t.mean_us("backend.lower") * 1e-3, "ms");
    rep.metric("core.orchestrate_ms", t.mean_us("core.orchestrate") * 1e-3,
               "ms");
    rep.metric("core.removed_permutations", removed, "count");
  }
  return rep;
}

}  // namespace perfbench
