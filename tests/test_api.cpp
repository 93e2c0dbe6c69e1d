// Facade tests: the api:: layer must validate every knob at build time and
// report through Result/ApiError (never throw), the user-owned-buffer path
// must be bit-exact against the scalar references, pipelines must compose
// stage buffers end-to-end, and Sessions sharing a cache must prepare each
// unique configuration exactly once.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "api/session.h"
#include "kernels/motion_est.h"
#include "kernels/video_pipeline_ref.h"
#include "ref/workload.h"

using namespace subword;
using api::ErrorCode;
using api::Session;
using kernels::composed_video_pipeline_ref;

// -- Registry enumeration ----------------------------------------------------

TEST(SessionKernels, EnumeratesTheFullRegistryWithDescriptors) {
  Session session({.workers = 1, .cache = nullptr});
  const auto& infos = session.kernels();
  ASSERT_EQ(infos.size(), kernels::all_kernels().size());
  EXPECT_EQ(infos.front().name, "FIR12");
  for (const auto& info : infos) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
    // Every registry kernel today carries a hand-written SPU variant.
    EXPECT_TRUE(info.has_manual_spu()) << info.name;
  }
  // The buffer-capable subset advertises exact byte contracts.
  const auto fir = session.kernel("FIR12");
  ASSERT_TRUE(fir.ok());
  EXPECT_EQ(fir->buffers.input_bytes, 300u);
  EXPECT_EQ(fir->buffers.output_bytes, 300u);
  const auto dct = session.kernel("DCT");
  ASSERT_TRUE(dct.ok());
  EXPECT_FALSE(dct->buffers.supported());
}

TEST(SessionKernels, LookupIsCaseInsensitive) {
  Session session({.workers = 1, .cache = nullptr});
  EXPECT_TRUE(session.kernel("fir12").ok());
  EXPECT_TRUE(session.kernel("matrix transpose").ok());
  const auto missing = session.kernel("NoSuchKernel");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kUnknownKernel);
}

// -- Builder validation ------------------------------------------------------

TEST(RequestBuilder, UnknownKernelIsATypedError) {
  Session session({.workers = 1, .cache = nullptr});
  const auto r = session.request("NoSuchKernel").run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnknownKernel);
  EXPECT_NE(r.error().message.find("NoSuchKernel"), std::string::npos);
}

TEST(RequestBuilder, RepeatsMustBePositive) {
  Session session({.workers = 1, .cache = nullptr});
  const auto r = session.request("FIR12").repeats(0).run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

TEST(RequestBuilder, BuildResolvesCanonicalNameAndDefaults) {
  Session session({.workers = 1, .cache = nullptr});
  const auto job = session.request("fir12").repeats(3).build();
  ASSERT_TRUE(job.ok());
  EXPECT_EQ(job->kernel, "FIR12");  // canonical registry spelling
  EXPECT_EQ(job->repeats, 3);
  EXPECT_FALSE(job->use_spu);  // default is the MMX baseline
}

TEST(RequestBuilder, BufferSizeMismatchIsCaughtBeforeSubmission) {
  Session session({.workers = 1, .cache = nullptr});
  std::vector<int16_t> ten(10, 0);
  const auto r = session.request("FIR12")
                     .input(std::span<const int16_t>(ten))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kBufferSizeMismatch);

  std::vector<int16_t> in(150, 0);
  std::vector<int16_t> out(7, 0);
  const auto r2 = session.request("FIR12")
                      .input(std::span<const int16_t>(in))
                      .output(std::span<int16_t>(out))
                      .run();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().code, ErrorCode::kBufferSizeMismatch);
}

TEST(RequestBuilder, BuffersOnANonBufferKernelAreRejected) {
  Session session({.workers = 1, .cache = nullptr});
  std::vector<uint8_t> bytes(64, 0);
  const auto r = session.request("DCT")
                     .input(std::span<const uint8_t>(bytes))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kBuffersUnsupported);
}

TEST(Result, ValueOnErrorThrowsLogicError) {
  Session session({.workers = 1, .cache = nullptr});
  auto r = session.request("NoSuchKernel").run();
  ASSERT_FALSE(r.ok());
  EXPECT_THROW((void)r.value(), std::logic_error);
}

// -- Execution through the facade -------------------------------------------

TEST(RequestRun, BaselineManualAndAutoAllVerify) {
  Session session({.workers = 2, .cache = nullptr});
  const auto base = session.request("FIR22").repeats(2).baseline().run();
  ASSERT_TRUE(base.ok()) << base.error().to_string();
  EXPECT_TRUE(base->run.verified);

  const auto manual = session.request("FIR22")
                          .repeats(2)
                          .spu(core::kConfigA)
                          .manual_spu()
                          .run();
  ASSERT_TRUE(manual.ok()) << manual.error().to_string();
  EXPECT_TRUE(manual->run.verified);
  EXPECT_GT(manual->run.stats.spu_routed_ops, 0u);

  const auto autod = session.request("FIR22")
                         .repeats(2)
                         .spu(core::kConfigA)
                         .auto_orchestrate()
                         .run();
  ASSERT_TRUE(autod.ok()) << autod.error().to_string();
  EXPECT_TRUE(autod->run.verified);
  ASSERT_NE(autod->run.orchestration, nullptr);
  EXPECT_GT(autod->run.orchestration->removed_static, 0);
}

TEST(RequestRun, UserOwnedBuffersAreBitExactAgainstTheReference) {
  Session session({.workers = 2, .cache = nullptr});
  const auto spec = session.kernel("FIR12")->buffers;
  const auto x = ref::make_samples(spec.input_bytes / 2, 0xABCDEF);
  std::vector<int16_t> y(spec.output_bytes / 2, 0);
  const auto r = session.request("FIR12")
                     .spu(core::kConfigA)
                     .auto_orchestrate()
                     .input(std::span<const int16_t>(x))
                     .output(std::span<int16_t>(y))
                     .run();
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  // verify_bound checked the output region against ref::fir over the
  // caller's samples; the output span is read back from that same region,
  // so verified + a non-trivial readback is the bit-exactness check.
  EXPECT_TRUE(r->run.verified);
  bool nonzero = false;
  for (const auto v : y) nonzero = nonzero || v != 0;
  EXPECT_TRUE(nonzero);
}

TEST(RequestRun, OutOfContractInputIsAVerificationErrorNotSilentCorruption) {
  Session session({.workers = 1, .cache = nullptr});
  // 2D Convolution's bit-exactness contract requires pixel-range input;
  // amplitude-30000 lanes make the kernel's wrapping 16-bit accumulation
  // diverge from the scalar reference. The facade must refuse to hand the
  // divergent output back as a success.
  const auto spec = session.kernel("2D Convolution")->buffers;
  std::vector<int16_t> wild(spec.input_bytes / 2, 30000);
  std::vector<int16_t> out(spec.output_bytes / 2, 0);
  const auto r = session.request("2D Convolution")
                     .spu(core::kConfigD)
                     .input(std::span<const int16_t>(wild))
                     .output(std::span<int16_t>(out))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kVerificationFailed);
  // And the failed run must not have clobbered the caller's output buffer.
  for (const auto v : out) ASSERT_EQ(v, 0);
}

TEST(RequestRun, DoubleWaitIsATypedErrorNotAThrow) {
  Session session({.workers = 1, .cache = nullptr});
  auto submitted = session.request("FIR12").submit();
  ASSERT_TRUE(submitted.ok());
  const auto first = submitted->wait();
  EXPECT_TRUE(first.ok()) << first.error().to_string();
  const auto second = submitted->wait();  // must not throw std::future_error
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kInvalidArgument);
}

// No build-time probe: the engine's cached lowering is the only thing that
// decides whether a shape runs natively. FFT1024 at 512 repeats passes
// build() and is then rejected by the lowering's runaway guard (max_ops);
// the rejection arrives typed from run() and wait(), naming op and config.
TEST(RequestRun, NativeLoweringRejectionArrivesTypedFromRunAndWait) {
  Session session({.workers = 1, .cache = nullptr});
  const auto request = [&] {
    return session.request("FFT1024")
        .repeats(512)
        .spu(core::kConfigA)
        .manual_spu()
        .backend(api::ExecBackend::kNativeSwar);
  };
  ASSERT_TRUE(request().build().ok());
  const auto expect_rejection = [](const api::Result<api::Response>& r) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kBackendUnsupported);
    EXPECT_NE(r.error().message.find("max_ops"), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("[op "), std::string::npos)
        << r.error().message;
    EXPECT_NE(r.error().message.find("config A]"), std::string::npos)
        << r.error().message;
  };
  expect_rejection(request().run());
  auto submitted = request().submit();
  ASSERT_TRUE(submitted.ok()) << submitted.error().to_string();
  expect_rejection(submitted->wait());
}

TEST(RequestRun, SubmitAfterShutdownIsASessionShutdownError) {
  Session session({.workers = 1, .cache = nullptr});
  session.shutdown();
  const auto r = session.request("FIR12").run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kSessionShutdown);
}

// -- Pipeline composition ----------------------------------------------------

TEST(Pipeline, EmptyPipelineIsInvalid) {
  Session session({.workers = 1, .cache = nullptr});
  const auto r = session.pipeline().run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

TEST(Pipeline, InputSizeMustMatchFirstStage) {
  Session session({.workers = 1, .cache = nullptr});
  std::vector<int16_t> tiny(8, 0);
  const auto r = session.pipeline()
                     .then(session.request("Color Convert"))
                     .input(std::span<const int16_t>(tiny))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kBufferSizeMismatch);
}

TEST(Pipeline, OutputSizeMustMatchLastStage) {
  Session session({.workers = 1, .cache = nullptr});
  const auto rgb = ref::make_pixels(3 * 256, 0x5);
  std::vector<uint8_t> small_out(16);
  const auto r = session.pipeline()
                     .then(session.request("Color Convert"))
                     .input(std::span<const int16_t>(rgb))
                     .output(std::span<uint8_t>(small_out))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kBufferSizeMismatch);
}

TEST(Pipeline, IncompatibleStageOrderIsAPipelineMismatch) {
  Session session({.workers = 1, .cache = nullptr});
  // SAD emits 32 bytes; Color Convert needs 1536 — unchainable.
  const auto cur = ref::make_bytes(kernels::MotionEstKernel::kBlockBytes, 1);
  const auto r = session.pipeline()
                     .then(session.request("Motion Estimation"))
                     .then(session.request("Color Convert"))
                     .input(std::span<const uint8_t>(cur))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kPipelineMismatch);
}

TEST(Pipeline, NonBufferKernelCannotBeAStage) {
  Session session({.workers = 1, .cache = nullptr});
  std::vector<uint8_t> in(1536, 0);
  const auto r = session.pipeline()
                     .then(session.request("Color Convert"))
                     .then(session.request("DCT"))
                     .input(std::span<const uint8_t>(in))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kBuffersUnsupported);
}

TEST(Pipeline, StagesMustNotBindTheirOwnBuffers) {
  Session session({.workers = 1, .cache = nullptr});
  std::vector<uint8_t> in(1536, 0);
  const auto r = session.pipeline()
                     .then(session.request("Color Convert")
                               .input(std::span<const uint8_t>(in)))
                     .input(std::span<const uint8_t>(in))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

TEST(Pipeline, StageFromAnotherSessionIsRejected) {
  Session a({.workers = 1, .cache = nullptr});
  Session b({.workers = 1, .cache = nullptr});
  std::vector<uint8_t> in(1536, 0);
  const auto r = a.pipeline()
                     .then(b.request("Color Convert"))
                     .input(std::span<const uint8_t>(in))
                     .run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
}

TEST(Pipeline, ThreeStageVideoPipelineIsBitExactAgainstComposedRefs) {
  Session session({.workers = 2, .cache = nullptr});
  for (const uint64_t seed : {0x1ull, 0x22ull, 0x333ull}) {
    const auto rgb = ref::make_pixels(3 * 256, seed);
    auto run =
        session.pipeline()
            .then(session.request("Color Convert").spu(core::kConfigD))
            .then(session.request("2D Convolution").spu(core::kConfigD))
            .then(session.request("Motion Estimation").spu(core::kConfigD))
            .input(std::span<const int16_t>(rgb))
            .run();
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    ASSERT_EQ(run->stages.size(), 3u);
    for (const auto& st : run->stages) {
      EXPECT_TRUE(st.response.run.verified) << st.kernel;
    }
    // End-to-end: the final SADs equal ref_color ∘ ref_conv2d ∘ ref_sad.
    const auto want = composed_video_pipeline_ref(rgb);
    ASSERT_EQ(run->output.size(), want.size() * 2);
    std::vector<int16_t> got(want.size());
    std::memcpy(got.data(), run->output.data(), run->output.size());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(Pipeline, AutoOrchestratedStagesMatchManualStages) {
  Session session({.workers = 2, .cache = nullptr});
  const auto rgb = ref::make_pixels(3 * 256, 0x77);
  auto manual =
      session.pipeline()
          .then(session.request("Color Convert").spu(core::kConfigD))
          .then(session.request("2D Convolution").spu(core::kConfigD))
          .then(session.request("Motion Estimation").spu(core::kConfigD))
          .input(std::span<const int16_t>(rgb))
          .run();
  auto autod = session.pipeline()
                   .then(session.request("Color Convert")
                             .spu(core::kConfigD)
                             .auto_orchestrate())
                   .then(session.request("2D Convolution")
                             .spu(core::kConfigD)
                             .auto_orchestrate())
                   .then(session.request("Motion Estimation")
                             .spu(core::kConfigD)
                             .auto_orchestrate())
                   .input(std::span<const int16_t>(rgb))
                   .run();
  ASSERT_TRUE(manual.ok()) << manual.error().to_string();
  ASSERT_TRUE(autod.ok()) << autod.error().to_string();
  EXPECT_EQ(manual->output, autod->output);
}

TEST(Pipeline, ReplayedPipelineHitsTheCacheWithFreshData) {
  Session session({.workers = 2, .cache = nullptr});
  for (int frame = 0; frame < 4; ++frame) {
    const auto rgb =
        ref::make_pixels(3 * 256, 0x9000 + static_cast<uint64_t>(frame));
    auto run =
        session.pipeline()
            .then(session.request("Color Convert").spu(core::kConfigD))
            .then(session.request("2D Convolution").spu(core::kConfigD))
            .then(session.request("Motion Estimation").spu(core::kConfigD))
            .input(std::span<const int16_t>(rgb))
            .run();
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    if (frame > 0) {
      EXPECT_TRUE(run->all_cache_hits) << "frame " << frame;
    }
    // An untiled run is one tile, and each stage one job on one worker.
    EXPECT_EQ(run->tiles, 1u);
    for (const auto& st : run->stages) {
      EXPECT_EQ(st.response.jobs_fanned_out, 1u) << st.kernel;
      EXPECT_EQ(st.response.tile_cache_hits, frame > 0 ? 1u : 0u)
          << st.kernel;
      EXPECT_EQ(st.response.workers_used, 1) << st.kernel;
    }
  }
  const auto s = session.stats();
  EXPECT_EQ(s.cache.misses, 3u);  // one preparation per stage, ever
}

// -- Concurrency -------------------------------------------------------------

TEST(SessionSharing, ConcurrentSessionsShareOneCache) {
  auto cache = std::make_shared<runtime::OrchestrationCache>();
  constexpr int kSessions = 4;
  constexpr int kRequestsEach = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&] {
      Session session({.workers = 2, .cache = cache});
      for (int i = 0; i < kRequestsEach; ++i) {
        const auto r = session.request("DCT")
                           .spu(core::kConfigA)
                           .auto_orchestrate()
                           .run();
        if (!r.ok() || !r->run.verified) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every session replayed the same single preparation.
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits,
            static_cast<uint64_t>(kSessions * kRequestsEach - 1));
}

TEST(SessionSharing, ConcurrentPipelinesOnOneSessionStayExact) {
  Session session({.workers = 4, .cache = nullptr});
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto rgb =
          ref::make_pixels(3 * 256, 0xC0FFEE + static_cast<uint64_t>(t));
      auto run =
          session.pipeline()
              .then(session.request("Color Convert").spu(core::kConfigD))
              .then(session.request("2D Convolution").spu(core::kConfigD))
              .then(session.request("Motion Estimation").spu(core::kConfigD))
              .input(std::span<const int16_t>(rgb))
              .run();
      if (!run.ok()) {
        ++failures;
        return;
      }
      const auto want = composed_video_pipeline_ref(rgb);
      std::vector<int16_t> got(want.size());
      std::memcpy(got.data(), run->output.data(), run->output.size());
      if (got != want) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}
