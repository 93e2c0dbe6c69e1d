// test_backend_native.cpp — differential verification of the native-SWAR
// execution backend against the cycle-level simulator.
//
// The backend's whole contract is bit-exactness: replaying a lowered trace
// must leave the memory arena and the MMX register file byte-identical to
// simulating the program it was lowered from. The suite checks that for
// every registry kernel across baseline / manual SPU / auto-orchestrated
// preparations under every registered crossbar config, with both
// synthetic and caller-bound buffers, at the runner, engine (cache) and
// facade (Request/Pipeline) levels — plus the lowering walker's rejection
// paths for programs that genuinely cannot be lowered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/session.h"
#include "backend/lowering.h"
#include "backend/native.h"
#include "core/mmio.h"
#include "core/setup.h"
#include "core/spu.h"
#include "isa/assembler.h"
#include "kernels/registry.h"
#include "kernels/runner.h"
#include "kernels/video_pipeline_ref.h"
#include "ref/workload.h"
#include "sim/machine.h"

namespace subword {
namespace {

using kernels::ExecBackend;
using kernels::MediaKernel;
using kernels::PreparedProgram;
using kernels::SpuMode;

// Simulate a prepared program on a fresh machine (the runner's attach
// logic, kept local so the test can inspect the machine afterwards).
struct SimResult {
  std::vector<uint8_t> arena;
  sim::MmxRegFile regs;
  bool verified = false;
};

SimResult simulate(const MediaKernel& k, const PreparedProgram& p) {
  sim::Machine m(p.program, kernels::kMemBytes, p.pc);
  std::optional<core::Spu> spu;
  std::optional<core::SpuMmio> mmio;
  if (p.use_spu) {
    spu.emplace(p.cfg, p.num_contexts);
    mmio.emplace(&*spu);
    m.memory().map_device(p.mmio_base, core::SpuMmio::kWindowSize, &*mmio);
    m.set_router(&*spu);
  }
  k.init_memory(m.memory());
  m.run();
  SimResult r;
  r.arena = m.memory().read_vector<uint8_t>(0, kernels::kMemBytes);
  r.regs = m.mmx();
  r.verified = k.verify(m.memory());
  return r;
}

// Replay the same preparation natively and compare arena + register file.
void expect_bitexact(const MediaKernel& k, PreparedProgram p,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const SimResult sim = simulate(k, p);
  ASSERT_TRUE(sim.verified) << "simulator run failed verification";

  ASSERT_NO_THROW(kernels::lower_native(k, p));
  sim::Memory mem(kernels::kMemBytes);
  k.init_memory(mem);
  backend::NativeState st;
  st.mem = &mem;
  backend::run_trace(*p.native, st);

  EXPECT_TRUE(k.verify(mem)) << "native run failed verification";
  const auto native_arena = mem.read_vector<uint8_t>(0, kernels::kMemBytes);
  ASSERT_EQ(sim.arena.size(), native_arena.size());
  // Whole-arena comparison: every byte the program touched — outputs,
  // scratch, everything — must match, not just the verified region.
  size_t mismatches = 0;
  for (size_t i = 0; i < sim.arena.size(); ++i) {
    if (sim.arena[i] != native_arena[i] && ++mismatches <= 4) {
      ADD_FAILURE() << "arena byte " << i << ": sim "
                    << static_cast<int>(sim.arena[i]) << " native "
                    << static_cast<int>(native_arena[i]);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "total arena mismatches";
  for (int r = 0; r < isa::kNumMmxRegs; ++r) {
    EXPECT_EQ(sim.regs.read(static_cast<uint8_t>(r)).bits(),
              st.regs.read(static_cast<uint8_t>(r)).bits())
        << "MM" << r;
  }
}

// Every registry kernel, every preparation shape the facade can produce,
// every registered config, with loop re-entry (repeats=2). This is the
// proof that the whole wire-reachable space lowers and replays bit-exactly:
// nothing at runtime probes the lowering ahead of the cached preparation.
TEST(BackendNativeDifferential, EveryLowerableKernelEveryPreparation) {
  constexpr int kRepeats = 2;
  for (const auto& info : kernels::kernel_infos()) {
    const auto k = kernels::make_kernel(info.name);
    expect_bitexact(*k, kernels::prepare_baseline(*k, kRepeats),
                    info.name + "/baseline");
    for (const auto& cfg : core::kAllConfigs) {
      const std::string cfg_name(cfg.name);
      if (info.has_manual_spu()) {
        expect_bitexact(*k,
                        kernels::prepare_spu(*k, kRepeats, cfg, SpuMode::Manual),
                        info.name + "/manual/" + cfg_name);
      }
      expect_bitexact(*k,
                      kernels::prepare_spu(*k, kRepeats, cfg, SpuMode::Auto),
                      info.name + "/auto/" + cfg_name);
    }
  }
}

// Caller-bound buffers: the native path must honor bind_input/verify_bound
// and produce the same output bytes the simulator produces for the same
// input, end to end through one Session.
TEST(BackendNativeDifferential, BoundBuffersMatchSimulatorThroughFacade) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (const auto& info : session.kernels()) {
    if (!info.buffers.supported()) continue;
    SCOPED_TRACE(info.name);
    // In-contract input: the kernel's own synthetic workload bytes.
    sim::Memory staging(kernels::kMemBytes);
    kernels::make_kernel(info.name)->init_memory(staging);
    const auto input = staging.read_vector<uint8_t>(
        info.buffers.input_addr, info.buffers.input_bytes);

    std::vector<uint8_t> sim_out(info.buffers.output_bytes, 0xAA);
    std::vector<uint8_t> native_out(info.buffers.output_bytes, 0x55);
    auto sim_resp = session.request(info.name)
                        .spu(core::kConfigD)
                        .auto_orchestrate()
                        .input(std::span<const uint8_t>(input))
                        .output(std::span<uint8_t>(sim_out))
                        .run();
    ASSERT_TRUE(sim_resp.ok()) << sim_resp.error().to_string();
    auto native_resp = session.request(info.name)
                           .spu(core::kConfigD)
                           .auto_orchestrate()
                           .backend(ExecBackend::kNativeSwar)
                           .input(std::span<const uint8_t>(input))
                           .output(std::span<uint8_t>(native_out))
                           .run();
    ASSERT_TRUE(native_resp.ok()) << native_resp.error().to_string();
    EXPECT_EQ(sim_out, native_out);
  }
}

// Regression (cache keying): one Session, the same kernel/config under
// both backends — exactly one cache entry and one miss per (kernel, cfg,
// backend) key; replays hit.
TEST(BackendNative, OneCacheEntryPerBackendKey) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (int round = 0; round < 2; ++round) {
    for (const auto backend :
         {ExecBackend::kSimulator, ExecBackend::kNativeSwar}) {
      auto resp = session.request("fir12")
                      .repeats(2)
                      .spu(core::kConfigA)
                      .auto_orchestrate()
                      .backend(backend)
                      .run();
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
      EXPECT_EQ(resp->cache_hit, round > 0);
    }
  }
  const auto stats = session.stats();
  EXPECT_EQ(stats.cache.entries, 2u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 2u);
}

// The native backend runs no cycle model: stats report the dynamic
// instruction count of the replaced stream and zero cycles.
TEST(BackendNative, StatsReportInstructionsNotCycles) {
  api::Session session({.workers = 1, .cache = nullptr});
  auto sim_resp = session.request("fir12").repeats(2).run();
  ASSERT_TRUE(sim_resp.ok()) << sim_resp.error().to_string();
  auto native_resp = session.request("fir12")
                         .repeats(2)
                         .backend(ExecBackend::kNativeSwar)
                         .run();
  ASSERT_TRUE(native_resp.ok()) << native_resp.error().to_string();
  EXPECT_EQ(native_resp->run.stats.cycles, 0u);
  EXPECT_EQ(native_resp->run.stats.instructions,
            sim_resp->run.stats.instructions);
}

// Pipeline-level differential: the whole video path executed on the native
// backend matches the composed scalar reference and the simulator-backend
// pipeline, frame for frame.
TEST(BackendNativeDifferential, VideoPipelineFullyNative) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (uint64_t frame = 0; frame < 3; ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    const auto rgb = ref::make_pixels(3 * 256, 0x56494452 + frame);
    auto build = [&](ExecBackend backend) {
      return session.pipeline()
          .then(session.request("Color Convert")
                    .spu(core::kConfigD)
                    .backend(backend))
          .then(session.request("2D Convolution")
                    .spu(core::kConfigD)
                    .backend(backend))
          .then(session.request("Motion Estimation")
                    .spu(core::kConfigD)
                    .backend(backend))
          .input(std::span<const int16_t>(rgb))
          .run();
    };
    auto sim_run = build(ExecBackend::kSimulator);
    ASSERT_TRUE(sim_run.ok()) << sim_run.error().to_string();
    auto native_run = build(ExecBackend::kNativeSwar);
    ASSERT_TRUE(native_run.ok()) << native_run.error().to_string();
    EXPECT_EQ(sim_run->output, native_run->output);

    const auto want = kernels::composed_video_pipeline_ref(rgb);
    const auto got = kernels::bytes_as_i16(native_run->output);
    EXPECT_EQ(want, got);
  }
}

// -- Lowering rejection paths ------------------------------------------------

backend::LoweringSpec plain_spec() {
  backend::LoweringSpec spec;
  spec.mem_bytes = kernels::kMemBytes;
  return spec;
}

// --- arena reuse ---------------------------------------------------------------
// Reused arenas reset only the pages earlier jobs dirtied (sim::Memory's
// dirty-page contract), so a job on a reused arena must end byte-identical
// to the same job on a fresh one.

// In-contract caller bytes for a kernel's bound input (i16 lanes in the
// range the scalar references assume).
std::vector<uint8_t> bound_input(const kernels::KernelInfo& info, uint64_t seed) {
  const size_t bytes = info.buffers.input_bytes;
  if (info.name == "Motion Estimation") return ref::make_bytes(bytes, seed);
  const auto lanes = info.name == "FIR12" ? ref::make_samples(bytes / 2, seed)
                                          : ref::make_pixels(bytes / 2, seed);
  std::vector<uint8_t> out(bytes);
  std::memcpy(out.data(), lanes.data(), bytes);
  return out;
}

TEST(ArenaReuse, ScratchArenasEndEveryJobLikeFreshOnes) {
  struct Job {
    const kernels::KernelInfo* info;
    const PreparedProgram* prepared;
    bool native;
    bool bound;
  };
  std::vector<std::unique_ptr<MediaKernel>> owned;
  std::vector<PreparedProgram> preps;
  preps.reserve(4 * kernels::kernel_infos().size());
  std::vector<Job> jobs;
  for (const auto& info : kernels::kernel_infos()) {
    owned.push_back(kernels::make_kernel(info.name));
    const MediaKernel& k = *owned.back();
    for (const bool spu : {false, true}) {
      PreparedProgram p = spu ? kernels::prepare_spu(k, 1, core::kConfigD, SpuMode::Auto)
                              : kernels::prepare_baseline(k, 1);
      preps.push_back(p);
      const PreparedProgram* sim_p = &preps.back();
      kernels::lower_native(k, p);
      preps.push_back(std::move(p));
      const PreparedProgram* native_p = &preps.back();
      for (const bool bound : {false, true}) {
        if (bound && !info.buffers.supported()) continue;
        jobs.push_back({&info, sim_p, false, bound});
        jobs.push_back({&info, native_p, true, bound});
      }
    }
  }

  // Two seeded shuffles of every job, so each follows many different
  // predecessors on the same scratch arenas.
  ref::Rng rng(0xA4E7A5EEDull);
  std::vector<Job> order;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Job> shuffled = jobs;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next() % i]);
    }
    order.insert(order.end(), shuffled.begin(), shuffled.end());
  }

  std::optional<sim::Machine> machine;
  sim::Memory arena(kernels::kMemBytes);
  for (size_t n = 0; n < order.size(); ++n) {
    const Job& job = order[n];
    const MediaKernel& k = *owned[job.info->registry_index];
    const PreparedProgram& p = *job.prepared;
    SCOPED_TRACE("job " + std::to_string(n) + ": " + job.info->name +
                 (p.use_spu ? " auto/D" : " baseline") + (job.native ? " native" : " sim") +
                 (job.bound ? " bound" : ""));
    const std::vector<uint8_t> input =
        job.bound ? bound_input(*job.info, n) : std::vector<uint8_t>{};
    std::vector<uint8_t> out_reused(job.info->buffers.output_bytes);
    std::vector<uint8_t> out_fresh(out_reused.size());
    kernels::BufferBinding reused_binding{input, out_reused};
    kernels::BufferBinding fresh_binding{input, out_fresh};
    const kernels::BufferBinding* reused = job.bound ? &reused_binding : nullptr;
    const kernels::BufferBinding* fresh = job.bound ? &fresh_binding : nullptr;

    std::span<const uint8_t> got;
    std::span<const uint8_t> want;
    sim::Memory fresh_arena(kernels::kMemBytes);
    std::optional<sim::Machine> fresh_machine;
    if (job.native) {
      ASSERT_TRUE(kernels::execute_native(k, p, &arena, reused).verified);
      ASSERT_TRUE(kernels::execute_native(k, p, &fresh_arena, fresh).verified);
      got = arena.view(0, kernels::kMemBytes);
      want = fresh_arena.view(0, kernels::kMemBytes);
    } else {
      if (!machine) machine.emplace(p.program, kernels::kMemBytes, p.pc);
      fresh_machine.emplace(p.program, kernels::kMemBytes, p.pc);
      ASSERT_TRUE(kernels::execute_prepared(k, p, &*machine, reused).verified);
      ASSERT_TRUE(kernels::execute_prepared(k, p, &*fresh_machine, fresh).verified);
      got = machine->memory().view(0, kernels::kMemBytes);
      want = fresh_machine->memory().view(0, kernels::kMemBytes);
    }
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(diff.first == got.end())
        << "first differing arena byte " << (diff.first - got.begin());
    EXPECT_EQ(out_reused, out_fresh);
  }
}

TEST(BackendLowering, RejectsDataDependentBranch) {
  isa::Assembler a;
  a.li(isa::R1, 5);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.movd_from_mmx(isa::R2, isa::MM0);  // R2 is data from here on
  a.label("loop");
  a.nop();
  a.loopnz(isa::R2, "loop");  // data-dependent trip count
  a.halt();
  EXPECT_THROW((void)backend::lower(a.take(), plain_spec()),
               backend::LoweringError);
}

TEST(BackendLowering, RejectsDataDependentAddress) {
  isa::Assembler a;
  a.li(isa::R1, 0x1000);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.movd_from_mmx(isa::R2, isa::MM0);
  a.movq_load(isa::MM1, isa::R2, 0);  // base register carries data
  a.halt();
  EXPECT_THROW((void)backend::lower(a.take(), plain_spec()),
               backend::LoweringError);
}

TEST(BackendLowering, RejectsDataDependentSpuProgramming) {
  isa::Assembler a;
  core::emit_spu_base(a, core::SpuMmio::kDefaultBase);
  a.li(isa::R1, 7);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.movd_from_mmx(isa::R2, isa::MM0);
  a.st32(core::kSpuBaseReg, 0, isa::R2);  // CONFIG <- data
  a.halt();
  auto spec = plain_spec();
  spec.use_spu = true;
  EXPECT_THROW((void)backend::lower(a.take(), spec), backend::LoweringError);
}

TEST(BackendLowering, RejectsRunawayStreams) {
  isa::Assembler a;
  a.li(isa::R1, 1 << 20);
  a.label("spin");
  a.nop();
  a.loopnz(isa::R1, "spin");
  a.halt();
  auto spec = plain_spec();
  spec.max_ops = 1024;
  EXPECT_THROW((void)backend::lower(a.take(), spec), backend::LoweringError);
}

// Data may flow through the scalar pipe — the walker defers those
// instructions as native GP ops instead of bailing. Exercise the
// mechanism in isolation (the IIR/SAD kernels exercise it at scale):
// MMX data spilled to GP, shifted, mixed with a constant, stored, and
// moved back into MMX; the replay must match the simulator byte for byte.
TEST(BackendLowering, DefersDataDependentScalarComputation) {
  isa::Assembler a;
  a.li(isa::R1, 0x7BCD);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.paddw(isa::MM0, isa::MM0);         // MM0 now counts as data
  a.movd_from_mmx(isa::R2, isa::MM0);  // deferred from here on
  a.sshli(isa::R2, 3);
  a.saddi(isa::R2, 17);
  a.li(isa::R4, 21);
  a.smul(isa::R2, isa::R4);            // deferred x concrete
  a.li(isa::R3, 0x2000);
  a.st32(isa::R3, 0, isa::R2);
  a.st16(isa::R3, 8, isa::R2);
  a.movd_to_mmx(isa::MM1, isa::R2);
  a.halt();
  const isa::Program prog = a.take();

  sim::Machine m(prog, kernels::kMemBytes);
  m.run();

  const auto trace = backend::lower(prog, plain_spec());
  sim::Memory mem(kernels::kMemBytes);
  backend::NativeState st;
  st.mem = &mem;
  backend::run_trace(trace, st);

  EXPECT_EQ(m.memory().read_vector<uint8_t>(0x2000, 16),
            mem.read_vector<uint8_t>(0x2000, 16));
  EXPECT_EQ(m.mmx().read(isa::MM1).bits(), st.regs.read(isa::MM1).bits());
}

}  // namespace
}  // namespace subword
