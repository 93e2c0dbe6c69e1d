// Negative paths: malformed programs must be rejected with *typed* errors
// at every entry point — simulator, native lowering, orchestrator, parser —
// never with an assert, UB, or silent misexecution. This is the adversarial
// counterpart of the fuzz corpus: each test hand-builds one specific
// malformation and pins down the exception type (and, for LoweringError,
// the attached context) at each boundary that sees it.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "backend/lowering.h"
#include "backend/native.h"
#include "core/micro_builder.h"
#include "core/mmio.h"
#include "core/orchestrator.h"
#include "core/setup.h"
#include "core/spu.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "isa/parse.h"
#include "sim/machine.h"

namespace subword {
namespace {

constexpr size_t kMem = 1u << 16;

backend::LoweringSpec spec_for(core::CrossbarConfig cfg, bool use_spu) {
  backend::LoweringSpec spec;
  spec.cfg = cfg;
  spec.use_spu = use_spu;
  spec.mem_bytes = kMem;
  spec.max_ops = 1u << 16;
  return spec;
}

// --- unterminated control flow ----------------------------------------------

TEST(NegativePaths, UnterminatedLoopHitsTypedCycleLimit) {
  isa::Assembler a;
  a.label("spin");
  a.jmp("spin");
  const isa::Program p = a.take();

  sim::PipelineConfig cfg;
  cfg.max_cycles = 1u << 12;
  sim::Machine m(p, kMem, cfg);
  EXPECT_THROW(m.run(), std::runtime_error);

  // The native walker hits its own dynamic-stream guard, with context.
  try {
    (void)backend::lower(p, spec_for(core::kConfigA, false));
    FAIL() << "expected LoweringError";
  } catch (const backend::LoweringError& e) {
    EXPECT_GE(e.op_index(), 0);
    EXPECT_FALSE(e.instruction().empty());
    EXPECT_EQ(e.config(), "A");
  }
}

TEST(NegativePaths, MissingHaltRunsOffTheProgram) {
  isa::Assembler a;
  a.nop();
  a.nop();
  const isa::Program p = a.take();

  sim::Machine m(p, kMem);
  EXPECT_THROW(m.run(), std::runtime_error);
  EXPECT_THROW((void)backend::lower(p, spec_for(core::kConfigA, false)),
               backend::LoweringError);
}

TEST(NegativePaths, EmptyProgramIsRejectedAtConstruction) {
  const isa::Program p;
  EXPECT_THROW(sim::Machine(p, kMem), std::invalid_argument);
}

// --- out-of-range memory ----------------------------------------------------

TEST(NegativePaths, OutOfRangeAccessThrowsOutOfRange) {
  isa::Assembler a;
  a.li(isa::R2, 1 << 20);  // far beyond the 64 KiB arena
  a.movq_load(isa::MM0, isa::R2, 0);
  a.halt();
  const isa::Program p = a.take();

  sim::Machine m(p, kMem);
  EXPECT_THROW(m.run(), std::out_of_range);
  // The walker rejects the same access at lowering time.
  EXPECT_THROW((void)backend::lower(p, spec_for(core::kConfigA, false)),
               backend::LoweringError);
}

TEST(NegativePaths, NonWordAccessToMmioWindowIsTyped) {
  // A movq (64-bit) store into the SPU window: the device only speaks
  // 32-bit words. The simulator's memory rejects it (the window sits far
  // outside the arena), the lowering walker bails with context.
  isa::Assembler a;
  core::emit_spu_base(a, core::SpuMmio::kDefaultBase);
  a.movq_store(core::kSpuBaseReg, 0, isa::MM0);
  a.halt();
  const isa::Program p = a.take();

  core::Spu spu(core::kConfigA, 1);
  core::SpuMmio mmio(&spu);
  sim::Machine m(p, kMem);
  m.memory().map_device(core::SpuMmio::kDefaultBase,
                        core::SpuMmio::kWindowSize, &mmio);
  m.set_router(&spu);
  EXPECT_THROW(m.run(), std::out_of_range);

  try {
    (void)backend::lower(p, spec_for(core::kConfigA, true));
    FAIL() << "expected LoweringError";
  } catch (const backend::LoweringError& e) {
    EXPECT_GE(e.op_index(), 0);
    EXPECT_EQ(e.instruction(), isa::disassemble(p.at(2)));
  }
}

// --- unchecked native replay ------------------------------------------------
// run_trace indexes registers and memory raw; these pin down that the
// lowering proof and the one per-replay check stand in for the per-op
// checks it dropped.

TEST(NegativePaths, OutOfRangeRegisterIndexIsRejectedAtLowering) {
  const auto with = [](isa::Inst bad) {
    isa::Inst halt;
    halt.op = isa::Op::Halt;
    return isa::Program({bad, halt}, {});
  };
  isa::Inst mmx_dst;  // paddw mm8, mm0
  mmx_dst.op = isa::Op::Paddw;
  mmx_dst.dst = isa::kNumMmxRegs;
  isa::Inst mmx_src;  // movq [r0+0], mm9
  mmx_src.op = isa::Op::MovqStore;
  mmx_src.src = isa::kNumMmxRegs + 1;
  isa::Inst shift_src;  // psllw mm0, 3 with a stray count register
  shift_src.op = isa::Op::Psllw;
  shift_src.src = 200;
  shift_src.src_is_imm = true;
  shift_src.imm8 = 3;
  isa::Inst gp_dst;  // add r16, r0
  gp_dst.op = isa::Op::SAdd;
  gp_dst.dst = isa::kNumGpRegs;
  isa::Inst gp_base;  // movq mm0, [r17+0]
  gp_base.op = isa::Op::MovqLoad;
  gp_base.base = isa::kNumGpRegs + 1;

  for (const isa::Inst& bad : {mmx_dst, mmx_src, shift_src, gp_dst, gp_base}) {
    const isa::Program p = with(bad);
    SCOPED_TRACE(isa::disassemble(p.at(0)));
    try {
      (void)backend::lower(p, spec_for(core::kConfigA, false));
      FAIL() << "expected LoweringError";
    } catch (const backend::LoweringError& e) {
      EXPECT_EQ(e.op_index(), 0);
      EXPECT_NE(std::string(e.what()).find("register index"),
                std::string::npos)
          << e.what();
    }
    // The simulator applies the same rule before it runs anything: its
    // scoreboard is indexed by these fields unchecked.
    try {
      sim::Machine m(p, 4096, {.max_cycles = 100000});
      FAIL() << "expected InvalidRegisterError";
    } catch (const isa::InvalidRegisterError& e) {
      EXPECT_EQ(e.index(), 0u);
      EXPECT_NE(std::string(e.what()).find("register index"),
                std::string::npos)
          << e.what();
    }
    isa::Inst halt;
    halt.op = isa::Op::Halt;
    sim::Machine reused(isa::Program({halt}, {}), 4096);
    EXPECT_THROW(reused.reset(p), isa::InvalidRegisterError);
  }
}

TEST(NegativePaths, ReplayIntoArenaSmallerThanFootprintThrows) {
  isa::Assembler a;
  a.li(isa::R2, 0x8000);
  a.movq_load(isa::MM0, isa::R2, 0);
  a.movq_store(isa::R2, 8, isa::MM0);
  a.halt();
  const backend::NativeTrace t =
      backend::lower(a.take(), spec_for(core::kConfigA, false));
  EXPECT_EQ(t.footprint, 0x8000u + 16);

  sim::Memory small(0x8000 + 15);  // one byte short of the footprint
  backend::NativeState st;
  st.mem = &small;
  EXPECT_THROW(backend::run_trace(t, st), std::out_of_range);

  sim::Memory exact(0x8000 + 16);
  st.mem = &exact;
  EXPECT_NO_THROW(backend::run_trace(t, st));
}

// --- crossbar / SPU malformations -------------------------------------------

// Route only the U pipe slice: legal per the crossbar configuration (the
// simulator models the executing pipe), but the native backend cannot — it
// must reject, not guess.
TEST(NegativePaths, AsymmetricUVRouteIsRejectedByLoweringOnly) {
  core::Route route;
  std::array<uint8_t, core::kOperandBytes> srcs{};
  for (int i = 0; i < core::kOperandBytes; ++i) {
    srcs[static_cast<size_t>(i)] = static_cast<uint8_t>(i);  // MM0's bytes
  }
  route.set_operand(sim::Pipe::U, 1, srcs);  // U only — V stays straight

  core::MicroBuilder mb(core::kConfigA);
  mb.add_state(route);   // body: paddw (routed)
  mb.add_straight_state();  // body: loopnz
  mb.seal_simple_loop(4);

  isa::Assembler a;
  core::emit_spu_base(a, core::SpuMmio::kDefaultBase);
  core::emit_spu_stop(a, 0);
  core::emit_spu_words(a, mb.mmio_words());
  a.li(isa::R0, 4);
  core::emit_spu_go(a, 0);
  a.label("loop");
  a.paddw(isa::MM2, isa::MM1);
  a.loopnz(isa::R0, "loop");
  a.halt();
  const isa::Program p = a.take();

  // The simulator executes it fine (the route is config-valid)...
  core::Spu spu(core::kConfigA, 1);
  core::SpuMmio mmio(&spu);
  sim::Machine m(p, kMem);
  m.memory().map_device(core::SpuMmio::kDefaultBase,
                        core::SpuMmio::kWindowSize, &mmio);
  m.set_router(&spu);
  EXPECT_NO_THROW(m.run());

  // ...while the native tier refuses with a typed, contextual error.
  try {
    (void)backend::lower(p, spec_for(core::kConfigA, true));
    FAIL() << "expected LoweringError";
  } catch (const backend::LoweringError& e) {
    EXPECT_GE(e.op_index(), 0);
    EXPECT_EQ(e.config(), "A");
  }
}

// Program a route byte addressing outside the configuration's input window
// through raw MMIO stores (MicroBuilder would refuse to build it). The GO
// write must throw a typed error in the simulator and a LoweringError in
// the native walker — never activate a corrupt microprogram.
TEST(NegativePaths, OutOfWindowCrossbarLaneIsRejectedAtGo) {
  isa::Assembler a;
  core::emit_spu_base(a, core::SpuMmio::kDefaultBase);
  core::emit_spu_stop(a, 0);
  // State 0, route word 0: selector 60 in byte 0 — config D's input window
  // is 32 bytes (MM0..MM3), so 60 is out of range.
  a.li(core::kSpuScratchReg, static_cast<int32_t>(0xFFFFFF3Cu));
  a.st32(core::kSpuBaseReg, core::SpuMmio::kStateBase + 4,
         core::kSpuScratchReg);
  core::emit_spu_go(a, 0);
  a.nop();
  a.halt();
  const isa::Program p = a.take();

  core::Spu spu(core::kConfigD, 1);
  core::SpuMmio mmio(&spu);
  sim::Machine m(p, kMem);
  m.memory().map_device(core::SpuMmio::kDefaultBase,
                        core::SpuMmio::kWindowSize, &mmio);
  m.set_router(&spu);
  EXPECT_THROW(m.run(), std::logic_error);

  try {
    (void)backend::lower(p, spec_for(core::kConfigD, true));
    FAIL() << "expected LoweringError";
  } catch (const backend::LoweringError& e) {
    EXPECT_GE(e.op_index(), 0);
    EXPECT_NE(std::string(e.what()).find("SPU"), std::string::npos)
        << e.what();
  }
}

TEST(NegativePaths, MicroBuilderRefusesConfigViolatingRoutes) {
  core::Route route;
  std::array<uint8_t, core::kOperandBytes> srcs{};
  srcs.fill(63);  // MM7's top byte — outside config B's MM0..MM3 window
  route.set_operand_both_pipes(1, srcs);
  core::MicroBuilder mb(core::kConfigB);
  EXPECT_THROW(mb.add_state(route), std::logic_error);
}

// --- orchestrator entry point -----------------------------------------------

TEST(NegativePaths, OrchestratorRejectsReservedRegisterUse) {
  for (const uint8_t reg : {core::kSpuBaseReg, core::kSpuScratchReg}) {
    isa::Assembler a;
    a.li(reg, 5);
    a.halt();
    const isa::Program p = a.take();
    core::Orchestrator orch;
    EXPECT_THROW((void)orch.run(p), std::logic_error) << int(reg);
  }
}

// --- parser entry point -----------------------------------------------------

TEST(NegativePaths, ParserRejectsMalformedTextWithTypedErrors) {
  EXPECT_THROW((void)isa::parse_inst("frobnicate mm0, mm1"),
               isa::ParseError);
  EXPECT_THROW((void)isa::parse_inst("paddw mm0"), isa::ParseError);
  EXPECT_THROW((void)isa::parse_inst("paddw r0, r1"), isa::ParseError);
  EXPECT_THROW((void)isa::parse_inst("movq mm0, [r99]"), isa::ParseError);
  EXPECT_THROW((void)isa::parse_inst("li r2, banana"), isa::ParseError);
  // Branch target past the end of the listing.
  EXPECT_THROW((void)isa::parse_program("jmp @7\nhalt\n"), isa::ParseError);
  // Duplicate label.
  EXPECT_THROW((void)isa::parse_program("x:\nnop\nx:\nhalt\n"),
               isa::ParseError);
  // Line numbers are attached for diagnostics.
  try {
    (void)isa::parse_program("nop\nbogus mm0\nhalt\n");
    FAIL() << "expected ParseError";
  } catch (const isa::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

// --- assembler entry point --------------------------------------------------

TEST(NegativePaths, AssemblerRejectsUndefinedAndDuplicateLabels) {
  {
    isa::Assembler a;
    a.jmp("nowhere");
    a.halt();
    EXPECT_THROW((void)a.take(), std::logic_error);
  }
  {
    isa::Assembler a;
    a.label("twice");
    a.nop();
    EXPECT_THROW(a.label("twice"), std::logic_error);
  }
}

}  // namespace
}  // namespace subword
