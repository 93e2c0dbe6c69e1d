// native.h — the native-SWAR execution backend's op trace and replay loop.
//
// The cycle-level simulator in src/sim answers "how fast would this run on
// the modeled hardware"; this backend answers "what bytes does the kernel
// produce" as fast as the *host* allows. A NativeTrace is the product of
// src/backend/lowering.h: the prepared program's full dynamic instruction
// stream, pre-decoded into host SWAR operations (src/swar — SSE2 where
// available, the portable bit-trick backend otherwise) with every address,
// shift count, crossbar route and scalar side effect resolved at prepare
// time. Execution (run_trace) is therefore one switch per op against a flat
// MMX register file and the memory arena — no decode, no pairing, no
// branch-predictor modeling, no stats bookkeeping, and no per-op bounds
// checks.
//
// Invariants:
//  * A NativeTrace is immutable after lowering and safe to replay
//    concurrently from many threads (each replay owns its NativeState).
//  * Replaying a trace produces a memory arena and MMX register file
//    byte-identical to simulating the program it was lowered from, for
//    any input data (the lowering walker rejects programs for which this
//    cannot be proven — see lowering.h).
//  * Safety is proven at lowering, checked once per replay: every address
//    lies below NativeTrace::footprint and every register index is in
//    range, so run_trace checks the arena size once (a typed throw, never
//    an out-of-bounds access) and then indexes memory and registers raw.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/crossbar.h"
#include "isa/inst.h"
#include "sim/memory.h"
#include "sim/regfile.h"

namespace subword::backend {

// Mutable execution state of one replay: the flat register files and the
// arena the ops read and write. `routes` aliases the owning trace's route
// table for the duration of run_trace. The GP bank exists for the *data*
// slice of the scalar plane only — control-flow scalar work (loop
// counters, addresses, SPU programming) is resolved away at lowering time
// and never replays.
struct NativeState {
  sim::MmxRegFile regs;
  std::array<uint64_t, isa::kNumGpRegs> gp{};
  sim::Memory* mem = nullptr;
  const core::Route* routes = nullptr;
};

// One pre-decoded operation. `code` says what it does: an isa::Op value
// for ops that replay that instruction with pre-resolved operands (the MMX
// data ops, loads and stores at a resolved `addr`, the deferred scalar
// ops), or one of the trace-only codes below. Kept compact — a trace holds
// the whole unrolled dynamic stream.
struct NativeOp {
  // Trace-only codes, numbered after the last isa::Op.
  static constexpr uint8_t kSetImm = isa::kOpCount;       // mm[dst] = imm
  static constexpr uint8_t kConstStore16 = kSetImm + 1;   // [addr] = imm
  static constexpr uint8_t kConstStore32 = kSetImm + 2;
  static constexpr uint8_t kConstStore64 = kSetImm + 3;

  // Operand-routing flags (crossbar-routed ALU ops) and the shift-count
  // source for shift ops.
  static constexpr uint8_t kRouteA = 1;      // operand a gathered via route
  static constexpr uint8_t kRouteB = 2;      // operand b gathered via route
  static constexpr uint8_t kCountImm = 4;    // shift count from imm8

  uint8_t code = kSetImm;
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t imm8 = 0;       // shift count when kCountImm / GP shifts
  uint8_t flags = 0;
  int32_t route = -1;     // index into NativeTrace::routes, -1 = unrouted
  uint32_t addr = 0;      // resolved arena address (loads/stores)
  uint64_t imm = 0;       // set-immediate / recorded scalar-store value
};

// The immutable lowering product cached alongside a PreparedProgram.
struct NativeTrace {
  std::vector<NativeOp> ops;
  // Deduplicated crossbar routes referenced by NativeOp::route. Routes are
  // control state (SPU microprogram words), never data, which is why they
  // can be resolved at prepare time.
  std::vector<core::Route> routes;
  // Dynamic instructions of the source program this trace replaces
  // (reported as KernelRun::stats.instructions for parity with the
  // simulator's accounting).
  uint64_t source_instructions = 0;
  // One past the highest arena byte any op loads or stores. Lowering
  // proves every address in range of its arena, so a replay arena at least
  // this large needs no per-op bounds check.
  uint64_t footprint = 0;
  // The pages any op stores to; a replay marks them dirty in its arena so
  // the arena's next clear() zeroes them (see sim/memory.h).
  sim::PageMask store_pages;
};

// Replay the trace. st.mem must be the arena the kernel's init_memory /
// bind_input populated; st.regs should start zeroed (architectural reset
// state, matching a fresh sim::Machine). Throws std::out_of_range when the
// arena is smaller than t.footprint (see sim::Memory::raw_arena); the
// trace's store pages are marked dirty in st.mem.
void run_trace(const NativeTrace& t, NativeState& st);

// -- Lowering building blocks (used by lowering.cpp; exposed for tests) ------

// Trace-builder helpers: each appends one pre-resolved op.
//
// MMX plane:
void append_load64(NativeTrace& t, uint8_t dst, uint32_t addr);
void append_load32(NativeTrace& t, uint8_t dst, uint32_t addr);
void append_store64(NativeTrace& t, uint8_t src, uint32_t addr);
void append_store32(NativeTrace& t, uint8_t src, uint32_t addr);
void append_set_imm(NativeTrace& t, uint8_t dst, uint64_t value);
void append_scalar_store(NativeTrace& t, int width_bytes, uint32_t addr,
                         uint64_t value);
void append_alu(NativeTrace& t, const isa::Inst& in, int32_t route,
                uint8_t route_flags);
// Deferred scalar (GP) plane — data-dependent scalar computation the
// lowering walker could not fold away:
void append_gp_set(NativeTrace& t, uint8_t dst, uint64_t value);
void append_gp_mov(NativeTrace& t, uint8_t dst, uint8_t src);
// SAdd/SSub/SMul/SAnd/SOr/SXor:
void append_gp_binop(NativeTrace& t, isa::Op op, uint8_t dst, uint8_t src);
// SAddi/SSubi:
void append_gp_immop(NativeTrace& t, isa::Op op, uint8_t dst, int64_t imm);
// SShli/SShri/SSrai:
void append_gp_shift(NativeTrace& t, isa::Op op, uint8_t dst, uint8_t imm8);
// SLoad16/32/64 / SStore16/32/64 at a resolved address:
void append_gp_load(NativeTrace& t, isa::Op op, uint8_t dst, uint32_t addr);
void append_gp_store(NativeTrace& t, isa::Op op, uint8_t src, uint32_t addr);
// The MovdFromMmx / MovdToMmx bridges between the planes:
void append_gp_from_mmx(NativeTrace& t, uint8_t gp_dst, uint8_t mm_src);
void append_mmx_from_gp(NativeTrace& t, uint8_t mm_dst, uint8_t gp_src);

}  // namespace subword::backend
