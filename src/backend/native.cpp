#include "backend/native.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sim/exec.h"
#include "swar/swar.h"

namespace subword::backend {

namespace sw = swar::active;
using isa::Op;
using swar::Vec64;

static_assert(NativeOp::kConstStore64 > NativeOp::kSetImm,
              "trace-only op codes must fit in NativeOp::code");

namespace {

// The NativeOp::code of an op that replays `op` itself.
constexpr uint8_t code(Op op) { return static_cast<uint8_t>(op); }

template <typename T>
T load(const uint8_t* arena, uint32_t addr) {
  T v;
  std::memcpy(&v, arena + addr, sizeof v);
  return v;
}

template <typename T>
void store(uint8_t* arena, uint32_t addr, T v) {
  std::memcpy(arena + addr, &v, sizeof v);
}

uint64_t sext16(uint16_t v) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int16_t>(v)));
}

uint64_t sext32(uint32_t v) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(v)));
}

// dst = f(a, b, count) for an MMX data op, gathering crossbar-routed
// operands first — mirrors the simulator's data-op path (sim/machine.cpp).
// Inlined into each case of run_trace's switch, so every op costs one
// dispatch.
template <typename F>
[[gnu::always_inline]] inline void alu(const NativeOp& op, NativeState& st, F f) {
  Vec64 a = st.regs.mm[op.dst];
  Vec64 b = st.regs.mm[op.src];
  if (op.route >= 0) {
    // The route's U and V slices are verified identical at lowering time,
    // so gathering through the U slice is pipe-exact.
    const core::Route& r = st.routes[op.route];
    if ((op.flags & NativeOp::kRouteA) != 0) {
      a = core::apply_route(r, sim::Pipe::U, 0, st.regs, a);
    }
    if ((op.flags & NativeOp::kRouteB) != 0) {
      b = core::apply_route(r, sim::Pipe::U, 1, st.regs, b);
    }
  }
  // Shift counts come from the post-route operand, exactly as the
  // simulator computes them.
  const uint64_t count = (op.flags & NativeOp::kCountImm) != 0 ? op.imm8 : b.bits();
  st.regs.mm[op.dst] = f(a, b, count);
}

// dst = F(dst, src): packed arithmetic, logic, compare, pack and unpack.
template <Vec64 (*F)(Vec64, Vec64)>
[[gnu::always_inline]] inline void binop(const NativeOp& op, NativeState& st) {
  alu(op, st, [](Vec64 a, Vec64 b, uint64_t) { return F(a, b); });
}

// dst = F(dst, count): packed shifts.
template <Vec64 (*F)(Vec64, uint64_t)>
[[gnu::always_inline]] inline void shift(const NativeOp& op, NativeState& st) {
  alu(op, st, [](Vec64 a, Vec64, uint64_t c) { return F(a, c); });
}

// Append a memory op, growing the trace's footprint (and store-page mask)
// to cover its `len` bytes at op.addr.
void push_access(NativeTrace& t, const NativeOp& op, uint32_t len,
                 bool is_store) {
  t.footprint = std::max<uint64_t>(t.footprint, uint64_t{op.addr} + len);
  if (is_store) sim::mark_pages(t.store_pages, op.addr, len);
  t.ops.push_back(op);
}

}  // namespace

void run_trace(const NativeTrace& t, NativeState& st) {
  // The one bounds check of the replay: lowering proved every op's
  // address below t.footprint and every register index in range.
  uint8_t* const mem = st.mem->raw_arena(t.footprint, t.store_pages);
  st.routes = t.routes.data();
  auto& mm = st.regs.mm;
  auto& gp = st.gp;
  for (const NativeOp& op : t.ops) {
    switch (op.code) {
      // -- MMX plane: memory and constants ---------------------------------
      case code(Op::MovqLoad):
        mm[op.dst] = Vec64{load<uint64_t>(mem, op.addr)};
        break;
      case code(Op::MovdLoad):
        mm[op.dst] = Vec64{load<uint32_t>(mem, op.addr)};
        break;
      case code(Op::MovqStore):
        store(mem, op.addr, mm[op.src].bits());
        break;
      case code(Op::MovdStore):
        store(mem, op.addr, static_cast<uint32_t>(mm[op.src].bits()));
        break;
      case NativeOp::kSetImm:
        mm[op.dst] = Vec64{op.imm};
        break;
      case NativeOp::kConstStore16:
        store(mem, op.addr, static_cast<uint16_t>(op.imm));
        break;
      case NativeOp::kConstStore32:
        store(mem, op.addr, static_cast<uint32_t>(op.imm));
        break;
      case NativeOp::kConstStore64:
        store(mem, op.addr, op.imm);
        break;

      // -- Deferred scalar plane: the simulator's GP semantics -------------
      case code(Op::Li): gp[op.dst] = op.imm; break;
      case code(Op::SMov): gp[op.dst] = gp[op.src]; break;
      case code(Op::SAdd): gp[op.dst] += gp[op.src]; break;
      case code(Op::SSub): gp[op.dst] -= gp[op.src]; break;
      case code(Op::SMul): gp[op.dst] *= gp[op.src]; break;
      case code(Op::SAnd): gp[op.dst] &= gp[op.src]; break;
      case code(Op::SOr): gp[op.dst] |= gp[op.src]; break;
      case code(Op::SXor): gp[op.dst] ^= gp[op.src]; break;
      case code(Op::SAddi): gp[op.dst] += op.imm; break;
      case code(Op::SSubi): gp[op.dst] -= op.imm; break;
      case code(Op::SShli): gp[op.dst] <<= op.imm8; break;
      case code(Op::SShri): gp[op.dst] >>= op.imm8; break;
      case code(Op::SSrai):
        gp[op.dst] =
            static_cast<uint64_t>(static_cast<int64_t>(gp[op.dst]) >> op.imm8);
        break;
      case code(Op::SLoad16):
        gp[op.dst] = sext16(load<uint16_t>(mem, op.addr));
        break;
      case code(Op::SLoad32):
        gp[op.dst] = sext32(load<uint32_t>(mem, op.addr));
        break;
      case code(Op::SLoad64):
        gp[op.dst] = load<uint64_t>(mem, op.addr);
        break;
      case code(Op::SStore16):
        store(mem, op.addr, static_cast<uint16_t>(gp[op.src]));
        break;
      case code(Op::SStore32):
        store(mem, op.addr, static_cast<uint32_t>(gp[op.src]));
        break;
      case code(Op::SStore64):
        store(mem, op.addr, gp[op.src]);
        break;
      case code(Op::MovdFromMmx):
        gp[op.dst] = mm[op.src].bits() & 0xFFFFFFFFull;
        break;
      case code(Op::MovdToMmx):
        mm[op.dst] = Vec64{gp[op.src] & 0xFFFFFFFFull};
        break;

      // -- MMX data ops (mirrors sim::mmx_alu case for case) ---------------
      case code(Op::MovqRR):
        alu(op, st, [](Vec64, Vec64 b, uint64_t) { return b; });
        break;
      case code(Op::Paddb): binop<sw::add<uint8_t>>(op, st); break;
      case code(Op::Paddw): binop<sw::add<uint16_t>>(op, st); break;
      case code(Op::Paddd): binop<sw::add<uint32_t>>(op, st); break;
      case code(Op::Psubb): binop<sw::sub<uint8_t>>(op, st); break;
      case code(Op::Psubw): binop<sw::sub<uint16_t>>(op, st); break;
      case code(Op::Psubd): binop<sw::sub<uint32_t>>(op, st); break;
      case code(Op::Paddsb): binop<sw::add_sat<int8_t>>(op, st); break;
      case code(Op::Paddsw): binop<sw::add_sat<int16_t>>(op, st); break;
      case code(Op::Paddusb): binop<sw::add_sat<uint8_t>>(op, st); break;
      case code(Op::Paddusw): binop<sw::add_sat<uint16_t>>(op, st); break;
      case code(Op::Psubsb): binop<sw::sub_sat<int8_t>>(op, st); break;
      case code(Op::Psubsw): binop<sw::sub_sat<int16_t>>(op, st); break;
      case code(Op::Psubusb): binop<sw::sub_sat<uint8_t>>(op, st); break;
      case code(Op::Psubusw): binop<sw::sub_sat<uint16_t>>(op, st); break;
      case code(Op::Pmullw): binop<sw::mullo16>(op, st); break;
      case code(Op::Pmulhw): binop<sw::mulhi16>(op, st); break;
      case code(Op::Pmaddwd): binop<sw::maddwd>(op, st); break;
      case code(Op::Pcmpeqb): binop<sw::cmpeq<uint8_t>>(op, st); break;
      case code(Op::Pcmpeqw): binop<sw::cmpeq<uint16_t>>(op, st); break;
      case code(Op::Pcmpeqd): binop<sw::cmpeq<uint32_t>>(op, st); break;
      case code(Op::Pcmpgtb): binop<sw::cmpgt<int8_t>>(op, st); break;
      case code(Op::Pcmpgtw): binop<sw::cmpgt<int16_t>>(op, st); break;
      case code(Op::Pcmpgtd): binop<sw::cmpgt<int32_t>>(op, st); break;
      case code(Op::Pand): binop<sw::and_>(op, st); break;
      case code(Op::Pandn): binop<sw::andn>(op, st); break;
      case code(Op::Por): binop<sw::or_>(op, st); break;
      case code(Op::Pxor): binop<sw::xor_>(op, st); break;
      case code(Op::Psllw): shift<sw::shl<uint16_t>>(op, st); break;
      case code(Op::Pslld): shift<sw::shl<uint32_t>>(op, st); break;
      case code(Op::Psllq): shift<sw::shl<uint64_t>>(op, st); break;
      case code(Op::Psrlw): shift<sw::shr_logical<uint16_t>>(op, st); break;
      case code(Op::Psrld): shift<sw::shr_logical<uint32_t>>(op, st); break;
      case code(Op::Psrlq): shift<sw::shr_logical<uint64_t>>(op, st); break;
      case code(Op::Psraw): shift<sw::shr_arith<int16_t>>(op, st); break;
      case code(Op::Psrad): shift<sw::shr_arith<int32_t>>(op, st); break;
      case code(Op::Packsswb): binop<sw::pack_sswb>(op, st); break;
      case code(Op::Packssdw): binop<sw::pack_ssdw>(op, st); break;
      case code(Op::Packuswb): binop<sw::pack_uswb>(op, st); break;
      case code(Op::Punpcklbw): binop<sw::unpack_lo<uint8_t>>(op, st); break;
      case code(Op::Punpcklwd): binop<sw::unpack_lo<uint16_t>>(op, st); break;
      case code(Op::Punpckldq): binop<sw::unpack_lo<uint32_t>>(op, st); break;
      case code(Op::Punpckhbw): binop<sw::unpack_hi<uint8_t>>(op, st); break;
      case code(Op::Punpckhwd): binop<sw::unpack_hi<uint16_t>>(op, st); break;
      case code(Op::Punpckhdq): binop<sw::unpack_hi<uint32_t>>(op, st); break;

      default:
        // Unreachable: the append_* builders only emit the codes above.
        throw std::logic_error("run_trace: corrupt op code");
    }
  }
}

void append_load64(NativeTrace& t, uint8_t dst, uint32_t addr) {
  NativeOp op;
  op.code = code(Op::MovqLoad);
  op.dst = dst;
  op.addr = addr;
  push_access(t, op, 8, /*is_store=*/false);
}

void append_load32(NativeTrace& t, uint8_t dst, uint32_t addr) {
  NativeOp op;
  op.code = code(Op::MovdLoad);
  op.dst = dst;
  op.addr = addr;
  push_access(t, op, 4, /*is_store=*/false);
}

void append_store64(NativeTrace& t, uint8_t src, uint32_t addr) {
  NativeOp op;
  op.code = code(Op::MovqStore);
  op.src = src;
  op.addr = addr;
  push_access(t, op, 8, /*is_store=*/true);
}

void append_store32(NativeTrace& t, uint8_t src, uint32_t addr) {
  NativeOp op;
  op.code = code(Op::MovdStore);
  op.src = src;
  op.addr = addr;
  push_access(t, op, 4, /*is_store=*/true);
}

void append_set_imm(NativeTrace& t, uint8_t dst, uint64_t value) {
  NativeOp op;
  op.code = NativeOp::kSetImm;
  op.dst = dst;
  op.imm = value;
  t.ops.push_back(op);
}

void append_scalar_store(NativeTrace& t, int width_bytes, uint32_t addr,
                         uint64_t value) {
  NativeOp op;
  switch (width_bytes) {
    case 2: op.code = NativeOp::kConstStore16; break;
    case 4: op.code = NativeOp::kConstStore32; break;
    case 8: op.code = NativeOp::kConstStore64; break;
    default:
      throw std::logic_error("append_scalar_store: bad width");
  }
  op.addr = addr;
  op.imm = value;
  push_access(t, op, static_cast<uint32_t>(width_bytes), /*is_store=*/true);
}

void append_gp_set(NativeTrace& t, uint8_t dst, uint64_t value) {
  NativeOp op;
  op.code = code(Op::Li);
  op.dst = dst;
  op.imm = value;
  t.ops.push_back(op);
}

void append_gp_mov(NativeTrace& t, uint8_t dst, uint8_t src) {
  NativeOp op;
  op.code = code(Op::SMov);
  op.dst = dst;
  op.src = src;
  t.ops.push_back(op);
}

void append_gp_binop(NativeTrace& t, isa::Op o, uint8_t dst, uint8_t src) {
  switch (o) {
    case Op::SAdd:
    case Op::SSub:
    case Op::SMul:
    case Op::SAnd:
    case Op::SOr:
    case Op::SXor:
      break;
    default:
      throw std::logic_error("append_gp_binop: not a GP binary op");
  }
  NativeOp op;
  op.code = code(o);
  op.dst = dst;
  op.src = src;
  t.ops.push_back(op);
}

void append_gp_immop(NativeTrace& t, isa::Op o, uint8_t dst, int64_t imm) {
  if (o != Op::SAddi && o != Op::SSubi) {
    throw std::logic_error("append_gp_immop: not a GP immediate op");
  }
  NativeOp op;
  op.code = code(o);
  op.dst = dst;
  op.imm = static_cast<uint64_t>(imm);
  t.ops.push_back(op);
}

void append_gp_shift(NativeTrace& t, isa::Op o, uint8_t dst, uint8_t imm8) {
  if (o != Op::SShli && o != Op::SShri && o != Op::SSrai) {
    throw std::logic_error("append_gp_shift: not a GP shift op");
  }
  NativeOp op;
  op.code = code(o);
  op.dst = dst;
  op.imm8 = imm8;
  t.ops.push_back(op);
}

void append_gp_load(NativeTrace& t, isa::Op o, uint8_t dst, uint32_t addr) {
  uint32_t len = 0;
  switch (o) {
    case Op::SLoad16: len = 2; break;
    case Op::SLoad32: len = 4; break;
    case Op::SLoad64: len = 8; break;
    default:
      throw std::logic_error("append_gp_load: not a GP load op");
  }
  NativeOp op;
  op.code = code(o);
  op.dst = dst;
  op.addr = addr;
  push_access(t, op, len, /*is_store=*/false);
}

void append_gp_store(NativeTrace& t, isa::Op o, uint8_t src, uint32_t addr) {
  uint32_t len = 0;
  switch (o) {
    case Op::SStore16: len = 2; break;
    case Op::SStore32: len = 4; break;
    case Op::SStore64: len = 8; break;
    default:
      throw std::logic_error("append_gp_store: not a GP store op");
  }
  NativeOp op;
  op.code = code(o);
  op.src = src;
  op.addr = addr;
  push_access(t, op, len, /*is_store=*/true);
}

void append_gp_from_mmx(NativeTrace& t, uint8_t gp_dst, uint8_t mm_src) {
  NativeOp op;
  op.code = code(Op::MovdFromMmx);
  op.dst = gp_dst;
  op.src = mm_src;
  t.ops.push_back(op);
}

void append_mmx_from_gp(NativeTrace& t, uint8_t mm_dst, uint8_t gp_src) {
  NativeOp op;
  op.code = code(Op::MovdToMmx);
  op.dst = mm_dst;
  op.src = gp_src;
  t.ops.push_back(op);
}

void append_alu(NativeTrace& t, const isa::Inst& in, int32_t route,
                uint8_t route_flags) {
  if (!sim::has_alu_semantics(in.op)) {
    throw std::logic_error("append_alu: opcode has no ALU semantics");
  }
  NativeOp op;
  op.code = code(in.op);
  op.dst = in.dst;
  op.src = in.src;
  op.route = route;
  op.flags = route_flags;
  if (in.src_is_imm) {
    op.flags |= NativeOp::kCountImm;
    op.imm8 = in.imm8;
  }
  t.ops.push_back(op);
}

}  // namespace subword::backend
