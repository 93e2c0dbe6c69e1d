#include "backend/lowering.h"

#include <array>
#include <atomic>
#include <map>
#include <optional>
#include <utility>

#include "core/spu.h"
#include "isa/disasm.h"
#include "isa/opcodes.h"

namespace subword::backend {

using isa::Inst;
using isa::Op;

namespace {

std::atomic<bool> g_fault_injection{false};

// Scalar register state during the walk. A register is either *concrete*
// (the walker knows its value; control flow and addresses may depend on
// it) or *deferred* (the value is data-dependent and lives in
// NativeState::gp at replay time). `materialized` marks concrete
// registers whose current value has also been written into the native GP
// bank, so deferred ops can read them without re-emitting a set.
struct GpSlot {
  uint64_t val = 0;
  bool deferred = false;
  bool materialized = false;
};

class Walker {
 public:
  Walker(const isa::Program& prog, const LoweringSpec& spec)
      : prog_(prog), spec_(spec), mem_(spec.mem_bytes),
        known_(spec.mem_bytes, true) {
    if (spec_.init) spec_.init(mem_);
    for (const auto& r : spec_.data_regions) {
      if (r.addr + r.len > mem_.size() || r.addr + r.len < r.addr) {
        throw LoweringError("data region outside the arena");
      }
      mark_known(r.addr, r.len, false);
    }
    if (spec_.use_spu) {
      spu_.emplace(spec_.cfg, spec_.num_contexts);
      mmio_.emplace(&*spu_);
      mem_.map_device(spec_.mmio_base, core::SpuMmio::kWindowSize, &*mmio_);
    }
  }

  NativeTrace run() {
    // The replay indexes its register files unchecked, so every register
    // field must name a real register: one pass over the program proves
    // it for every step the walk takes.
    for (cur_pc_ = 0; cur_pc_ < prog_.size(); ++cur_pc_) {
      const std::string why = isa::register_index_error(prog_.at(cur_pc_));
      if (!why.empty()) bail(why);
    }
    uint64_t pc = 0;
    for (;;) {
      cur_pc_ = pc;
      if (trace_.source_instructions >= spec_.max_ops) {
        bail("dynamic stream exceeds " + std::to_string(spec_.max_ops) +
             " instructions (max_ops)");
      }
      if (pc >= prog_.size()) {
        bail("pc ran off the program");
      }
      const Inst& in = prog_.at(pc);
      uint64_t next = pc + 1;
      bool halt = false;
      step(in, &next, &halt);
      ++trace_.source_instructions;
      // The decoupled controller steps once per retired instruction —
      // scalar instructions included — exactly as sim::Machine drives
      // sim::OperandRouter::retire.
      if (spu_) spu_->retire(in);
      if (halt) break;
      pc = next;
    }
    return std::move(trace_);
  }

 private:
  // Every in-walk rejection funnels through here so the error carries the
  // bail site: static op index, disassembly, crossbar config.
  [[noreturn]] void bail(const std::string& what) const {
    const std::string inst = cur_pc_ < prog_.size()
                                 ? isa::disassemble(prog_.at(cur_pc_))
                                 : std::string("<end of program>");
    const std::string cfg =
        spec_.cfg.name.empty() ? "-" : std::string(spec_.cfg.name);
    throw LoweringError(what, static_cast<int64_t>(cur_pc_), inst, cfg);
  }

  // -- scalar-plane helpers --------------------------------------------------

  [[nodiscard]] uint64_t concrete(uint8_t reg, const char* what) const {
    if (gp_[reg].deferred) {
      bail(std::string(what) + " depends on data (R" + std::to_string(reg) +
           ")");
    }
    return gp_[reg].val;
  }

  void write_concrete(uint8_t reg, uint64_t v) {
    gp_[reg] = GpSlot{v, /*deferred=*/false, /*materialized=*/false};
  }

  // Ensure the native GP bank holds this register's value at this point of
  // the trace, emitting a set for concrete values on first use.
  void materialize(uint8_t reg) {
    GpSlot& s = gp_[reg];
    if (s.deferred || s.materialized) return;
    append_gp_set(trace_, reg, s.val);
    s.materialized = true;
  }

  void defer(uint8_t reg) {
    gp_[reg].deferred = true;
    gp_[reg].materialized = true;
  }

  [[nodiscard]] uint64_t addr_of(const Inst& in, const char* what) const {
    const uint64_t base = concrete(in.base, what);
    return base + static_cast<uint64_t>(static_cast<int64_t>(in.disp));
  }

  [[nodiscard]] uint32_t arena_addr(uint64_t addr, uint64_t len,
                                    const char* what) const {
    if (addr + len > mem_.size() || addr + len < addr) {
      bail(std::string(what) + ": address " + std::to_string(addr) +
           " outside the arena");
    }
    return static_cast<uint32_t>(addr);
  }

  // Replay-invariant bytes: init state and recorded constant stores. MMX
  // stores and deferred GP stores flip bytes to data.
  [[nodiscard]] bool known(uint64_t addr, uint64_t len) const {
    for (uint64_t i = 0; i < len; ++i) {
      if (!known_[addr + i]) return false;
    }
    return true;
  }

  void mark_known(uint64_t addr, uint64_t len, bool k) {
    for (uint64_t i = 0; i < len; ++i) known_[addr + i] = k;
  }

  // Intern the current controller state's route for this instruction, or
  // -1 when the operands pass through unrouted. Verifies pipe symmetry:
  // the backend replays through the U slice, which is only sound when the
  // V slice gathers identically.
  int32_t resolve_route(uint8_t* flags) {
    *flags = 0;
    if (!spu_ || !spu_->active()) return -1;
    const core::SpuProgram& ctx = spu_->context(spu_->selected_context());
    const core::Route& r = ctx.states[spu_->current_state()].route;
    bool any = false;
    for (int operand = 0; operand < 2; ++operand) {
      const int u_off = core::bus_offset(sim::Pipe::U, operand);
      const int v_off = core::bus_offset(sim::Pipe::V, operand);
      bool routed = false;
      for (int i = 0; i < core::kOperandBytes; ++i) {
        const uint8_t u = r.sel[static_cast<size_t>(u_off + i)];
        const uint8_t v = r.sel[static_cast<size_t>(v_off + i)];
        if (u != v) {
          bail("route differs between the U and V pipe slices; the executing "
               "pipe is a timing property the native backend does not model");
        }
        routed = routed || u != core::Route::kStraight;
      }
      if (routed) {
        *flags |= operand == 0 ? NativeOp::kRouteA : NativeOp::kRouteB;
        any = true;
      }
    }
    if (!any) return -1;
    auto [it, fresh] = route_ids_.try_emplace(
        r.sel, static_cast<int32_t>(trace_.routes.size()));
    if (fresh) trace_.routes.push_back(r);
    return it->second;
  }

  // -- scalar instruction classes --------------------------------------------

  // dst op= src. Folds when both sides are concrete, defers otherwise.
  template <typename Fold>
  void binop(const Inst& in, Fold fold) {
    GpSlot& dst = gp_[in.dst];
    const GpSlot& src = gp_[in.src];
    if (!dst.deferred && !src.deferred) {
      write_concrete(in.dst, fold(dst.val, src.val));
      return;
    }
    materialize(in.dst);
    materialize(in.src);
    append_gp_binop(trace_, in.op, in.dst, in.src);
    defer(in.dst);
  }

  // dst op= imm (SAddi/SSubi and the shifts).
  template <typename Fold>
  void immop(const Inst& in, Fold fold) {
    GpSlot& dst = gp_[in.dst];
    if (!dst.deferred) {
      write_concrete(in.dst, fold(dst.val));
      return;
    }
    switch (in.op) {
      case Op::SAddi:
      case Op::SSubi:
        append_gp_immop(trace_, in.op, in.dst,
                        static_cast<int64_t>(in.disp));
        break;
      default:
        append_gp_shift(trace_, in.op, in.dst, in.imm8);
        break;
    }
  }

  void step_scalar_load(const Inst& in) {
    const uint64_t addr = addr_of(in, "scalar load address");
    const uint64_t len = in.op == Op::SLoad16 ? 2
                         : in.op == Op::SLoad32 ? 4
                                                : 8;
    if (mem_.in_device_window(addr)) {
      if (len != 4) {
        bail("non-32-bit access inside the MMIO window");
      }
      // Controller state is modeled exactly, so an MMIO read folds to the
      // value the simulator would see at this point of the stream.
      uint32_t v = 0;
      try {
        v = mem_.read32(addr);
      } catch (const std::exception& e) {
        bail(std::string("SPU register read rejected: ") + e.what());
      }
      write_concrete(in.dst, static_cast<uint64_t>(static_cast<int64_t>(
                                 static_cast<int32_t>(v))));
      return;
    }
    const uint32_t a32 = arena_addr(addr, len, "scalar load");
    if (!known(addr, len)) {
      append_gp_load(trace_, in.op, in.dst, a32);
      defer(in.dst);
      return;
    }
    uint64_t v = 0;
    switch (in.op) {
      case Op::SLoad16:
        v = static_cast<uint64_t>(static_cast<int64_t>(
            static_cast<int16_t>(mem_.read16(addr))));
        break;
      case Op::SLoad32:
        v = static_cast<uint64_t>(static_cast<int64_t>(
            static_cast<int32_t>(mem_.read32(addr))));
        break;
      default:
        v = mem_.read64(addr);
        break;
    }
    write_concrete(in.dst, v);
  }

  void step_scalar_store(const Inst& in) {
    const uint64_t addr = addr_of(in, "scalar store address");
    const uint64_t len = in.op == Op::SStore16 ? 2
                         : in.op == Op::SStore32 ? 4
                                                 : 8;
    if (mem_.in_device_window(addr)) {
      if (len != 4) {
        bail("non-32-bit access inside the MMIO window");
      }
      // Program the modeled controller; the store needs no replay — the
      // backend resolves its effect (routes, GO, counters) right here. The
      // controller validates on GO, so an illegal microprogram surfaces as
      // a typed rejection, never as an escaped logic_error.
      const auto v = static_cast<uint32_t>(
          concrete(in.src, "SPU programming (MMIO store)"));
      try {
        mem_.write32(addr, v);
      } catch (const std::exception& e) {
        bail(std::string("SPU programming rejected: ") + e.what());
      }
      return;
    }
    const uint32_t a32 = arena_addr(addr, len, "scalar store");
    if (gp_[in.src].deferred) {
      append_gp_store(trace_, in.op, in.src, a32);
      mark_known(addr, len, false);
      return;
    }
    const uint64_t v = gp_[in.src].val;
    switch (in.op) {
      case Op::SStore16:
        mem_.write16(addr, static_cast<uint16_t>(v));
        break;
      case Op::SStore32:
        mem_.write32(addr, static_cast<uint32_t>(v));
        break;
      default:
        mem_.write64(addr, v);
        break;
    }
    mark_known(addr, len, true);
    append_scalar_store(trace_, static_cast<int>(len), a32, v);
  }

  void step_mmx(const Inst& in) {
    switch (in.op) {
      case Op::MovqLoad: {
        const uint64_t addr = addr_of(in, "movq load address");
        append_load64(trace_, in.dst, arena_addr(addr, 8, "movq load"));
        break;
      }
      case Op::MovqStore: {
        const uint64_t addr = addr_of(in, "movq store address");
        append_store64(trace_, in.src, arena_addr(addr, 8, "movq store"));
        mark_known(addr, 8, false);  // MMX output: data from here on
        break;
      }
      case Op::MovdLoad: {
        const uint64_t addr = addr_of(in, "movd load address");
        if (mem_.in_device_window(addr)) {
          // MMIO state is fully resolved during the walk; freeze the value.
          uint32_t v = 0;
          try {
            v = mem_.read32(addr);
          } catch (const std::exception& e) {
            bail(std::string("SPU register read rejected: ") + e.what());
          }
          append_set_imm(trace_, in.dst, static_cast<uint64_t>(v));
          break;
        }
        append_load32(trace_, in.dst, arena_addr(addr, 4, "movd load"));
        break;
      }
      case Op::MovdStore: {
        const uint64_t addr = addr_of(in, "movd store address");
        if (mem_.in_device_window(addr)) {
          bail("MMX store into the MMIO window is data-dependent SPU "
               "programming");
        }
        append_store32(trace_, in.src, arena_addr(addr, 4, "movd store"));
        mark_known(addr, 4, false);
        break;
      }
      case Op::MovdToMmx:
        if (gp_[in.src].deferred) {
          append_mmx_from_gp(trace_, in.dst, in.src);
        } else {
          append_set_imm(trace_, in.dst, gp_[in.src].val & 0xFFFFFFFFull);
        }
        break;
      case Op::MovdFromMmx:
        // MMX data enters the scalar plane: defer the register.
        append_gp_from_mmx(trace_, in.dst, in.src);
        defer(in.dst);
        break;
      case Op::Emms:
        break;
      default: {
        // Two-operand MMX data op, possibly crossbar-routed.
        uint8_t flags = 0;
        const int32_t route = resolve_route(&flags);
        Inst lowered = in;
        if (in.op == Op::Paddsw &&
            g_fault_injection.load(std::memory_order_relaxed)) {
          // Test-only planted bug: saturating add lowered as wrapping add
          // (see set_lowering_fault_injection in lowering.h).
          lowered.op = Op::Paddw;
        }
        append_alu(trace_, lowered, route, flags);
        break;
      }
    }
  }

  // -- one architectural step ------------------------------------------------

  void step(const Inst& in, uint64_t* next, bool* halt) {
    const auto& info = isa::op_info(in.op);
    if (info.is_mmx) {
      step_mmx(in);
      return;
    }
    switch (in.op) {
      case Op::Li:
        write_concrete(in.dst,
                       static_cast<uint64_t>(static_cast<int64_t>(in.disp)));
        break;
      case Op::SMov:
        if (gp_[in.src].deferred) {
          materialize(in.src);
          append_gp_mov(trace_, in.dst, in.src);
          defer(in.dst);
        } else {
          write_concrete(in.dst, gp_[in.src].val);
        }
        break;
      case Op::SAdd:
        binop(in, [](uint64_t a, uint64_t b) { return a + b; });
        break;
      case Op::SSub:
        binop(in, [](uint64_t a, uint64_t b) { return a - b; });
        break;
      case Op::SMul:
        binop(in, [](uint64_t a, uint64_t b) { return a * b; });
        break;
      case Op::SAnd:
        binop(in, [](uint64_t a, uint64_t b) { return a & b; });
        break;
      case Op::SOr:
        binop(in, [](uint64_t a, uint64_t b) { return a | b; });
        break;
      case Op::SXor:
        binop(in, [](uint64_t a, uint64_t b) { return a ^ b; });
        break;
      case Op::SAddi:
        immop(in, [&](uint64_t a) {
          return a + static_cast<uint64_t>(static_cast<int64_t>(in.disp));
        });
        break;
      case Op::SSubi:
        immop(in, [&](uint64_t a) {
          return a - static_cast<uint64_t>(static_cast<int64_t>(in.disp));
        });
        break;
      case Op::SShli:
        immop(in, [&](uint64_t a) { return a << in.imm8; });
        break;
      case Op::SShri:
        immop(in, [&](uint64_t a) { return a >> in.imm8; });
        break;
      case Op::SSrai:
        immop(in, [&](uint64_t a) {
          return static_cast<uint64_t>(static_cast<int64_t>(a) >> in.imm8);
        });
        break;

      case Op::SLoad16:
      case Op::SLoad32:
      case Op::SLoad64:
        step_scalar_load(in);
        break;
      case Op::SStore16:
      case Op::SStore32:
      case Op::SStore64:
        step_scalar_store(in);
        break;

      case Op::Jmp:
        *next = static_cast<uint64_t>(in.target);
        break;
      case Op::Jnz:
      case Op::Jz: {
        const bool nz = concrete(in.src, "branch condition") != 0;
        if (in.op == Op::Jnz ? nz : !nz) {
          *next = static_cast<uint64_t>(in.target);
        }
        break;
      }
      case Op::Loopnz: {
        const uint64_t v = concrete(in.src, "loop counter") - 1;
        gp_[in.src].val = v;
        gp_[in.src].materialized = false;
        if (v != 0) *next = static_cast<uint64_t>(in.target);
        break;
      }
      case Op::Nop:
        break;
      case Op::Halt:
        *halt = true;
        break;
      default:
        bail("unhandled scalar opcode");
    }
  }

  const isa::Program& prog_;
  const LoweringSpec& spec_;
  uint64_t cur_pc_ = 0;
  sim::Memory mem_;
  std::vector<bool> known_;
  std::array<GpSlot, isa::kNumGpRegs> gp_{};
  std::optional<core::Spu> spu_;
  std::optional<core::SpuMmio> mmio_;
  NativeTrace trace_;
  std::map<std::array<uint8_t, core::kBusBytes>, int32_t> route_ids_;
};

}  // namespace

NativeTrace lower(const isa::Program& program, const LoweringSpec& spec) {
  if (program.empty()) throw LoweringError("empty program");
  Walker w(program, spec);
  return w.run();
}

void set_lowering_fault_injection(bool enabled) {
  g_fault_injection.store(enabled, std::memory_order_relaxed);
}

bool lowering_fault_injection() {
  return g_fault_injection.load(std::memory_order_relaxed);
}

}  // namespace subword::backend
