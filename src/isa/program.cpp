#include "isa/program.h"

namespace subword::isa {

std::string Program::label_at(int32_t index) const {
  for (const auto& [name, idx] : labels_) {
    if (idx == index) return name;
  }
  return {};
}

Program::StaticCounts Program::static_counts() const {
  StaticCounts c;
  for (const auto& in : insts_) {
    const auto& info = op_info(in.op);
    ++c.total;
    if (info.is_mmx) ++c.mmx;
    if (info.is_permutation) ++c.permutation;
    if (info.cls == ExecClass::Branch) ++c.branches;
  }
  return c;
}

std::string register_index_error(const Inst& in) {
  enum Bank : uint8_t { kNone, kMmx, kGp };
  Bank dst = kNone;
  Bank src = kNone;
  Bank base = kNone;
  switch (in.op) {
    case Op::MovqLoad:
    case Op::MovdLoad:
      dst = kMmx;
      base = kGp;
      break;
    case Op::MovqStore:
    case Op::MovdStore:
      src = kMmx;
      base = kGp;
      break;
    case Op::MovdToMmx:
      dst = kMmx;
      src = kGp;
      break;
    case Op::MovdFromMmx:
      dst = kGp;
      src = kMmx;
      break;
    case Op::Emms:
    case Op::Jmp:
    case Op::Nop:
    case Op::Halt:
      break;
    case Op::Li:
    case Op::SAddi:
    case Op::SSubi:
    case Op::SShli:
    case Op::SShri:
    case Op::SSrai:
      dst = kGp;
      break;
    case Op::SLoad16:
    case Op::SLoad32:
    case Op::SLoad64:
      dst = kGp;
      base = kGp;
      break;
    case Op::SStore16:
    case Op::SStore32:
    case Op::SStore64:
      src = kGp;
      base = kGp;
      break;
    case Op::Jnz:
    case Op::Jz:
    case Op::Loopnz:
      src = kGp;
      break;
    default:
      // dst op= src: MMX data ops (shift-by-immediate included — the
      // simulator reads `src` regardless) and the scalar binary ops.
      dst = src = is_mmx_op(in.op) ? kMmx : kGp;
      break;
  }
  const auto check = [](Bank bank, uint8_t reg,
                        const char* field) -> std::string {
    if (bank == kNone) return {};
    const int count = bank == kMmx ? kNumMmxRegs : kNumGpRegs;
    if (reg < count) return {};
    return std::string(field) + " register index " + std::to_string(reg) +
           " out of range (" + (bank == kMmx ? "MMX" : "GP") + " has " +
           std::to_string(count) + ")";
  };
  std::string why = check(dst, in.dst, "dst");
  if (why.empty()) why = check(src, in.src, "src");
  if (why.empty()) why = check(base, in.base, "base");
  return why;
}

void validate_registers(const Program& p) {
  for (size_t i = 0; i < p.size(); ++i) {
    const std::string why = register_index_error(p.insts()[i]);
    if (!why.empty()) throw InvalidRegisterError(i, why);
  }
}

}  // namespace subword::isa
