// program.h — an assembled program: instruction vector plus label metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/inst.h"

namespace subword::isa {

class Program {
 public:
  Program() = default;
  Program(std::vector<Inst> insts,
          std::unordered_map<std::string, int32_t> labels)
      : insts_(std::move(insts)), labels_(std::move(labels)) {}

  [[nodiscard]] const std::vector<Inst>& insts() const { return insts_; }
  [[nodiscard]] std::vector<Inst>& insts() { return insts_; }
  [[nodiscard]] size_t size() const { return insts_.size(); }
  [[nodiscard]] bool empty() const { return insts_.empty(); }
  [[nodiscard]] const Inst& at(size_t i) const { return insts_.at(i); }

  [[nodiscard]] const std::unordered_map<std::string, int32_t>& labels()
      const {
    return labels_;
  }

  // Label at instruction index i, empty string if none (for disassembly).
  [[nodiscard]] std::string label_at(int32_t index) const;

  // Static instruction counts by category (used by reports and tests).
  struct StaticCounts {
    int total = 0;
    int mmx = 0;
    int permutation = 0;
    int branches = 0;
  };
  [[nodiscard]] StaticCounts static_counts() const;

 private:
  std::vector<Inst> insts_;
  std::unordered_map<std::string, int32_t> labels_;
};

// Why `in` names a register that does not exist (MMX index >= 8, GP
// index >= 16) in a field its opcode uses, e.g. "dst register index 16
// out of range (GP has 16)"; empty when every such field is valid.
// Executors index their register files and scoreboards with these fields
// unchecked, so a program must pass this rule before it runs.
[[nodiscard]] std::string register_index_error(const Inst& in);

// A program rejected by validate_registers().
class InvalidRegisterError : public std::invalid_argument {
 public:
  InvalidRegisterError(size_t index, const std::string& why)
      : std::invalid_argument("instruction " + std::to_string(index) +
                              ": " + why),
        index_(index) {}
  [[nodiscard]] size_t index() const { return index_; }

 private:
  size_t index_;
};

// Throws InvalidRegisterError for the first instruction of `p` that fails
// register_index_error().
void validate_registers(const Program& p);

}  // namespace subword::isa
