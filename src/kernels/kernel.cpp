#include "kernels/kernel.h"

#include <cstdio>
#include <cstring>

namespace subword::kernels {

void MediaKernel::bind_input(sim::Memory& mem,
                             std::span<const uint8_t> input) const {
  mem.write_span<uint8_t>(buffer_spec().input_addr, input);
}

bool MediaKernel::verify_bound(const sim::Memory& /*mem*/,
                               std::span<const uint8_t> /*input*/) const {
  // A kernel advertising a BufferSpec must pair it with the matching
  // reference; reaching this default means it did not.
  return false;
}

int compare_i16(const sim::Memory& mem, uint64_t addr,
                const std::vector<int16_t>& expected,
                const std::string& what, bool log_mismatches) {
  // One range check and one memcmp for the common, verified case; the
  // per-sample walk only runs to count and report a mismatch.
  const auto bytes = mem.view(addr, 2 * expected.size());
  if (std::memcmp(bytes.data(), expected.data(), bytes.size()) == 0) return 0;
  int mismatches = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    int16_t got;
    std::memcpy(&got, bytes.data() + 2 * i, 2);
    if (got != expected[i]) {
      if (log_mismatches && mismatches < 5) {
        std::fprintf(stderr, "%s: mismatch at %zu: got %d want %d\n",
                     what.c_str(), i, got, expected[i]);
      }
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<int16_t> bytes_as_i16(std::span<const uint8_t> bytes) {
  std::vector<int16_t> out(bytes.size() / 2);
  std::memcpy(out.data(), bytes.data(), out.size() * 2);
  return out;
}

}  // namespace subword::kernels
