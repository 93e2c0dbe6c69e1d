// Registry-wide property tests: every registered kernel — present and
// future — must round-trip bit-exactly against its scalar reference on
// randomized problem sizes, through every execution path (baseline MMX,
// hand-written SPU, automatic orchestration). A kernel registered without
// a golden reference, or whose SPU variant diverges at some repeat count,
// fails here even if no kernel-specific test was written for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "kernels/registry.h"
#include "kernels/runner.h"
#include "ref/workload.h"

using namespace subword;
using namespace subword::kernels;
using subword::core::kConfigA;
using subword::core::kConfigD;

namespace {

std::vector<std::string> kernel_names() {
  std::vector<std::string> names;
  for (const auto& k : all_kernels()) names.push_back(k->name());
  return names;
}

// In-contract caller bytes for a kernel's bound input (i16 lanes in the
// range the scalar references assume).
std::vector<uint8_t> bound_input(const KernelInfo& info, uint64_t seed) {
  const size_t bytes = info.buffers.input_bytes;
  if (info.name == "Motion Estimation") return ref::make_bytes(bytes, seed);
  const auto lanes = info.name == "FIR12" ? ref::make_samples(bytes / 2, seed)
                                          : ref::make_pixels(bytes / 2, seed);
  std::vector<uint8_t> out(bytes);
  std::memcpy(out.data(), lanes.data(), bytes);
  return out;
}

}  // namespace

class RegistryProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryProperty, RefVsSwarBitExactOnRandomSizes) {
  const auto k = make_kernel(GetParam());
  ref::Rng rng(0x52454749 ^ std::hash<std::string>{}(GetParam()));
  for (int draw = 0; draw < 3; ++draw) {
    const int repeats = rng.range(1, 5);
    const auto run = run_baseline(*k, repeats);
    EXPECT_TRUE(run.verified)
        << k->name() << " baseline diverges at repeats=" << repeats;
  }
}

TEST_P(RegistryProperty, SpuPathsBitExactOnRandomSizes) {
  const auto k = make_kernel(GetParam());
  ref::Rng rng(0x53505552 ^ std::hash<std::string>{}(GetParam()));
  const int repeats = rng.range(1, 4);
  const auto manual = run_spu(*k, repeats, kConfigA, SpuMode::Manual);
  EXPECT_TRUE(manual.verified)
      << k->name() << " manual SPU diverges at repeats=" << repeats;
  const auto manual_d = run_spu(*k, repeats, kConfigD, SpuMode::Manual);
  EXPECT_TRUE(manual_d.verified)
      << k->name() << " manual SPU (config D) diverges at repeats="
      << repeats;
  const auto aut = run_spu(*k, repeats, kConfigA, SpuMode::Auto);
  EXPECT_TRUE(aut.verified)
      << k->name() << " auto orchestration diverges at repeats=" << repeats;
}

// The planner's cycle memo (runtime/history.h) keeps one simulator run per
// shape as that shape's exact cost. That is sound only because a run's
// cycle count does not depend on the data: every shape the planner can
// choose must report one cycle count for the synthetic input and for two
// seeded bound inputs.
TEST_P(RegistryProperty, SimulatorCyclesDependOnlyOnTheShape) {
  const KernelInfo* info = find_kernel_info(GetParam());
  ASSERT_NE(info, nullptr);
  const auto k = make_kernel(GetParam());
  std::vector<std::pair<std::string, PreparedProgram>> shapes;
  shapes.emplace_back("baseline", prepare_baseline(*k, 1));
  for (const auto& cfg : core::kAllConfigs) {
    const std::string name(cfg.name);
    shapes.emplace_back("auto/" + name,
                        prepare_spu(*k, 1, cfg, SpuMode::Auto));
    try {
      shapes.emplace_back("manual/" + name,
                          prepare_spu(*k, 1, cfg, SpuMode::Manual));
    } catch (const std::logic_error&) {
      // No manual variant under this config: not a plannable shape.
    }
  }
  for (const auto& [label, p] : shapes) {
    const auto synthetic = execute_prepared(*k, p);
    ASSERT_TRUE(synthetic.verified) << label;
    if (!info->buffers.supported()) continue;
    for (const uint64_t seed : {0x5EED1u, 0x5EED2u}) {
      const auto input = bound_input(*info, seed);
      std::vector<uint8_t> output(info->buffers.output_bytes);
      const BufferBinding binding{input, output};
      const auto bound = execute_prepared(*k, p, nullptr, &binding);
      ASSERT_TRUE(bound.verified) << label << " seed " << seed;
      EXPECT_EQ(bound.stats.cycles, synthetic.stats.cycles)
          << label << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, RegistryProperty,
                         ::testing::ValuesIn(kernel_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == ' ') ch = '_';
                           }
                           return n;
                         });

TEST(RegistryProperty, NamesAreUniqueAndLookupRoundTrips) {
  const auto names = kernel_names();
  for (const auto& n : names) {
    EXPECT_EQ(make_kernel(n)->name(), n);
    EXPECT_EQ(std::count(names.begin(), names.end(), n), 1) << n;
  }
}
