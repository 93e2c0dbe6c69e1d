// Tests for simulated memory: typed access, bounds, device windows, and
// the dirty-page reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "backend/lowering.h"
#include "backend/native.h"
#include "isa/assembler.h"
#include "sim/memory.h"
#include "sim/regfile.h"
#include "swar/vec64.h"

using subword::sim::Device;
using subword::sim::Memory;

namespace {

class RecordingDevice final : public Device {
 public:
  void write32(uint64_t offset, uint32_t value) override {
    last_write = {offset, value};
    ++writes;
  }
  uint32_t read32(uint64_t offset) override {
    ++reads;
    return static_cast<uint32_t>(offset + 7);
  }
  std::pair<uint64_t, uint32_t> last_write{};
  int writes = 0;
  int reads = 0;
};

}  // namespace

TEST(Memory, ReadWriteWidths) {
  Memory m(4096);
  m.write8(10, 0xAB);
  EXPECT_EQ(m.read8(10), 0xAB);
  m.write16(100, 0xBEEF);
  EXPECT_EQ(m.read16(100), 0xBEEF);
  m.write32(200, 0xDEADBEEF);
  EXPECT_EQ(m.read32(200), 0xDEADBEEFu);
  m.write64(300, 0x0123456789ABCDEFull);
  EXPECT_EQ(m.read64(300), 0x0123456789ABCDEFull);
}

TEST(Memory, LittleEndianComposition) {
  Memory m(64);
  m.write8(0, 0x11);
  m.write8(1, 0x22);
  EXPECT_EQ(m.read16(0), 0x2211);
}

TEST(Memory, OutOfRangeThrows) {
  Memory m(64);
  EXPECT_THROW((void)m.read64(60), std::out_of_range);
  EXPECT_THROW(m.write8(64, 1), std::out_of_range);
  EXPECT_THROW((void)m.read8(~0ull), std::out_of_range);
}

TEST(Memory, SpanRoundTrip) {
  Memory m(1024);
  const std::vector<int16_t> v{-1, 2, -3, 4, 32767, -32768};
  m.write_span<int16_t>(16, v);
  EXPECT_EQ(m.read_vector<int16_t>(16, v.size()), v);
}

TEST(Memory, DeviceWindowInterceptsOnly32BitAccess) {
  Memory m(64);
  RecordingDevice dev;
  m.map_device(0xF0000000ull, 0x100, &dev);
  m.write32(0xF0000010ull, 77);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(dev.last_write.first, 0x10u);
  EXPECT_EQ(dev.last_write.second, 77u);
  EXPECT_EQ(m.read32(0xF0000004ull), 4u + 7u);
  // Accesses outside the window still bounds-check against the arena.
  EXPECT_THROW(m.write32(0xF0001000ull, 1), std::out_of_range);
}

TEST(Memory, SecondDeviceRejected) {
  Memory m(64);
  RecordingDevice d1, d2;
  m.map_device(0x1000, 0x10, &d1);
  EXPECT_THROW(m.map_device(0x2000, 0x10, &d2), std::logic_error);
}

TEST(Memory, ReadVectorTypedWidths) {
  Memory m(256);
  m.write16(0, 0x8000);  // negative as int16
  m.write16(2, 0x7FFF);
  const auto v16 = m.read_vector<int16_t>(0, 2);
  EXPECT_EQ(v16[0], -32768);
  EXPECT_EQ(v16[1], 32767);
  m.write32(8, 0xDEADBEEF);
  EXPECT_EQ(m.read_vector<uint32_t>(8, 1)[0], 0xDEADBEEFu);
  m.write64(16, 0x0102030405060708ull);
  EXPECT_EQ(m.read_vector<uint64_t>(16, 1)[0], 0x0102030405060708ull);
  m.write8(24, 0xAB);
  EXPECT_EQ(m.read_vector<uint8_t>(24, 1)[0], 0xAB);
}

namespace {

bool all_zero(const Memory& m) {
  const auto bytes = m.view(0, m.size());
  return std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; });
}

}  // namespace

// clear() zeroes only pages marked dirty, so every mutating entry point
// must mark what it writes — including writes straddling a page boundary
// and the partial last page of an arena that is not a whole number of
// pages. Each write runs alone between clears so no other write's pages
// can hide a missing mark.
TEST(Memory, ClearZeroesEveryWriteEntryPoint) {
  constexpr size_t kPage = subword::sim::kPageBytes;
  constexpr size_t kSize = 5 * kPage + 100;
  const std::vector<uint8_t> bytes(kPage + 7, 0xA5);
  const std::vector<int16_t> halves{-1, 2, -3};
  const std::vector<int32_t> words{-7, 8};
  const std::vector<int64_t> quads{-9};
  const std::vector<std::pair<const char*, std::function<void(Memory&)>>> writes = {
      {"write8", [&](Memory& m) { m.write8(kSize - 1, 0x22); }},
      {"write16", [&](Memory& m) { m.write16(kPage - 1, 0x3344); }},
      {"write32", [&](Memory& m) { m.write32(2 * kPage - 2, 0x55667788u); }},
      {"write64", [&](Memory& m) { m.write64(3 * kPage - 4, 0x99AABBCCDDEEFF01ull); }},
      {"write_span<u8>", [&](Memory& m) { m.write_span<uint8_t>(3 * kPage + 9, bytes); }},
      {"write_span<i16>", [&](Memory& m) { m.write_span<int16_t>(kSize - 6, halves); }},
      {"write_span<i32>", [&](Memory& m) { m.write_span<int32_t>(4 * kPage - 4, words); }},
      {"write_span<i64>", [&](Memory& m) { m.write_span<int64_t>(5 * kPage - 4, quads); }},
  };
  Memory m(kSize);
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    write(m);
    ASSERT_FALSE(all_zero(m));
    m.clear();
    EXPECT_TRUE(all_zero(m));
  }
}

TEST(Memory, ClearZeroesNativeTraceStores) {
  // MMX stores, recorded constant stores and deferred GP stores, each on
  // its own page, written through the trace's raw arena pointer.
  subword::isa::Assembler a;
  a.li(subword::isa::R1, 0x7BCD);
  a.li(subword::isa::R2, 0x1000);
  a.movd_to_mmx(subword::isa::MM0, subword::isa::R1);
  a.movq_store(subword::isa::R2, 0, subword::isa::MM0);
  a.movd_store(subword::isa::R2, 0x1FFE, subword::isa::MM0);  // straddles
  a.st32(subword::isa::R2, 0x3000, subword::isa::R1);
  a.paddw(subword::isa::MM0, subword::isa::MM0);
  a.movd_from_mmx(subword::isa::R3, subword::isa::MM0);
  a.st64(subword::isa::R2, 0x4000, subword::isa::R3);
  a.halt();
  subword::backend::LoweringSpec spec;
  spec.mem_bytes = 8 * subword::sim::kPageBytes;
  const auto trace = subword::backend::lower(a.take(), spec);

  Memory m(spec.mem_bytes);
  subword::backend::NativeState st;
  st.mem = &m;
  subword::backend::run_trace(trace, st);
  ASSERT_FALSE(all_zero(m));
  m.clear();
  EXPECT_TRUE(all_zero(m));
}

TEST(RegFile, ByteViewMatchesSpuAddressing) {
  // Byte b of MMn is SPU register address 8n+b — the crossbar's address
  // space (paper Figure 4: the 512x1 SPU register).
  subword::sim::MmxRegFile regs;
  regs.write(3, subword::swar::Vec64{0x1122334455667788ull});
  EXPECT_EQ(regs.byte(3 * 8 + 0), 0x88);
  EXPECT_EQ(regs.byte(3 * 8 + 7), 0x11);
  regs.write(0, subword::swar::Vec64{0xFF});
  EXPECT_EQ(regs.byte(0), 0xFF);
}
