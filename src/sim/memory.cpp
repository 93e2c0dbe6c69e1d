#include "sim/memory.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace subword::sim {

Memory::Memory(size_t size_bytes)
    : bytes_(size_bytes, 0),
      dirty_((((size_bytes + kPageBytes - 1) >> kPageShift) + 63) / 64, 0) {}

void Memory::clear() {
  for (size_t w = 0; w < dirty_.size(); ++w) {
    for (uint64_t bits = dirty_[w]; bits != 0; bits &= bits - 1) {
      const size_t first =
          (w * 64 + static_cast<size_t>(std::countr_zero(bits))) * kPageBytes;
      std::memset(bytes_.data() + first, 0,
                  std::min(kPageBytes, bytes_.size() - first));
    }
    dirty_[w] = 0;
  }
}

void Memory::check_range(uint64_t addr, uint64_t len) const {
  if (addr + len > bytes_.size() || addr + len < addr) {
    throw std::out_of_range("Memory access out of range: addr=" +
                            std::to_string(addr) +
                            " len=" + std::to_string(len));
  }
}

uint8_t* Memory::writable(uint64_t addr, uint64_t len) {
  check_range(addr, len);
  mark_pages(dirty_, addr, len);
  return bytes_.data() + addr;
}

std::span<const uint8_t> Memory::view(uint64_t addr, uint64_t len) const {
  check_range(addr, len);
  return {bytes_.data() + addr, static_cast<size_t>(len)};
}

uint8_t* Memory::raw_arena(uint64_t extent,
                           std::span<const uint64_t> store_pages) {
  check_range(0, extent);
  // Every store page lies below `extent`, so the mask fits the bitmap.
  const size_t words = std::min(store_pages.size(), dirty_.size());
  for (size_t w = 0; w < words; ++w) dirty_[w] |= store_pages[w];
  return bytes_.data();
}

uint8_t Memory::read8(uint64_t addr) const {
  check_range(addr, 1);
  return bytes_[addr];
}

uint16_t Memory::read16(uint64_t addr) const {
  check_range(addr, 2);
  uint16_t v;
  std::memcpy(&v, bytes_.data() + addr, 2);
  return v;
}

uint32_t Memory::read32(uint64_t addr) {
  if (in_device_window(addr)) {
    return device_->read32(addr - device_base_);
  }
  check_range(addr, 4);
  uint32_t v;
  std::memcpy(&v, bytes_.data() + addr, 4);
  return v;
}

uint64_t Memory::read64(uint64_t addr) const {
  check_range(addr, 8);
  uint64_t v;
  std::memcpy(&v, bytes_.data() + addr, 8);
  return v;
}

void Memory::write8(uint64_t addr, uint8_t v) { *writable(addr, 1) = v; }

void Memory::write16(uint64_t addr, uint16_t v) {
  std::memcpy(writable(addr, 2), &v, 2);
}

void Memory::write32(uint64_t addr, uint32_t v) {
  if (in_device_window(addr)) {
    device_->write32(addr - device_base_, v);
    return;
  }
  std::memcpy(writable(addr, 4), &v, 4);
}

void Memory::write64(uint64_t addr, uint64_t v) {
  std::memcpy(writable(addr, 8), &v, 8);
}

void Memory::map_device(uint64_t base, uint64_t window_size, Device* dev) {
  if (device_ != nullptr && dev != nullptr) {
    throw std::logic_error("Memory: a device window is already mapped");
  }
  device_ = dev;
  device_base_ = base;
  device_size_ = window_size;
}

}  // namespace subword::sim
