// memory.h — byte-addressable simulated memory with device (MMIO) regions.
//
// The SPU control registers are memory-mapped (paper §3/§4); devices
// register an address window and receive the stores/loads that hit it.
//
// Dirty-page contract: the arena is split into 4 KiB pages and every path
// that mutates arena bytes marks the pages it writes — the typed writers,
// write_span, and raw_arena (whose caller declares its store pages up
// front). clear() zeroes only the marked pages, so resetting a reused arena
// costs what the last job touched, not the arena's size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace subword::sim {

// A memory-mapped device. Addresses passed in are offsets from the device
// base. Only the access widths the device supports need be overridden.
class Device {
 public:
  virtual ~Device() = default;
  virtual void write32(uint64_t offset, uint32_t value) = 0;
  virtual uint32_t read32(uint64_t offset) = 0;
};

// A set of 4 KiB pages as a bitmap: bit p of word p/64 marks page p.
using PageMask = std::vector<uint64_t>;

inline constexpr unsigned kPageShift = 12;
inline constexpr size_t kPageBytes = size_t{1} << kPageShift;

// Add the pages overlapping [addr, addr+len) to `mask`, growing it as
// needed. len must be non-zero.
inline void mark_pages(PageMask& mask, uint64_t addr, uint64_t len) {
  const uint64_t last = (addr + len - 1) >> kPageShift;
  if (mask.size() <= last / 64) mask.resize(last / 64 + 1, 0);
  for (uint64_t p = addr >> kPageShift; p <= last; ++p) {
    mask[p / 64] |= uint64_t{1} << (p % 64);
  }
}

class Memory {
 public:
  explicit Memory(size_t size_bytes);

  [[nodiscard]] size_t size() const { return bytes_.size(); }

  [[nodiscard]] uint8_t read8(uint64_t addr) const;
  [[nodiscard]] uint16_t read16(uint64_t addr) const;
  [[nodiscard]] uint32_t read32(uint64_t addr);
  [[nodiscard]] uint64_t read64(uint64_t addr) const;

  void write8(uint64_t addr, uint8_t v);
  void write16(uint64_t addr, uint16_t v);
  void write32(uint64_t addr, uint32_t v);
  void write64(uint64_t addr, uint64_t v);

  // Bulk typed access for workload setup / verification (bounds checked).
  // 1- and 2-byte elements move as one range check and one memcpy (the
  // same host byte order write16/read16 use); wider elements go element by
  // element because 32-bit accesses may hit the device window.
  template <typename T>
  void write_span(uint64_t addr, std::span<const T> data) {
    if constexpr (sizeof(T) <= 2) {
      if (data.empty()) return;
      std::memcpy(writable(addr, data.size_bytes()), data.data(),
                  data.size_bytes());
    } else {
      for (size_t i = 0; i < data.size(); ++i) {
        if constexpr (sizeof(T) == 4) {
          write32(addr + 4 * i, static_cast<uint32_t>(data[i]));
        } else {
          write64(addr + 8 * i, static_cast<uint64_t>(data[i]));
        }
      }
    }
  }

  template <typename T>
  [[nodiscard]] std::vector<T> read_vector(uint64_t addr, size_t count) const {
    std::vector<T> out(count);
    if constexpr (sizeof(T) <= 2) {
      if (count > 0) {
        std::memcpy(out.data(), view(addr, count * sizeof(T)).data(),
                    count * sizeof(T));
      }
    } else {
      for (size_t i = 0; i < count; ++i) {
        if constexpr (sizeof(T) == 4) {
          out[i] = static_cast<T>(
              const_cast<Memory*>(this)->read32(addr + 4 * i));
        } else {
          out[i] = static_cast<T>(read64(addr + 8 * i));
        }
      }
    }
    return out;
  }

  // Read-only view of arena bytes [addr, addr+len) (bounds checked; device
  // windows are not consulted).
  [[nodiscard]] std::span<const uint8_t> view(uint64_t addr,
                                              uint64_t len) const;

  // Unchecked access for a replay whose every access was proven to lie
  // below `extent` and whose stores all fall in `store_pages` (the native
  // backend's lowering proves both). Checks `extent` against the arena
  // once (std::out_of_range), marks `store_pages` dirty and returns the
  // arena base. Accesses through it bypass any device window.
  [[nodiscard]] uint8_t* raw_arena(uint64_t extent,
                                   std::span<const uint64_t> store_pages);

  // Map a device at [base, base+window_size). 32-bit accesses inside the
  // window are forwarded; other widths inside the window are rejected.
  void map_device(uint64_t base, uint64_t window_size, Device* dev);

  // Remove the device mapping (Machine reuse between jobs).
  void unmap_device() {
    device_ = nullptr;
    device_base_ = 0;
    device_size_ = 0;
  }

  // Zero the arena in place, keeping the allocation. Only pages written
  // since the last clear are touched.
  void clear();

  [[nodiscard]] bool in_device_window(uint64_t addr) const {
    return device_ != nullptr && addr >= device_base_ &&
           addr < device_base_ + device_size_;
  }

 private:
  void check_range(uint64_t addr, uint64_t len) const;
  // Range-check [addr, addr+len), mark its pages dirty and return a
  // pointer to its first byte.
  uint8_t* writable(uint64_t addr, uint64_t len);

  std::vector<uint8_t> bytes_;
  PageMask dirty_;
  Device* device_ = nullptr;
  uint64_t device_base_ = 0;
  uint64_t device_size_ = 0;
};

}  // namespace subword::sim
