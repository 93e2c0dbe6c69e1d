#include "kernels/registry.h"

#include <cctype>
#include <mutex>
#include <stdexcept>

#include "kernels/color_convert.h"
#include "kernels/conv2d.h"
#include "kernels/dct.h"
#include "kernels/fft.h"
#include "kernels/fir.h"
#include "kernels/iir.h"
#include "kernels/matmul.h"
#include "kernels/motion_est.h"
#include "kernels/transpose.h"

namespace subword::kernels {

std::vector<std::unique_ptr<MediaKernel>> all_kernels() {
  std::vector<std::unique_ptr<MediaKernel>> v;
  v.push_back(std::make_unique<FirKernel>(12));
  v.push_back(std::make_unique<FirKernel>(22));
  v.push_back(std::make_unique<IirKernel>());
  v.push_back(std::make_unique<FftKernel>(1024));
  v.push_back(std::make_unique<FftKernel>(128));
  v.push_back(std::make_unique<DctKernel>());
  v.push_back(std::make_unique<MatMulKernel>());
  v.push_back(std::make_unique<TransposeKernel>());
  // Extended media suite (beyond the paper's Figure 9): the video-pipeline
  // workloads from the comparative SIMD-scheduling literature.
  v.push_back(std::make_unique<MotionEstKernel>());
  v.push_back(std::make_unique<ColorConvertKernel>());
  v.push_back(std::make_unique<Conv2dKernel>());
  return v;
}

namespace {

// A manual variant may be realizable under only some crossbar geometries
// (the paper kernels target A, the extended ones D); MicroBuilder throws
// std::logic_error for routes the geometry cannot carry, so probe every
// registered configuration. has_manual_spu therefore means "a manual
// variant exists under at least one config" — realizability under the
// specific config a request passes is still checked at prepare time.
bool probe_manual_spu(const MediaKernel& k) {
  for (const auto& cfg : core::kAllConfigs) {
    try {
      if (k.build_spu(cfg, 1).has_value()) return true;
    } catch (const std::logic_error&) {
      continue;
    }
  }
  return false;
}

// Lazy capability memo, one slot per registered kernel: nothing here runs
// until a capability is actually consulted, and then exactly once per
// kernel.
struct KernelCaps {
  std::once_flag manual_once;
  bool has_manual = false;
};

std::vector<KernelCaps>& caps_table() {
  static std::vector<KernelCaps> table(all_kernels().size());
  return table;
}

std::vector<KernelInfo> build_infos() {
  std::vector<KernelInfo> infos;
  const auto kernels = all_kernels();
  infos.reserve(kernels.size());
  for (size_t i = 0; i < kernels.size(); ++i) {
    const auto& k = *kernels[i];
    KernelInfo info;
    info.name = k.name();
    info.description = k.description();
    info.paper_suite = i < kPaperSuiteSize;
    info.buffers = k.buffer_spec();
    info.registry_index = i;
    infos.push_back(std::move(info));
  }
  return infos;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool KernelInfo::has_manual_spu() const {
  auto& caps = caps_table().at(registry_index);
  std::call_once(caps.manual_once, [&] {
    caps.has_manual = probe_manual_spu(*all_kernels().at(registry_index));
  });
  return caps.has_manual;
}

const std::vector<KernelInfo>& kernel_infos() {
  static const std::vector<KernelInfo> infos = build_infos();
  return infos;
}

const KernelInfo* find_kernel_info(std::string_view name) {
  for (const auto& info : kernel_infos()) {
    if (iequals(info.name, name)) return &info;
  }
  return nullptr;
}

std::unique_ptr<MediaKernel> make_kernel(const std::string& name) {
  for (auto& k : all_kernels()) {
    if (k->name() == name) return std::move(k);
  }
  throw std::out_of_range("unknown kernel: " + name);
}

}  // namespace subword::kernels
