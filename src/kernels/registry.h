// registry.h — the kernel registry: the paper's Figure-9 benchmark suite
// plus the extended media workloads added on top of it.
//
// Every consumer (runner, batch engine, the api:: facade, tests, benches,
// the README table) discovers kernels through this registry — adding a
// kernel here is the single registration step (see docs/ADDING_A_KERNEL.md).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/crossbar.h"
#include "kernels/kernel.h"
#include "kernels/runner.h"

namespace subword::kernels {

// The paper's eight kernels in Figure 9 order — FIR12, FIR22, IIR,
// FFT1024, FFT128, DCT, Matrix Multiply, Matrix Transpose — followed by
// the extended suite: Motion Estimation (SAD), Color Convert (RGB->YCbCr),
// 2D Convolution.
[[nodiscard]] std::vector<std::unique_ptr<MediaKernel>> all_kernels();

// Number of leading entries of all_kernels() that reproduce the paper's
// Figure 9 (the paper-parity benches iterate only these).
inline constexpr size_t kPaperSuiteSize = 8;

// Static description of one registered kernel — everything the api::
// facade's Request builder validates against without constructing programs
// per request: identity, suite membership, whether a hand-written SPU
// variant exists (SpuMode::Manual is only buildable then), and the
// user-owned-buffer contract.
//
// The one capability probe (manual variant) builds programs, so it is
// *lazy*: has_manual_spu() probes on first call per kernel and memoizes the
// answer process-wide. Enumerating the registry (kernel_infos(), Session
// construction, `kernel_table --names`) therefore costs no orchestrator
// runs. KernelInfo is freely copyable — copies share the registry-side
// memo table.
//
// There is no native-backend probe: whether one exact shape runs on
// ExecBackend::kNativeSwar is decided by the real lowering inside the
// engine's cached preparation, and a rejection arrives as a typed
// kBackendUnsupported from run()/wait() (see backend/lowering.h).
struct KernelInfo {
  std::string name;
  std::string description;
  bool paper_suite = false;     // one of the Figure-9 rows
  BufferSpec buffers;           // zero sizes: synthetic workload only
  // Position in all_kernels() order — the handle into the lazy memo table.
  size_t registry_index = 0;

  // build_spu returns a program under at least one registered config.
  // Lazy: probes every config on first call, memoized thereafter.
  [[nodiscard]] bool has_manual_spu() const;

  // Always true and does no work: every registered kernel is offered on
  // the native backend, and the cached preparation's lowering is the only
  // proof for a concrete shape. Kept for callers that still ask.
  [[nodiscard]] bool native_backend() const { return true; }
};

// Descriptors for every registered kernel, registry order. Built once per
// process and shared thereafter; safe to call from any thread. Cheap:
// capability probes are deferred to the KernelInfo accessors.
[[nodiscard]] const std::vector<KernelInfo>& kernel_infos();

// Case-insensitive lookup ("fir12" finds FIR12); nullptr when unknown.
[[nodiscard]] const KernelInfo* find_kernel_info(std::string_view name);

// Lookup by exact registry name (throws std::out_of_range when unknown).
[[nodiscard]] std::unique_ptr<MediaKernel> make_kernel(
    const std::string& name);

}  // namespace subword::kernels
