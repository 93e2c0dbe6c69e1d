#include "runtime/history.h"

#include <mutex>

namespace subword::runtime {

HistoryKey HistoryKey::from_shape(const std::string& kernel, int repeats,
                                  bool use_spu, kernels::SpuMode mode,
                                  const core::CrossbarConfig& cfg,
                                  kernels::ExecBackend backend) {
  HistoryKey k;
  k.kernel = kernel;
  k.repeats = repeats;
  k.use_spu = use_spu;
  k.backend = backend;
  // Baseline executions ignore the mode and the crossbar, exactly like
  // OrchestrationKey normalization — one baseline entry per
  // (kernel, repeats, backend) no matter what knobs rode along.
  if (use_spu) {
    k.mode = mode;
    k.input_ports = cfg.input_ports;
    k.output_ports = cfg.output_ports;
    k.port_bits = cfg.port_bits;
    k.modes = cfg.modes;
  }
  return k;
}

void HistoryTable::record(const HistoryKey& key, double cycles) {
  if (key.backend != kernels::ExecBackend::kSimulator) return;
  {
    std::shared_lock lock(mu_);
    if (map_.contains(key)) return;
  }
  std::unique_lock lock(mu_);
  if (map_.try_emplace(key, static_cast<uint64_t>(cycles)).second) {
    epoch_.fetch_add(1, std::memory_order_release);
  }
}

std::optional<uint64_t> HistoryTable::lookup(const HistoryKey& key) const {
  std::shared_lock lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

size_t HistoryTable::size() const {
  std::shared_lock lock(mu_);
  return map_.size();
}

void HistoryTable::clear() {
  std::unique_lock lock(mu_);
  map_.clear();
  // A plan computed on a dropped entry must be recomputed.
  epoch_.fetch_add(1, std::memory_order_release);
}

}  // namespace subword::runtime
