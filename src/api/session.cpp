#include "api/session.h"

#include <utility>

namespace subword::api {

Session::Session(SessionOptions opts)
    : engine_(runtime::BatchEngineOptions{
          .workers = opts.workers,
          .queue_capacity = opts.queue_capacity,
          .cache = std::move(opts.cache),
          .shed_queue_depth = opts.shed_queue_depth,
          .shed_max_block_ns = opts.shed_max_block_ns}) {}

Session::~Session() = default;  // ~BatchEngine drains

Request Session::request(std::string kernel) {
  return Request(this, std::move(kernel));
}

Pipeline Session::pipeline() { return Pipeline(this); }

const std::vector<kernels::KernelInfo>& Session::kernels() const {
  return kernels::kernel_infos();
}

Result<kernels::KernelInfo> Session::kernel(std::string_view name) const {
  if (const auto* info = kernels::find_kernel_info(name)) {
    return *info;
  }
  return ApiError{ErrorCode::kUnknownKernel,
                  "no registered kernel named '" + std::string(name) + "'",
                  "Session::kernel"};
}

runtime::EngineStats Session::stats() const { return engine_.stats(); }

size_t Session::queue_depth() const { return engine_.queue_depth(); }

std::shared_ptr<runtime::OrchestrationCache> Session::shared_cache() const {
  return engine_.shared_cache();
}

int Session::workers() const { return engine_.workers(); }

void Session::shutdown() { engine_.shutdown(); }

}  // namespace subword::api
