#include "service/server.h"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "kernels/registry.h"
#include "runtime/orchestration_cache.h"

namespace subword::service {

namespace {

// Crossbar config <-> wire index. kAllConfigs is ordered A..D and the wire
// byte is defined as that index; the name match keeps the mapping honest
// even if a config were ever inserted.
const core::CrossbarConfig& config_at(uint8_t index) {
  return core::kAllConfigs[index % core::kAllConfigs.size()];
}

uint8_t config_index(const core::CrossbarConfig& cfg) {
  for (size_t i = 0; i < core::kAllConfigs.size(); ++i) {
    if (core::kAllConfigs[i].name == cfg.name) {
      return static_cast<uint8_t>(i);
    }
  }
  return 0;
}

WireResponse api_error_response(uint64_t request_id, const api::ApiError& e) {
  WireResponse resp;
  resp.request_id = request_id;
  resp.status = WireStatus::kApiError;
  resp.error_code = error_code_to_wire(e.code);
  resp.message = e.to_string();
  return resp;
}

WireResponse api_error_response(uint64_t request_id, api::ErrorCode code,
                                std::string message) {
  return api_error_response(
      request_id, api::ApiError{code, std::move(message), "service"});
}

}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  if (opts_.tenants.empty()) opts_.tenants.push_back(TenantOptions{});
  // All tenants share one orchestration cache: tenant A's preparation of a
  // (kernel, repeats, config) shape is tenant B's cache hit, while
  // per-tenant Sessions keep queues, shed thresholds and planner budgets
  // isolated.
  auto cache = std::make_shared<runtime::OrchestrationCache>();
  for (const auto& t : opts_.tenants) {
    auto tenant = std::make_unique<Tenant>();
    tenant->opts = t;
    api::SessionOptions so;
    so.workers = t.workers;
    so.queue_capacity = t.queue_capacity;
    so.shed_queue_depth = t.shed_queue_depth;
    so.shed_max_block_ns = t.shed_max_block_ns;
    so.cache = cache;
    tenant->session = std::make_unique<api::Session>(so);
    tenant_names_.push_back(t.name);
    tenants_.push_back(std::move(tenant));
  }
}

Server::~Server() { shutdown(); }

bool Server::start(std::string* err) {
  if (started_.exchange(true)) {
    if (err != nullptr) *err = "start() called twice";
    return false;
  }
  std::string local_err;
  listen_sock_ = listen_loopback(opts_.port, opts_.accept_backlog, &port_,
                                 &local_err);
  if (!listen_sock_.valid()) {
    if (err != nullptr) *err = local_err;
    return false;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::shutdown() {
  if (!started_.load() || stopped_.exchange(true)) return;

  // 1. Stop accepting: wake accept() and join the accept thread so no new
  //    connection can appear below.
  listen_sock_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Drain: requests decoded from here on answer kSessionShutdown.
  draining_.store(true, std::memory_order_release);

  // 3. Tenant sessions stop accepting and complete everything already
  //    submitted — readers blocked in wait() get real results and still
  //    write them out (write sides stay open through step 4).
  for (auto& tenant : tenants_) tenant->session->shutdown();

  // 4. Wake readers blocked in recv: half-close the read sides. A reader
  //    mid-request finishes its response first; one waiting for the next
  //    frame sees EOF and exits.
  {
    std::lock_guard lock(conns_mu_);
    for (auto& conn : conns_) conn.sock.shutdown_read();
  }

  // 5. Join and close everything.
  std::list<Connection> conns;
  {
    std::lock_guard lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn.reader.joinable()) conn.reader.join();
  }
  listen_sock_.close();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.requests_ok = requests_ok_.load();
  s.requests_api_error = requests_api_error_.load();
  s.requests_shed = requests_shed_.load();
  s.protocol_errors = protocol_errors_.load();
  return s;
}

api::Session* Server::tenant_session(std::string_view name) {
  for (auto& tenant : tenants_) {
    if (tenant->opts.name == name) return tenant->session.get();
  }
  return nullptr;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_sock_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: shed at the OS level; keep serving the
        // connections we already have instead of dying.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // shutdown() poisoned the listen socket (or it broke): stop.
      return;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(conns_mu_);
    reap_finished_locked();
    conns_.emplace_back();
    Connection* conn = &conns_.back();
    conn->sock = Socket(fd);
    conn->reader = std::thread([this, conn] { connection_loop(conn); });
  }
}

void Server::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      if (it->reader.joinable()) it->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::connection_loop(Connection* conn) {
  const int fd = conn->sock.fd();
  for (;;) {
    FrameRead frame = read_frame(fd, opts_.max_frame_bytes);
    if (frame.status == IoStatus::kOversized) {
      // The framing itself is poisoned: answer once, typed, then close —
      // there is no trustworthy next frame boundary to resume at.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      WireResponse resp;
      resp.status = WireStatus::kProtoError;
      resp.error_code = static_cast<uint8_t>(ProtoCode::kOversizedFrame);
      resp.message = frame.error;
      std::vector<uint8_t> out;
      encode_response(resp, &out);
      (void)write_all(fd, out);
      break;
    }
    if (frame.status != IoStatus::kOk) break;  // EOF or transport error

    const WireResponse resp = handle_frame(frame.body);
    std::vector<uint8_t> out;
    encode_response(resp, &out);
    if (!write_all(fd, out)) break;
  }
  // Say goodbye at the TCP level now: the Socket itself is owned by the
  // conns_ list and stays allocated until reap/shutdown joins this thread,
  // so without the FIN here a peer that poisoned its stream would wait on
  // a dead-but-open connection. shutdown (not close) keeps the fd number
  // reserved, so the concurrent shutdown_read() sweep in shutdown() can
  // never hit a recycled descriptor.
  conn->sock.shutdown_both();
  conn->done.store(true, std::memory_order_release);
}

WireResponse Server::handle_frame(std::span<const uint8_t> body) {
  auto decoded = decode_request(body, opts_.max_payload_bytes);
  if (!decoded.ok()) {
    // Malformed inside a well-delimited frame: typed response, connection
    // stays usable (the next length prefix is still trustworthy).
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    WireResponse resp;
    resp.status = WireStatus::kProtoError;
    resp.error_code = static_cast<uint8_t>(decoded.error().code);
    resp.message = decoded.error().to_string();
    return resp;
  }
  const WireRequest& req = *decoded;

  if (draining_.load(std::memory_order_acquire)) {
    return api_error_response(req.request_id, api::ErrorCode::kSessionShutdown,
                              "server is draining");
  }

  Tenant* tenant = nullptr;
  if (req.tenant.empty()) {
    tenant = tenants_.front().get();
  } else {
    for (auto& t : tenants_) {
      if (t->opts.name == req.tenant) {
        tenant = t.get();
        break;
      }
    }
  }
  if (tenant == nullptr) {
    requests_api_error_.fetch_add(1, std::memory_order_relaxed);
    return api_error_response(req.request_id, api::ErrorCode::kInvalidArgument,
                              "unknown tenant '" + req.tenant + "'");
  }
  if (opts_.max_repeats != 0 && req.repeats > opts_.max_repeats) {
    requests_api_error_.fetch_add(1, std::memory_order_relaxed);
    return api_error_response(
        req.request_id, api::ErrorCode::kInvalidArgument,
        "repeats " + std::to_string(req.repeats) + " exceeds the server cap " +
            std::to_string(opts_.max_repeats));
  }

  // Per-tenant in-flight cap: reserve a slot before touching the engine;
  // exchange-style increment-then-check keeps the cap exact under races.
  if (tenant->opts.max_inflight > 0) {
    if (tenant->inflight.fetch_add(1, std::memory_order_acq_rel) >=
        tenant->opts.max_inflight) {
      tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
      requests_shed_.fetch_add(1, std::memory_order_relaxed);
      return api_error_response(
          req.request_id, api::ErrorCode::kOverloaded,
          "tenant '" + tenant->opts.name + "' is at its in-flight cap of " +
              std::to_string(tenant->opts.max_inflight));
    }
  }
  WireResponse resp = execute(req, tenant);
  if (tenant->opts.max_inflight > 0) {
    tenant->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }

  if (resp.status == WireStatus::kOk) {
    requests_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (resp.error_code ==
             error_code_to_wire(api::ErrorCode::kOverloaded)) {
    requests_shed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    requests_api_error_.fetch_add(1, std::memory_order_relaxed);
  }
  return resp;
}

WireResponse Server::execute(const WireRequest& req, Tenant* tenant) {
  api::Request r = tenant->session->request(req.kernel);
  r.repeats(static_cast<int>(req.repeats));
  switch (req.mode) {
    case WireMode::kBaseline:
      r.baseline();
      break;
    case WireMode::kManualSpu:
      r.spu(config_at(req.config));  // spu() leaves the mode Manual
      break;
    case WireMode::kAutoOrchestrate:
      r.spu(config_at(req.config)).auto_orchestrate();
      break;
    case WireMode::kPlan:
      r.auto_plan();
      if (req.has_area_budget) r.area_budget_mm2(req.area_budget_mm2);
      if (req.has_delay_budget) r.max_delay_ns(req.max_delay_ns);
      break;
  }
  if (req.backend != WireBackend::kAuto) {
    r.backend(req.backend == WireBackend::kNativeSwar
                  ? api::ExecBackend::kNativeSwar
                  : api::ExecBackend::kSimulator);
  }

  // Output readback: bind a buffer whenever the kernel has a spec, so the
  // response always carries the bytes a buffer-capable kernel produced.
  std::vector<uint8_t> output;
  const auto* info = kernels::find_kernel_info(req.kernel);
  if (info != nullptr && info->buffers.supported()) {
    output.resize(info->buffers.output_bytes);
    r.output(std::span<uint8_t>(output));
  }
  if (!req.input.empty()) {
    r.input(std::span<const uint8_t>(req.input));
  }

  auto result = r.run();
  if (!result.ok()) {
    return api_error_response(req.request_id, result.error());
  }

  WireResponse resp;
  resp.request_id = req.request_id;
  resp.status = WireStatus::kOk;
  resp.stats.cache_hit = result->cache_hit;
  const auto cycles = result->cycles();
  resp.stats.has_cycles = cycles.has_value();
  resp.stats.cycles = cycles.value_or(0);
  resp.stats.instructions = result->run.stats.instructions;
  resp.stats.prepare_ns = result->prepare_ns;
  resp.stats.execute_ns = result->execute_ns;
  if (result->plan != nullptr) {
    resp.has_plan = true;
    const auto& plan = *result->plan;
    resp.plan.mode = !plan.use_spu ? WireMode::kBaseline
                     : plan.mode == kernels::SpuMode::Manual
                         ? WireMode::kManualSpu
                         : WireMode::kAutoOrchestrate;
    resp.plan.config = config_index(plan.cfg);
    resp.plan.backend = plan.backend == kernels::ExecBackend::kNativeSwar
                            ? WireBackend::kNativeSwar
                            : WireBackend::kSimulator;
    resp.plan.score_source = static_cast<uint8_t>(plan.score_source);
    if (plan.measured_cycles) {
      resp.plan.has_observed = true;
      resp.plan.observed_count = 1;
      resp.plan.observed_mean = static_cast<double>(*plan.measured_cycles);
    }
  }
  resp.output = std::move(output);
  return resp;
}

}  // namespace subword::service
