// server.h — the TCP front-end over api::Session: accept loop,
// per-connection reader threads, tenant-scoped sessions, and admission
// control.
//
// Topology: one Server owns one listening socket, one accept thread, and
// one api::Session *per configured tenant*. Every tenant session has its
// own BatchEngine (worker pool, queue, shed thresholds) so cache statistics
// and planner budgets are tenant-scoped, while all sessions share ONE
// OrchestrationCache — tenants amortize each other's preparations exactly
// like the service replicas the runtime layer was designed around.
//
// Each accepted connection gets a reader thread that decodes
// length-prefixed request frames (protocol.h), admits or sheds them, runs
// admitted ones synchronously through the tenant's Session, and writes the
// response frame. One request is in flight per connection by design — a
// client wanting parallelism opens more connections (the soak driver opens
// thousands), which keeps per-connection state trivially small.
//
// Admission control, in check order — every rejection is a *typed
// response*, never a dropped connection:
//   1. draining (Server::shutdown began)      -> kSessionShutdown
//   2. unknown tenant / repeats over the cap  -> kInvalidArgument
//   3. tenant in-flight cap                   -> kOverloaded
//   4. engine shed thresholds (queue depth /
//      bounded blocking, see SessionOptions)  -> kOverloaded
// Payload limits are enforced below all of these, at the frame layer
// (oversized frame: connection closes — framing is poisoned) and the
// decode layer (declared payload over max_payload_bytes: typed
// kPayloadTooLarge, connection stays usable).
//
// Shutdown contract (pinned by test_service's drain race): stop accepting,
// let every request already submitted complete and get its response,
// answer every late request with kSessionShutdown, then close.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/session.h"
#include "service/protocol.h"
#include "service/socket.h"

namespace subword::service {

struct TenantOptions {
  std::string name = "default";
  // Engine shape — forwarded to this tenant's api::SessionOptions.
  int workers = 1;
  int queue_capacity = 0;
  int shed_queue_depth = 0;
  uint64_t shed_max_block_ns = 0;
  // Service-side cap on requests of this tenant simultaneously in flight
  // across all connections (0: unlimited). Excess is shed with
  // kOverloaded before touching the engine.
  int max_inflight = 0;
};

struct ServerOptions {
  uint16_t port = 0;  // 0: ephemeral — read the bound port from port()
  int accept_backlog = 128;
  // Per-request input payload cap (typed kPayloadTooLarge above it) and
  // the frame-layer body cap (connection closes above it — the stream's
  // framing can no longer be trusted).
  size_t max_payload_bytes = 1u << 20;
  uint32_t max_frame_bytes = kMaxFrameBytes;
  // Cap on the repeats knob a request may ask for (0: unlimited). A u32 of
  // repeats is otherwise an amplification attack: bytes in are constant,
  // simulated work is linear in it.
  uint32_t max_repeats = 4096;
  std::vector<TenantOptions> tenants;  // empty: one default tenant
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_api_error = 0;  // typed api errors other than shed
  uint64_t requests_shed = 0;       // kOverloaded responses
  uint64_t protocol_errors = 0;     // malformed frames answered typed
};

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();  // shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bind, listen and start the accept loop. False (with *err explained)
  // when the socket setup fails; calling twice is an error.
  [[nodiscard]] bool start(std::string* err = nullptr);

  // The actually-bound port (after start(); ephemeral binds resolve here).
  [[nodiscard]] uint16_t port() const { return port_; }

  // Graceful drain: stop accepting connections, complete every request
  // already submitted to an engine (their responses still go out), answer
  // requests arriving during the drain with kSessionShutdown, then close
  // every connection and join every thread. Idempotent; also run by the
  // destructor.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  // The tenant's Session (null for unknown names) — cache stats, queue
  // depth and worker counts per tenant for tests, tools and diagnostics.
  [[nodiscard]] api::Session* tenant_session(std::string_view name);

  [[nodiscard]] const std::vector<std::string>& tenant_names() const {
    return tenant_names_;
  }

 private:
  struct Tenant {
    TenantOptions opts;
    std::unique_ptr<api::Session> session;
    std::atomic<int> inflight{0};
  };

  struct Connection {
    Socket sock;
    std::thread reader;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void connection_loop(Connection* conn);
  // Decode + admit + execute one frame body; always produces a response.
  [[nodiscard]] WireResponse handle_frame(std::span<const uint8_t> body);
  [[nodiscard]] WireResponse execute(const WireRequest& req, Tenant* tenant);
  void reap_finished_locked();

  ServerOptions opts_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<std::string> tenant_names_;

  Socket listen_sock_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  std::mutex conns_mu_;
  std::list<Connection> conns_;

  // Aggregate counters (relaxed atomics: monotonic event counts).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_ok_{0};
  std::atomic<uint64_t> requests_api_error_{0};
  std::atomic<uint64_t> requests_shed_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace subword::service
