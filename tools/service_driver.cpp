// service_driver — the serving layer's command-line front end: a server, a
// one-shot client, a concurrent soak harness and a wire-level fuzzer, all
// over the same protocol the library exports.
//
// Modes:
//   serve  [--port P] [--workers N]
//       Boot a server (port 0: ephemeral), print the bound port, then run
//       until stdin reaches EOF — `service_driver serve < /dev/null` style
//       lifetime management for CI, no signal games.
//   client --port P --kernel K [--repeats N] [--mode M] [--config A..D]
//          [--backend sim|native|auto] [--tenant T] [--with-input]
//       One blocking round trip; prints the typed outcome and stats.
//   soak   [--connections N] [--requests R] [--probes M] [--json]
//       In-process server, two phases. "soak": N concurrent connections
//       each issuing R bound-buffer requests, every response checked
//       bit-exact against a host-side reference — deterministic counts
//       (ok/shed/divergent/transport) plus wall-clock latency percentiles.
//       "reject": a single-slot tenant is saturated by one slow occupier,
//       then M probes — every one must come back kOverloaded, giving the
//       admission path a deterministic, gateable count.
//   fuzz   [--iters N] [--seed S]
//       Malformed-frame robustness against a live server: seeded
//       adversarial frames (bit flips, lying length prefixes, truncations,
//       garbage, oversized declarations); every iteration must end in a
//       typed response or a clean close — never a hang, never a crash —
//       and the server must still answer a valid request afterwards.
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "fuzz/generator.h"
#include "kernels/registry.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"

namespace {

using namespace subword;
using Clock = std::chrono::steady_clock;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Lift the fd ceiling to the hard limit: a 1000-connection soak holds
// ~2000 descriptors in one process (both ends are ours).
void raise_fd_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &lim);
  }
}

bool parse_mode(const std::string& s, service::WireMode* out) {
  if (s == "baseline") *out = service::WireMode::kBaseline;
  else if (s == "manual") *out = service::WireMode::kManualSpu;
  else if (s == "auto") *out = service::WireMode::kAutoOrchestrate;
  else if (s == "plan") *out = service::WireMode::kPlan;
  else return false;
  return true;
}

bool parse_backend(const std::string& s, service::WireBackend* out) {
  if (s == "sim") *out = service::WireBackend::kSimulator;
  else if (s == "native") *out = service::WireBackend::kNativeSwar;
  else if (s == "auto") *out = service::WireBackend::kAuto;
  else return false;
  return true;
}

// Deterministic input payload for a kernel's primary input region: i16
// lanes patterned within the kernels' pixel data contract [0, 255] (a
// high byte would overflow the 16-bit products against the scalar
// reference).
std::vector<uint8_t> make_input(size_t bytes) {
  std::vector<uint8_t> v(bytes, 0);
  for (size_t i = 0; i + 1 < bytes; i += 2) {
    v[i] = static_cast<uint8_t>((i / 2 * 31 + 7) & 0xFF);
  }
  return v;
}

uint64_t percentile_ns(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

// BENCH_<name>.json in the bench binaries' record format, so
// scripts/check_bench_regression.py consumes it unchanged.
struct BenchJson {
  std::string name;
  std::vector<std::vector<std::pair<std::string, std::string>>> records;

  std::string write() const {
    const std::string path = "BENCH_" + name + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 name.c_str());
    for (size_t r = 0; r < records.size(); ++r) {
      std::fprintf(f, "    {");
      for (size_t i = 0; i < records[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     records[r][i].first.c_str(), records[r][i].second.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return path;
  }
};

std::string num(uint64_t v) { return std::to_string(v); }
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

int arg_int(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
  }
  return std::atoi(argv[++*i]);
}

std::string arg_str(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", flag);
    std::exit(2);
  }
  return argv[++*i];
}

void usage() {
  std::fprintf(
      stderr,
      "usage: service_driver serve  [--port P] [--workers N]\n"
      "       service_driver client --port P --kernel K [--repeats N]\n"
      "                             [--mode baseline|manual|auto|plan]\n"
      "                             [--config A|B|C|D]\n"
      "                             [--backend sim|native|auto]\n"
      "                             [--tenant T] [--with-input]\n"
      "       service_driver soak   [--connections N] [--requests R]\n"
      "                             [--probes M] [--json]\n"
      "       service_driver fuzz   [--iters N] [--seed S]\n");
}

// -- serve --------------------------------------------------------------------

int run_serve(int argc, char** argv) {
  uint16_t port = 0;
  int workers = 2;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--port") port = static_cast<uint16_t>(arg_int(argc, argv, &i, "--port"));
    else if (a == "--workers") workers = arg_int(argc, argv, &i, "--workers");
    else { usage(); return 2; }
  }
  raise_fd_limit();

  service::ServerOptions opts;
  opts.port = port;
  service::TenantOptions tenant;
  tenant.workers = workers;
  opts.tenants.push_back(tenant);

  service::Server server(opts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "start failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("service_driver: listening on port %u\n", server.port());
  std::fflush(stdout);

  // Lifetime = stdin: EOF (or a parent closing the pipe) drains us.
  while (std::fgetc(stdin) != EOF) {
  }
  server.shutdown();
  const auto s = server.stats();
  std::printf(
      "service_driver: drained — %llu connections, %llu ok, %llu api "
      "errors, %llu shed, %llu protocol errors\n",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.requests_ok),
      static_cast<unsigned long long>(s.requests_api_error),
      static_cast<unsigned long long>(s.requests_shed),
      static_cast<unsigned long long>(s.protocol_errors));
  return 0;
}

// -- client -------------------------------------------------------------------

int run_client(int argc, char** argv) {
  uint16_t port = 0;
  service::WireRequest req;
  req.request_id = 1;
  bool with_input = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--port") port = static_cast<uint16_t>(arg_int(argc, argv, &i, "--port"));
    else if (a == "--kernel") req.kernel = arg_str(argc, argv, &i, "--kernel");
    else if (a == "--repeats") req.repeats = static_cast<uint32_t>(arg_int(argc, argv, &i, "--repeats"));
    else if (a == "--tenant") req.tenant = arg_str(argc, argv, &i, "--tenant");
    else if (a == "--with-input") with_input = true;
    else if (a == "--mode") {
      if (!parse_mode(arg_str(argc, argv, &i, "--mode"), &req.mode)) { usage(); return 2; }
    } else if (a == "--config") {
      const std::string c = arg_str(argc, argv, &i, "--config");
      if (c.size() != 1 || c[0] < 'A' || c[0] > 'D') { usage(); return 2; }
      req.config = static_cast<uint8_t>(c[0] - 'A');
    } else if (a == "--backend") {
      if (!parse_backend(arg_str(argc, argv, &i, "--backend"), &req.backend)) { usage(); return 2; }
    } else { usage(); return 2; }
  }
  if (port == 0 || req.kernel.empty()) {
    usage();
    return 2;
  }
  if (with_input) {
    const auto* info = kernels::find_kernel_info(req.kernel);
    if (info == nullptr || !info->buffers.supported()) {
      std::fprintf(stderr, "--with-input: kernel has no buffer contract\n");
      return 2;
    }
    req.input = make_input(info->buffers.input_bytes);
  }

  service::ServiceClient client;
  std::string err;
  if (!client.connect(port, &err)) {
    std::fprintf(stderr, "connect failed: %s\n", err.c_str());
    return 1;
  }
  const auto r = client.call(req);
  if (!r.transport_ok) {
    std::fprintf(stderr, "transport failed: %s\n", r.transport_error.c_str());
    return 1;
  }
  const auto& resp = r.response;
  if (resp.status != service::WireStatus::kOk) {
    std::printf("error response (%s %u): %s\n",
                resp.status == service::WireStatus::kApiError ? "api" : "proto",
                resp.error_code, resp.message.c_str());
    return 1;
  }
  std::printf("ok: id=%llu cache_hit=%d instructions=%llu",
              static_cast<unsigned long long>(resp.request_id),
              resp.stats.cache_hit ? 1 : 0,
              static_cast<unsigned long long>(resp.stats.instructions));
  if (resp.stats.has_cycles) {
    std::printf(" cycles=%llu",
                static_cast<unsigned long long>(resp.stats.cycles));
  }
  std::printf(" prepare=%.2fms execute=%.2fms output=%zuB",
              static_cast<double>(resp.stats.prepare_ns) / 1e6,
              static_cast<double>(resp.stats.execute_ns) / 1e6,
              resp.output.size());
  if (resp.has_plan) {
    std::printf(" plan={mode=%u config=%c backend=%s}",
                static_cast<unsigned>(resp.plan.mode),
                'A' + resp.plan.config,
                resp.plan.backend == service::WireBackend::kNativeSwar
                    ? "native"
                    : "sim");
  }
  std::printf("\n");
  return 0;
}

// -- soak ---------------------------------------------------------------------

int run_soak(int argc, char** argv) {
  int connections = 1000;
  int requests = 2;
  int probes = 200;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--connections") connections = arg_int(argc, argv, &i, "--connections");
    else if (a == "--requests") requests = arg_int(argc, argv, &i, "--requests");
    else if (a == "--probes") probes = arg_int(argc, argv, &i, "--probes");
    else if (a == "--json") json = true;
    else { usage(); return 2; }
  }
  raise_fd_limit();

  const std::string kKernel = "Color Convert";
  const auto* info = kernels::find_kernel_info(kKernel);
  if (info == nullptr || !info->buffers.supported()) {
    std::fprintf(stderr, "soak kernel missing its buffer contract\n");
    return 1;
  }
  const std::vector<uint8_t> input = make_input(info->buffers.input_bytes);

  // Host-side reference: the same knobs through a local Session. The wire
  // responses must reproduce these bytes exactly, every time.
  std::vector<uint8_t> expected(info->buffers.output_bytes);
  {
    api::Session local;
    auto r = local.request(kKernel)
                 .baseline()
                 .backend(api::ExecBackend::kNativeSwar)
                 .input(std::span<const uint8_t>(input))
                 .output(std::span<uint8_t>(expected))
                 .run();
    if (!r.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   r.error().to_string().c_str());
      return 1;
    }
  }

  service::ServerOptions opts;
  {
    service::TenantOptions def;
    def.name = "default";
    def.workers = 2;
    opts.tenants.push_back(def);
    service::TenantOptions cap;
    cap.name = "cap1";
    cap.workers = 1;
    cap.max_inflight = 1;
    opts.tenants.push_back(cap);
    opts.max_repeats = 1 << 16;
    opts.accept_backlog = 1024;
  }
  service::Server server(opts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "start failed: %s\n", err.c_str());
    return 1;
  }
  const uint16_t port = server.port();
  std::printf("soak: %d connections x %d requests against 127.0.0.1:%u "
              "(native backend)\n",
              connections, requests, port);

  // -- Phase 1: accept-all ----------------------------------------------------
  std::atomic<uint64_t> ok{0}, divergent{0}, api_errors{0}, transport{0};
  std::vector<std::vector<uint64_t>> lat(
      static_cast<size_t>(connections));
  const uint64_t t0 = now_ns();
  {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        auto& lats = lat[static_cast<size_t>(c)];
        lats.reserve(static_cast<size_t>(requests));
        service::ServiceClient client;
        if (!client.connect(port)) {
          transport.fetch_add(static_cast<uint64_t>(requests));
          return;
        }
        service::WireRequest req;
        req.kernel = kKernel;
        req.mode = service::WireMode::kBaseline;
        req.backend = service::WireBackend::kNativeSwar;
        req.input = input;
        for (int i = 0; i < requests; ++i) {
          req.request_id =
              static_cast<uint64_t>(c) * 1000000ull + static_cast<uint64_t>(i);
          const uint64_t start = now_ns();
          const auto r = client.call(req);
          lats.push_back(now_ns() - start);
          if (!r.transport_ok) {
            transport.fetch_add(1);
            return;  // connection is gone
          }
          if (r.response.status != service::WireStatus::kOk) {
            api_errors.fetch_add(1);
            continue;
          }
          if (r.response.request_id != req.request_id ||
              r.response.output != expected) {
            divergent.fetch_add(1);
            continue;
          }
          ok.fetch_add(1);
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double wall_ms = static_cast<double>(now_ns() - t0) / 1e6;

  std::vector<uint64_t> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  const double p50 = static_cast<double>(percentile_ns(all, 0.50)) / 1e3;
  const double p90 = static_cast<double>(percentile_ns(all, 0.90)) / 1e3;
  const double p99 = static_cast<double>(percentile_ns(all, 0.99)) / 1e3;
  const double pmax = all.empty() ? 0 : static_cast<double>(all.back()) / 1e3;
  const double rps = wall_ms > 0
                         ? static_cast<double>(all.size()) / (wall_ms / 1e3)
                         : 0;

  std::printf("  phase soak:   ok=%llu divergent=%llu api_errors=%llu "
              "transport=%llu\n",
              static_cast<unsigned long long>(ok.load()),
              static_cast<unsigned long long>(divergent.load()),
              static_cast<unsigned long long>(api_errors.load()),
              static_cast<unsigned long long>(transport.load()));
  std::printf("                p50=%.0fus p90=%.0fus p99=%.0fus max=%.0fus "
              "wall=%.0fms (%.0f req/s)\n",
              p50, p90, p99, pmax, wall_ms, rps);

  // -- Phase 2: deterministic reject-all --------------------------------------
  // One slow occupier fills tenant cap1's single in-flight slot; while it
  // runs, every probe must shed with kOverloaded — no timing in the
  // *decision*, only in how long the window stays open (the occupier's
  // simulator run is ~1e3x slower than the probes need).
  std::atomic<bool> occupier_ok{false};
  std::thread occupier([&] {
    service::ServiceClient occ;
    if (!occ.connect(port)) return;
    service::WireRequest slow;
    slow.request_id = 1;
    slow.tenant = "cap1";
    slow.kernel = "FIR12";
    slow.repeats = 1 << 15;
    slow.mode = service::WireMode::kBaseline;
    slow.backend = service::WireBackend::kSimulator;
    const auto r = occ.call(slow);
    occupier_ok.store(r.ok());
  });
  // The slot is held from before the engine submit to after completion;
  // once the cap1 session has seen the job, the window is open.
  api::Session* cap_session = server.tenant_session("cap1");
  for (int spin = 0; spin < 20000; ++spin) {
    if (cap_session->stats().jobs_submitted >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  uint64_t shed = 0, not_shed = 0;
  {
    service::ServiceClient prober;
    if (prober.connect(port)) {
      service::WireRequest probe;
      probe.tenant = "cap1";
      probe.kernel = "FIR12";
      probe.repeats = 1;
      probe.mode = service::WireMode::kBaseline;
      for (int i = 0; i < probes; ++i) {
        probe.request_id = 1000000000ull + static_cast<uint64_t>(i);
        const auto r = prober.call(probe);
        const bool is_shed =
            r.transport_ok &&
            r.response.status == service::WireStatus::kApiError &&
            r.response.error_code ==
                service::error_code_to_wire(api::ErrorCode::kOverloaded);
        if (is_shed) ++shed;
        else ++not_shed;
      }
    } else {
      not_shed = static_cast<uint64_t>(probes);
    }
  }
  occupier.join();

  std::printf("  phase reject: shed=%llu not_shed=%llu occupier_ok=%d\n",
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(not_shed),
              occupier_ok.load() ? 1 : 0);

  const auto stats = server.stats();
  server.shutdown();
  std::printf("  server: %llu connections, %llu shed total\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests_shed));

  if (json) {
    BenchJson bj{"service", {}};
    bj.records.push_back({
        {"phase", json_escape("soak")},
        {"connections", num(static_cast<uint64_t>(connections))},
        {"requests_per_connection", num(static_cast<uint64_t>(requests))},
        {"ok_responses", num(ok.load())},
        {"divergent_responses", num(divergent.load())},
        {"shed_responses", num(static_cast<uint64_t>(0))},
        {"transport_failures", num(transport.load())},
        {"latency_p50_us", num(p50)},
        {"latency_p90_us", num(p90)},
        {"latency_p99_us", num(p99)},
        {"latency_max_us", num(pmax)},
        {"wall_ms", num(wall_ms)},
        {"throughput_rps", num(rps)},
    });
    bj.records.push_back({
        {"phase", json_escape("reject")},
        {"probes", num(static_cast<uint64_t>(probes))},
        {"shed_responses", num(shed)},
        {"not_shed_responses", num(not_shed)},
        {"occupier_completed", num(static_cast<uint64_t>(occupier_ok ? 1 : 0))},
    });
    const std::string path = bj.write();
    if (path.empty()) {
      std::fprintf(stderr, "failed to write BENCH_service.json\n");
      return 1;
    }
    std::printf("  wrote %s\n", path.c_str());
  }

  const bool green = divergent.load() == 0 && transport.load() == 0 &&
                     api_errors.load() == 0 &&
                     ok.load() == static_cast<uint64_t>(connections) *
                                      static_cast<uint64_t>(requests) &&
                     shed == static_cast<uint64_t>(probes) && not_shed == 0 &&
                     occupier_ok.load();
  std::printf("soak: %s\n", green ? "GREEN" : "RED");
  return green ? 0 : 1;
}

// -- fuzz ---------------------------------------------------------------------

int run_fuzz(int argc, char** argv) {
  int iters = 300;
  uint64_t seed = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--iters") iters = arg_int(argc, argv, &i, "--iters");
    else if (a == "--seed") seed = static_cast<uint64_t>(std::atoll(arg_str(argc, argv, &i, "--seed").c_str()));
    else { usage(); return 2; }
  }
  raise_fd_limit();

  service::ServerOptions opts;
  opts.max_payload_bytes = 1 << 16;
  service::Server server(opts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "start failed: %s\n", err.c_str());
    return 1;
  }
  const uint16_t port = server.port();

  fuzz::Rng rng(seed);
  uint64_t typed = 0, closed = 0, valid_ok = 0;
  int failures = 0;

  for (int i = 0; i < iters; ++i) {
    // A syntactically valid request with randomized knobs as the base.
    service::WireRequest req;
    req.request_id = rng.next();
    req.kernel = rng.chance(0.5) ? "FIR12" : "no_such_kernel";
    req.repeats = static_cast<uint32_t>(1 + rng.below(4));
    req.mode = static_cast<service::WireMode>(rng.below(4));
    req.config = static_cast<uint8_t>(rng.below(4));
    req.backend = service::WireBackend::kSimulator;
    if (rng.chance(0.3)) {
      req.input.resize(static_cast<size_t>(rng.below(256)));
      for (auto& b : req.input) b = static_cast<uint8_t>(rng.next());
    }
    std::vector<uint8_t> frame;
    service::encode_request(req, &frame);

    const int strategy = rng.below(6);
    switch (strategy) {
      case 0:  // valid as-is
        break;
      case 1: {  // flip 1..8 bytes anywhere, length prefix included
        const int flips = 1 + rng.below(8);
        for (int f = 0; f < flips; ++f) {
          frame[static_cast<size_t>(rng.below(
              static_cast<int>(frame.size())))] ^=
              static_cast<uint8_t>(1 + rng.below(255));
        }
        break;
      }
      case 2: {  // garbage body with an honest prefix
        const uint32_t len = static_cast<uint32_t>(rng.below(128));
        frame.assign(4, 0);
        for (int b = 0; b < 4; ++b) {
          frame[static_cast<size_t>(b)] =
              static_cast<uint8_t>(len >> (8 * b));
        }
        for (uint32_t b = 0; b < len; ++b) {
          frame.push_back(static_cast<uint8_t>(rng.next()));
        }
        break;
      }
      case 3:  // truncate: cut the tail off a valid frame
        frame.resize(static_cast<size_t>(
            rng.below(static_cast<int>(frame.size()))));
        break;
      case 4: {  // lying prefix: declares more bytes than follow
        const uint32_t lie = static_cast<uint32_t>(frame.size()) +
                             static_cast<uint32_t>(1 + rng.below(1024));
        for (int b = 0; b < 4; ++b) {
          frame[static_cast<size_t>(b)] =
              static_cast<uint8_t>(lie >> (8 * b));
        }
        break;
      }
      case 5: {  // oversized declaration: beyond the hard frame cap
        const uint32_t huge = service::kMaxFrameBytes +
                              1 + static_cast<uint32_t>(rng.next() % 1000000);
        for (int b = 0; b < 4; ++b) {
          frame[static_cast<size_t>(b)] =
              static_cast<uint8_t>(huge >> (8 * b));
        }
        break;
      }
    }

    std::string cerr_;
    service::Socket sock = service::connect_loopback(port, &cerr_);
    if (!sock.valid()) {
      std::fprintf(stderr, "iter %d: connect failed: %s\n", i, cerr_.c_str());
      ++failures;
      continue;
    }
    // Hang detection: a server that neither answers nor closes within the
    // deadline is a bug this harness exists to catch.
    timeval tv{};
    tv.tv_sec = 10;
    setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    if (!service::write_all(sock.fd(), frame)) {
      // The server may close mid-send on poisoned framing; that is a
      // clean, typed outcome at its end.
      ++closed;
      continue;
    }
    // No more bytes are coming: a server waiting out a lying prefix gets
    // EOF now instead of stalling both sides.
    sock.shutdown_write();

    const auto fr = service::read_frame(sock.fd());
    if (fr.status == service::IoStatus::kOk) {
      auto resp = service::decode_response(fr.body);
      if (!resp.ok()) {
        std::fprintf(stderr, "iter %d (strategy %d): undecodable response: %s\n",
                     i, strategy, resp.error().to_string().c_str());
        ++failures;
        continue;
      }
      ++typed;
      if (resp->status == service::WireStatus::kOk) ++valid_ok;
    } else if (fr.status == service::IoStatus::kEof) {
      ++closed;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      std::fprintf(stderr, "iter %d (strategy %d): HANG — no response, no "
                   "close within the deadline\n", i, strategy);
      ++failures;
    } else {
      // Reset while we held unread bytes — the close-side race of a clean
      // server-side close; not a hang, not a crash.
      ++closed;
    }
  }

  // The server must have survived all of it: a valid request still round
  // trips, bit for bit.
  {
    service::ServiceClient client;
    service::WireRequest req;
    req.request_id = 424242;
    req.kernel = "FIR12";
    req.repeats = 1;
    const bool healthy = client.connect(port) && [&] {
      const auto r = client.call(req);
      return r.ok() && r.response.request_id == 424242;
    }();
    if (!healthy) {
      std::fprintf(stderr, "post-fuzz health check FAILED\n");
      ++failures;
    }
  }

  const auto stats = server.stats();
  server.shutdown();
  std::printf(
      "fuzz: %d iters (seed %llu): %llu typed responses (%llu ok), %llu "
      "clean closes, %llu protocol errors server-side, %d failures\n",
      iters, static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(typed),
      static_cast<unsigned long long>(valid_ok),
      static_cast<unsigned long long>(closed),
      static_cast<unsigned long long>(stats.protocol_errors), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "serve") return run_serve(argc, argv);
  if (mode == "client") return run_client(argc, argv);
  if (mode == "soak") return run_soak(argc, argv);
  if (mode == "fuzz") return run_fuzz(argc, argv);
  usage();
  return 2;
}
