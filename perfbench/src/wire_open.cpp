// wire_open — open-loop serving over loopback TCP.
//
// Seeded Poisson arrivals at a fixed light rate, a fixed heavy rate and a
// rate ladder, spread over `threads` connections to an in-process
// service::Server (one default tenant, `threads` engine workers, warm
// cache). Every request binds its input buffer, repeats=1, over the five
// buffer-capable kernels; 3/4 run explicit auto/D on the native backend,
// 1/8 plan mode with the backend left to the planner and 1/8 auto/D on the
// simulator. A connection carries one request at a time, so a request due
// while its connection is busy waits, and latency is timed from the due
// time: queueing anywhere shows up in it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <thread>

#include "api/session.h"
#include "common.h"
#include "kernels/registry.h"
#include "layers.h"
#include "ref/workload.h"
#include "runtime/planner.h"
#include "service/client.h"
#include "service/server.h"

namespace perfbench {

namespace {

using namespace subword;
using service::WireBackend;
using service::WireMode;

// The five buffer-capable kernels.
constexpr const char* kBufferKernels[] = {
    "Color Convert", "2D Convolution", "FIR12", "FIR22", "Motion Estimation"};
constexpr int kKernelCount = static_cast<int>(std::size(kBufferKernels));
constexpr int kInputsPerKernel = 8;
enum Shape : uint8_t { kNativeAutoD = 0, kPlanAuto = 1, kSimAutoD = 2 };
constexpr int kShapeCount = 3;

// Offered rates, requests per second over all connections. On a 4-core
// host the knee of this mix sits near 10k req/s: the light rate is far
// under it, and the heavy one at 60% of it, because a shared host that
// runs at two thirds of its speed for a minute moves the knee down to
// about 6.5k. The ladder
// brackets the highest rate meeting the latency limit. The limit is 3 ms,
// not 1 ms: the simulator share alone puts the p99 at ~1.4 ms on an idle
// server (a simulator job clears a 1 MiB machine per request).
constexpr double kLightRps = 2000;
constexpr double kHeavyRps = 6000;
constexpr double kLadderRps[] = {2000,  4000,  6000,  8000,
                                 10000, 12000, 14000, 16000};
constexpr double kLimitMs = 3.0;  // latency limit on the p99
// Arrivals generated for the saturation step, far above what the server
// completes: every connection always has its next request ready.
constexpr double kSaturationRps = 40000;
// A step is invalid when the generator fell behind its schedule (its
// median lateness above this) or when requests were still queued behind
// the schedule at the end of the step (a growing backlog). The p99
// lateness is reported but does not decide: a few millisecond-long stalls
// of a shared host put it over 1 ms, and those stalls delay the server as
// much as the generator and show in latency timed from the due time.
constexpr double kMaxLateMs = 0.5;
// The backlog allowed at the end of a step: what arrives in this long at
// the step's rate. A stall of the shared host just before a step ends
// leaves a backlog that drains at once (58 requests after a 1.2 s light
// slice was seen); a server that cannot keep up leaves thousands.
constexpr double kBacklogSeconds = 0.05;
// An invalid step reports no latency. A measured step (light, heavy,
// saturation) that comes out invalid is run again on the same schedule, up
// to this many times in all. If every attempt is invalid, the light step
// fails the run, since its latencies are the compared metrics; the heavy
// one is reported invalid.
constexpr int kStepAttempts = 5;
// A valid measured step during which the hypervisor stole more than this
// share of the machine's CPU time is run again too, within the same
// attempts: each request here is several thread wake-ups, and under steal
// every wake-up waits for a CPU, so one stolen stretch sets a run's p99
// (10 ms against 1.6 ms at 9-12% steal). When no attempt is calm, the
// valid attempt with the least steal is reported.
constexpr double kMaxStealPct = 2.0;
// Requests per summary group: at least ten samples beyond each group's p99.
constexpr size_t kGroupRequests = 1000;
// The untraced light step runs in this many slices, with a loopback echo
// measurement of kEchoSeconds before each and after the last.
constexpr int kLightSlices = 5;
constexpr double kEchoSeconds = 0.3;

struct Arrival {
  int64_t offset_ns = 0;
  uint8_t kernel = 0;
  uint8_t shape = 0;
  uint8_t input = 0;
};

struct Pool {
  std::vector<std::vector<uint8_t>> input[kKernelCount];
  std::vector<std::vector<uint8_t>> expected[kKernelCount];
};

size_t template_index(int kernel, int shape, int input) {
  return (static_cast<size_t>(kernel) * kShapeCount +
          static_cast<size_t>(shape)) *
             kInputsPerKernel +
         static_cast<size_t>(input);
}

service::WireRequest make_request(int kernel, int shape,
                                  const std::vector<uint8_t>& input) {
  service::WireRequest r;
  r.kernel = kBufferKernels[kernel];
  r.repeats = 1;
  r.mode = shape == kPlanAuto ? WireMode::kPlan : WireMode::kAutoOrchestrate;
  r.config = 3;  // D
  r.backend = shape == kPlanAuto    ? WireBackend::kAuto
              : shape == kSimAutoD ? WireBackend::kSimulator
                                   : WireBackend::kNativeSwar;
  r.input = input;
  return r;
}

// The api::Request the server builds for a wire request (Server::execute),
// for the in-process comparison.
api::Request to_api_request(api::Session& s, const service::WireRequest& w,
                            std::vector<uint8_t>& output) {
  api::Request r = s.request(w.kernel);
  r.repeats(static_cast<int>(w.repeats));
  if (w.mode == WireMode::kPlan) {
    r.auto_plan();
  } else {
    r.spu(core::kConfigD).auto_orchestrate();
  }
  if (w.backend != WireBackend::kAuto) {
    r.backend(w.backend == WireBackend::kNativeSwar
                  ? api::ExecBackend::kNativeSwar
                  : api::ExecBackend::kSimulator);
  }
  r.input(std::span<const uint8_t>(w.input));
  r.output(std::span<uint8_t>(output));
  return r;
}

// Seeded Poisson schedule of one connection over `seconds`.
std::vector<Arrival> schedule(uint64_t seed, double rate, double seconds) {
  ref::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    const double u =
        (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.offset_ns = static_cast<int64_t>(t * 1e9);
    a.kernel = static_cast<uint8_t>(rng.next() % kKernelCount);
    const uint64_t m = rng.next() % 8;
    a.shape = m < 6 ? kNativeAutoD : m == 6 ? kPlanAuto : kSimAutoD;
    a.input = static_cast<uint8_t>(rng.next() % kInputsPerKernel);
    out.push_back(a);
  }
  return out;
}

struct Connection {
  uint16_t port = 0;
  service::ServiceClient client;
  std::vector<service::WireRequest> templates;
};

struct Step {
  double rate = 0;
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t backlog_end = 0;
  // Per request, from due time to response (not kept on saturation steps,
  // whose due times are not used).
  std::vector<double> latency_ms;
  std::vector<int64_t> due_ns;   // parallel to latency_ms
  std::vector<int64_t> done_ns;  // every completion
  std::vector<double> late_ms;     // generator lateness
  std::vector<double> rtt_us;      // send to response
  std::vector<double> prepare_us;  // server-side prepare_ns per response
  double p50 = 0, p90 = 0, p99 = 0, late_p50 = 0, late_p99 = 0;
  // Saturation steps only: the median, over runs of kGroupRequests
  // consecutive completions, of completions per second.
  double throughput = 0;
  bool valid = true;
  int attempts = 1;      // measured_step only
  double steal_pct = 0;  // measured_step only
  std::vector<Arrival> first;  // the first connection's arrivals (replay)
};

uint64_t mix_seed(uint64_t seed, uint64_t a, uint64_t b) {
  ref::Rng r(seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b << 32));
  return r.next();
}

// Adds `from`'s requests and samples to `to` (summaries not recomputed).
void absorb(Step& to, const Step& from) {
  to.sent += from.sent;
  to.failed += from.failed;
  to.backlog_end += from.backlog_end;
  const auto append = [](auto& a, const auto& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(to.latency_ms, from.latency_ms);
  append(to.due_ns, from.due_ns);
  append(to.done_ns, from.done_ns);
  append(to.late_ms, from.late_ms);
  append(to.rtt_us, from.rtt_us);
  append(to.prepare_us, from.prepare_us);
}

// Latency percentiles, in due-time order summarised over groups of
// requests, and the generator's lateness.
void summarize_latency(Step& s) {
  std::vector<size_t> order(s.latency_ms.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return s.due_ns[a] < s.due_ns[b]; });
  std::vector<double> by_due;
  for (const size_t i : order) by_due.push_back(s.latency_ms[i]);
  const auto groups = chunk(by_due, kGroupRequests);
  const Summary sm = summarize(groups, 99);
  s.p50 = sm.p50_ms;
  s.p99 = sm.tail_ms;
  s.p90 = summarize(groups, 90).tail_ms;
  s.late_p50 = percentile(s.late_ms, 50);
  s.late_p99 = percentile(s.late_ms, 99);
}

// One step of load at `rate`. With `saturate` the due times are ignored:
// each connection sends its next request as soon as the previous answer
// arrives, until the step ends, which measures what the server completes
// per second (latency is then timed from the send).
Step run_step(std::vector<Connection>& conns, const Pool& pool, double rate,
              double seconds, uint64_t step_seed, Report& rep, Tracer* tracer,
              std::atomic<uint64_t>& request_ids, bool saturate = false) {
  const size_t n = conns.size();
  std::vector<std::vector<Arrival>> sched(n);
  for (size_t c = 0; c < n; ++c) {
    sched[c] = schedule(mix_seed(step_seed, c, 1), rate / static_cast<double>(n),
                        seconds);
  }
  std::vector<Step> per(n);
  std::vector<std::string> errors(n);
  const int64_t t0 = now_ns() + 2'000'000;  // every thread starts together
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      Connection& conn = conns[c];
      Step& st = per[c];
      // Sized up front from the schedule, so peak memory follows the seeded
      // schedule, not how many requests the server happened to complete.
      st.done_ns.reserve(sched[c].size());
      if (!saturate) {
        for (auto* v : {&st.latency_ms, &st.late_ms, &st.rtt_us}) {
          v->reserve(sched[c].size());
        }
        st.due_ns.reserve(sched[c].size());
      }
      int64_t free_at = t0;
      if (saturate) wait_until(t0);
      for (const Arrival& a : sched[c]) {
        int64_t now = now_ns();
        if (saturate && now >= end) break;
        const int64_t due = saturate ? now : t0 + a.offset_ns;
        if (now < due) now = wait_until(due);
        if (!saturate) {
          st.late_ms.push_back(
              static_cast<double>(now - std::max(due, free_at)) * 1e-6);
        }
        auto& req = conn.templates[template_index(a.kernel, a.shape, a.input)];
        req.request_id = request_ids.fetch_add(1, std::memory_order_relaxed);
        const int64_t sent = now_ns();
        const service::CallResult res = conn.client.call(req);
        const int64_t done = now_ns();
        free_at = done;
        ++st.sent;
        st.done_ns.push_back(done);
        if (!saturate) {
          if (done > end && due <= end) ++st.backlog_end;
          st.latency_ms.push_back(static_cast<double>(done - due) * 1e-6);
          st.due_ns.push_back(due);
          st.rtt_us.push_back(static_cast<double>(done - sent) * 1e-3);
        }
        if (tracer != nullptr) {
          const int64_t root =
              tracer->add("wire.request", due, done, -1, req.request_id);
          tracer->add("service.call", sent, done, root, req.request_id);
        }
        std::string why;
        if (!res.transport_ok) {
          why = "transport: " + res.transport_error;
        } else if (res.response.status != service::WireStatus::kOk) {
          why = "status " + std::to_string(static_cast<int>(
                                res.response.status)) +
                ": " + res.response.message;
        } else if (res.response.request_id != req.request_id) {
          why = "response id mismatch";
        } else if (res.response.output != pool.expected[a.kernel][a.input]) {
          why = "output bytes differ from the reference";
        } else {
          st.prepare_us.push_back(
              static_cast<double>(res.response.stats.prepare_ns) * 1e-3);
        }
        if (!why.empty()) {
          ++st.failed;
          if (errors[c].empty()) {
            errors[c] = std::string(kBufferKernels[a.kernel]) + ": " + why;
          }
          if (!res.transport_ok && !conn.client.connected()) {
            (void)conn.client.connect(conn.port);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  Step out;
  out.rate = rate;
  out.first = sched.front();
  for (size_t c = 0; c < n; ++c) {
    absorb(out, per[c]);
    if (per[c].failed != 0) {
      rep.fail("wire request " + errors[c], per[c].failed);
    }
  }
  rep.attempted += out.sent;
  summarize_latency(out);
  // The saturation rate over groups of consecutive completions.
  if (saturate) {
    std::vector<int64_t> done = out.done_ns;
    std::sort(done.begin(), done.end());
    std::vector<double> rates;
    for (size_t i = kGroupRequests; i < done.size(); i += kGroupRequests) {
      rates.push_back(static_cast<double>(kGroupRequests) /
                      (static_cast<double>(done[i] - done[i - kGroupRequests]) *
                       1e-9));
    }
    // Interference from the shared host only ever slows a group, so the
    // upper quartile over the groups, not the median, is what the program
    // completes when the host leaves it alone.
    out.throughput = percentile(rates, 75);
  }
  const auto backlog_limit = std::max<uint64_t>(
      2 * n, static_cast<uint64_t>(rate * kBacklogSeconds));
  out.valid = out.late_p50 <= kMaxLateMs && out.backlog_end <= backlog_limit &&
              out.failed == 0;
  return out;
}

// A step whose figures are reported: run_step, repeated while it is
// invalid or measured under steal (see kStepAttempts, kMaxStealPct). A
// step invalid on every attempt fails the run when `required`.
Step measured_step(std::vector<Connection>& conns, const Pool& pool,
                   double rate, double seconds, uint64_t step_seed,
                   const char* tag, Report& rep, Tracer* tracer,
                   std::atomic<uint64_t>& request_ids, bool required,
                   bool saturate = false) {
  std::optional<Step> best;
  int attempt = 1;
  for (;; ++attempt) {
    const CpuTicks t0 = cpu_ticks();
    Step s = run_step(conns, pool, rate, seconds, step_seed, rep, tracer,
                      request_ids, saturate);
    s.steal_pct = steal_pct(t0, cpu_ticks());
    // Failed requests have already failed the run; a retry adds nothing.
    if (s.failed != 0) return s;
    if (s.valid && (!best || s.steal_pct < best->steal_pct)) {
      best = std::move(s);
    } else if (!s.valid && attempt == kStepAttempts && !best) {
      const std::string why = std::string(tag) + " step invalid " +
                              std::to_string(kStepAttempts) +
                              " times (generator median lateness " +
                              std::to_string(s.late_p50) + " ms, end backlog " +
                              std::to_string(s.backlog_end) + ")";
      if (required) {
        rep.fail(why);
      } else {
        std::fprintf(stderr, "%s: reported invalid\n", why.c_str());
      }
      s.attempts = attempt;
      return s;
    }
    if ((best && best->steal_pct <= kMaxStealPct) || attempt == kStepAttempts) {
      break;
    }
  }
  best->attempts = attempt;
  return std::move(*best);
}

// Highest rate whose p99 meets the limit, interpolated in log space between
// the last passing and the first failing ladder step.
double max_rate(const std::vector<Step>& ladder) {
  const Step* pass = nullptr;
  for (const Step& s : ladder) {
    const bool ok = s.valid && s.p99 <= kLimitMs;
    if (!ok) {
      if (pass == nullptr) return s.rate * kLimitMs / std::max(s.p99, kLimitMs);
      if (!s.valid || s.p99 <= pass->p99) return pass->rate;
      const double f = std::log(kLimitMs / pass->p99) / std::log(s.p99 / pass->p99);
      return pass->rate * std::pow(s.rate / pass->rate, f);
    }
    pass = &s;
  }
  return pass != nullptr ? pass->rate : 0;
}

}  // namespace

Report run_wire_open(const Options& opts, Tracer* tracer) {
  Report rep;
  const int n = opts.threads;

  // Inputs are generated from the seed before anything else runs.
  Pool pool;
  for (int k = 0; k < kKernelCount; ++k) {
    const auto* info = kernels::find_kernel_info(kBufferKernels[k]);
    for (int i = 0; i < kInputsPerKernel; ++i) {
      pool.input[k].push_back(make_input(
          info->buffers.input_bytes, mix_seed(opts.seed, static_cast<uint64_t>(k), i)));
    }
  }

  // -- Setup: server, capability probes, connections, warm cache ----------
  service::ServerOptions so;
  service::TenantOptions tenant;
  tenant.workers = n;
  so.tenants.push_back(tenant);
  service::Server server(so);
  std::string err;
  if (!server.start(&err)) {
    rep.fail("server start: " + err);
    return rep;
  }
  probe_registry(opts, rep);
  std::vector<Connection> conns(static_cast<size_t>(n));
  for (auto& c : conns) {
    c.port = server.port();
    if (!c.client.connect(c.port, &err)) {
      rep.fail("connect: " + err);
      return rep;
    }
    for (int k = 0; k < kKernelCount; ++k) {
      for (int s = 0; s < kShapeCount; ++s) {
        for (int i = 0; i < kInputsPerKernel; ++i) {
          c.templates.push_back(make_request(k, s, pool.input[k][i]));
        }
      }
    }
  }
  std::vector<service::WireResponse> samples;  // one per (kernel, shape)
  for (int k = 0; k < kKernelCount; ++k) {
    for (int s = 0; s < kShapeCount; ++s) {
      auto res = conns[0].client.call(conns[0].templates[template_index(k, s, 0)]);
      if (!res.ok()) {
        rep.fail(std::string("warm-up ") + kBufferKernels[k]);
        return rep;
      }
      samples.push_back(std::move(res.response));
    }
  }
  mark_ready();
  if (opts.setup_only) return rep;

  // -- References: every expected output, and the modelled cycles --------
  uint64_t model_cycles = 0;
  {
    api::Session ref_session({.workers = 1, .cache = nullptr});
    for (int k = 0; k < kKernelCount; ++k) {
      const auto* info = kernels::find_kernel_info(kBufferKernels[k]);
      for (int i = 0; i < kInputsPerKernel; ++i) {
        std::vector<uint8_t> out(info->buffers.output_bytes);
        auto r = ref_session.request(kBufferKernels[k])
                     .input(std::span<const uint8_t>(pool.input[k][i]))
                     .output(std::span<uint8_t>(out))
                     .backend(api::ExecBackend::kNativeSwar)
                     .run();
        if (!r.ok() || !r->run.verified) {
          rep.fail(std::string("reference ") + kBufferKernels[k]);
        }
        pool.expected[k].push_back(std::move(out));
      }
      // Modelled cost of the distinct shapes: auto/D and the planner's pick.
      const auto plan = runtime::plan_kernel(kBufferKernels[k], 1);
      for (const bool planned : {false, true}) {
        api::Request r = ref_session.request(kBufferKernels[k]);
        if (planned && !plan.use_spu) {
          r.baseline();
        } else if (planned) {
          r.spu(plan.cfg);
          if (plan.mode == kernels::SpuMode::Auto) r.auto_orchestrate();
        } else {
          r.spu(core::kConfigD).auto_orchestrate();
        }
        auto res = r.run();
        if (!res.ok()) {
          rep.fail(std::string("model cycles ") + kBufferKernels[k]);
          continue;
        }
        model_cycles += res->cycles().value_or(0);
      }
      for (int s = 0; s < kShapeCount; ++s) {
        if (samples[static_cast<size_t>(k * kShapeCount + s)].output !=
            pool.expected[k][0]) {
          rep.fail(std::string("warm-up output ") + kBufferKernels[k]);
        }
      }
    }
  }
  if (!rep.correct) return rep;

  api::Session* session = server.tenant_session("default");
  const auto stats0 = session->stats();
  const auto server0 = server.stats();
  std::atomic<uint64_t> ids{1};
  const double S = opts.seconds;

  if (!opts.trace) {
    // The light step runs in slices, with a loopback echo measurement before
    // each and after the last, so the reference samples the host over the
    // same stretch as the latencies it scales.
    Step light;
    std::vector<double> echo_us;
    for (int i = 0; i <= kLightSlices; ++i) {
      echo_us.push_back(loopback_echo_us(n, kLightRps, kEchoSeconds,
                                         mix_seed(opts.seed, 300, i)));
      if (echo_us.back() <= 0) {
        rep.fail("loopback echo reference");
        return rep;
      }
      if (i == kLightSlices) break;
      Step slice = measured_step(conns, pool, kLightRps, 0.3 * S / kLightSlices,
                                 mix_seed(opts.seed, 100, i), "light", rep,
                                 nullptr, ids, /*required=*/true);
      if (!slice.valid) return rep;
      if (i == 0) light.first = slice.first;
      absorb(light, slice);
      light.attempts = std::max(light.attempts, slice.attempts);
      light.steal_pct = std::max(light.steal_pct, slice.steal_pct);
    }
    light.rate = kLightRps;
    summarize_latency(light);
    const double echo_med = percentile(echo_us, 50);
    const double echo_scale = kEchoNominalUs / echo_med;
    Step heavy = measured_step(conns, pool, kHeavyRps, 0.12 * S,
                               mix_seed(opts.seed, 101, 0), "heavy", rep,
                               nullptr, ids, /*required=*/false);
    std::vector<Step> ladder;
    for (size_t i = 0; i < std::size(kLadderRps); ++i) {
      ladder.push_back(run_step(conns, pool, kLadderRps[i], 0.02 * S,
                                mix_seed(opts.seed, 200 + i, 0), rep, nullptr,
                                ids));
      if (!ladder.back().valid || ladder.back().p99 > kLimitMs) break;
    }
    const double max_rps = max_rate(ladder);
    // The host runs faster after a few seconds of saturation, so a run-in
    // step goes unmeasured before the measured one.
    (void)run_step(conns, pool, kSaturationRps, 0.1 * S,
                   mix_seed(opts.seed, 103, 0), rep, nullptr, ids,
                   /*saturate=*/true);
    // Not sliced like the light step: split into five slices with
    // calibration rounds between them, it completed a third fewer requests
    // per second, each slice losing the run-in.
    Step saturated = measured_step(conns, pool, kSaturationRps, 0.3 * S,
                                   mix_seed(opts.seed, 102, 0), "saturation",
                                   rep, nullptr, ids, /*required=*/true,
                                   /*saturate=*/true);

    // Light-rate latency on the nominal host by the echo reference (see
    // loopback_echo_us); main() leaves these two alone.
    rep.metrics.push_back({"p50_ms", light.p50 * echo_scale, "ms", false});
    rep.metrics.push_back({"tail_ms", light.p90 * echo_scale, "ms", false});
    rep.metric("ops_per_s", saturated.throughput, "1/s");
    rep.metric("model_cycles", static_cast<double>(model_cycles), "cycles");
    rep.note("host.echo_us", echo_med, "us");
    rep.note("measured.p50_ms", light.p50, "ms");
    rep.note("measured.tail_ms", light.p90, "ms");
    rep.note("wire_p50_ms", light.p50, "ms");
    rep.note("wire_p99_ms", light.p99, "ms");
    if (heavy.valid) rep.note("wire_p99_heavy_ms", heavy.p99, "ms");
    rep.note("wire_max_rps", max_rps, "1/s");
    rep.note("wire_limit_ms", kLimitMs, "ms");
    rep.note("wire.saturated.samples", static_cast<double>(saturated.sent),
             "count");
    rep.note("wire.saturated.attempts", saturated.attempts, "count");
    rep.note("wire.saturated.steal_pct", saturated.steal_pct, "%");
    rep.note("tail_percentile", 90, "%");
    for (const Step* s : {&light, &heavy}) {
      const std::string tag = s == &light ? "light" : "heavy";
      rep.note("wire." + tag + ".rate", s->rate, "1/s");
      rep.note("wire." + tag + ".samples", static_cast<double>(s->sent),
               "count");
      rep.note("wire." + tag + ".valid", s->valid ? 1 : 0, "bool");
      rep.note("wire." + tag + ".attempts", s->attempts, "count");
      rep.note("wire." + tag + ".steal_pct", s->steal_pct, "%");
      rep.note("wire." + tag + ".backlog_end",
               static_cast<double>(s->backlog_end), "count");
      rep.note("loadgen." + tag + ".late_p50_ms", s->late_p50, "ms");
      rep.note("loadgen." + tag + ".late_p99_ms", s->late_p99, "ms");
    }
    for (const Step& s : ladder) {
      const std::string tag = "ladder." + std::to_string(static_cast<int>(s.rate));
      rep.note(tag + ".p99_ms", s.p99, "ms");
      rep.note(tag + ".samples", static_cast<double>(s.sent), "count");
      rep.note(tag + ".valid", s.valid ? 1 : 0, "bool");
      rep.note(tag + ".backlog_end", static_cast<double>(s.backlog_end),
               "count");
      rep.note(tag + ".late_p99_ms", s.late_p99, "ms");
    }
  } else {
    Tracer& t = *tracer;
    // The same light step untraced, then traced: the p50 difference is the
    // tracing overhead.
    Step plain = measured_step(conns, pool, kLightRps, 0.25 * S,
                               mix_seed(opts.seed, 100, 0), "untraced light",
                               rep, nullptr, ids, /*required=*/true);
    const auto eng0 = session->stats();
    Step light = measured_step(conns, pool, kLightRps, 0.25 * S,
                               mix_seed(opts.seed, 100, 0), "light", rep, &t,
                               ids, /*required=*/true);
    Step heavy = measured_step(conns, pool, kHeavyRps, 0.15 * S,
                               mix_seed(opts.seed, 101, 0), "heavy", rep, &t,
                               ids, /*required=*/false);
    if (!plain.valid || !light.valid) return rep;
    const auto eng1 = session->stats();
    const auto server1 = server.stats();

    rep.metric("trace.overhead_pct", 100.0 * (light.p50 - plain.p50) / plain.p50,
               "%");
    rep.metric("loadgen.late_p99_ms", light.late_p99, "ms");
    if (heavy.valid) rep.metric("wire.p99_heavy_ms", heavy.p99, "ms");
    rep.metric("wire.backlog_end_heavy", static_cast<double>(heavy.backlog_end),
               "count");
    rep.metric("service.shed",
               static_cast<double>(server1.requests_shed - server0.requests_shed),
               "count");
    rep.metric("service.protocol_errors",
               static_cast<double>(server1.protocol_errors -
                                   server0.protocol_errors),
               "count");
    emit_engine_deltas(eng0, eng1, rep);
    rep.metric("runtime.prepare_us", mean(light.prepare_us), "us");
    rep.metric("runtime.cache_misses",
               static_cast<double>(eng1.cache.misses - stats0.cache.misses),
               "count");

    // -- service: the codec on this workload's own frames ----------------
    constexpr int kCodecRounds = 200;
    for (const auto& req : conns[0].templates) {
      std::vector<uint8_t> frame;
      service::encode_request(req, &frame);
      const std::span<const uint8_t> body(frame.data() + 4, frame.size() - 4);
      const int64_t a = now_ns();
      for (int i = 0; i < kCodecRounds; ++i) {
        if (!service::decode_request(body).ok()) rep.fail("decode_request");
      }
      t.add("service.decode", a, now_ns());
    }
    for (const auto& resp : samples) {
      const int64_t a = now_ns();
      for (int i = 0; i < kCodecRounds; ++i) {
        std::vector<uint8_t> frame;
        service::encode_response(resp, &frame);
      }
      t.add("service.encode", a, now_ns());
    }
    rep.metric("service.decode_us", t.mean_us("service.decode") / kCodecRounds,
               "us");
    rep.metric("service.encode_us", t.mean_us("service.encode") / kCodecRounds,
               "us");

    // -- api: the light step's first arrivals, in process ----------------
    std::vector<double> run_us;
    for (size_t i = 0; i < std::min<size_t>(light.first.size(), 2000); ++i) {
      const Arrival& a = light.first[i];
      const auto& w = conns[0].templates[template_index(a.kernel, a.shape, a.input)];
      std::vector<uint8_t> out(pool.expected[a.kernel][a.input].size());
      api::Request r = to_api_request(*session, w, out);
      traced(t, "api.build", -1, i, [&] { return r.build().ok(); });
      const int64_t r0 = now_ns();
      auto res = r.run();
      const int64_t r1 = now_ns();
      t.add("api.run", r0, r1, -1, i);
      run_us.push_back(static_cast<double>(r1 - r0) * 1e-3);
      if (!res.ok() || out != pool.expected[a.kernel][a.input]) {
        rep.fail("in-process run diverged");
      }
    }
    rep.metric("api.build_us", t.mean_us("api.build"), "us");
    rep.metric("api.run_us", t.mean_us("api.run"), "us");
    rep.metric("service.wire_overhead_us", mean(light.rtt_us) - mean(run_us),
               "us");

    // -- runtime / core / kernels / backend / sim replicas ---------------
    std::vector<std::string> names(std::begin(kBufferKernels),
                                   std::end(kBufferKernels));
    rep.metric("runtime.history_record_ns", history_record_ns(names), "ns");
    int removed = 0;
    double worst_phase_error = 0;
    sim::RunStats counts;
    for (int k = 0; k < kKernelCount; ++k) {
      const auto kernel = kernels::make_kernel(kBufferKernels[k]);
      traced(t, "runtime.plan", -1, 0,
             [&] { return runtime::plan_kernel(*kernel, 1).use_spu; });
      removed += prepare_replica(*kernel, 1, true, kernels::SpuMode::Auto,
                                 core::kConfigD, true, t);
      auto p = kernels::prepare_spu(*kernel, 1, core::kConfigD,
                                    kernels::SpuMode::Auto);
      auto native = p;
      kernels::lower_native(*kernel, native);
      worst_phase_error = std::max(
          worst_phase_error,
          std::abs(native_phases(*kernel, native, pool.input[k],
                                 pool.expected[k], 400, t, rep)));
      sim::Machine m(p.program, kernels::kMemBytes, p.pc);
      for (int i = 0; i < 40; ++i) {
        const auto s = sim_replica(*kernel, p, pool.input[k][i % kInputsPerKernel],
                                   m, "sim.run.spu", t, rep);
        if (i == 0) counts += s;
      }
    }
    rep.metric("runtime.plan_ms", t.mean_us("runtime.plan") * 1e-3, "ms");
    rep.metric("kernels.prepare_ms", t.mean_us("kernels.prepare") * 1e-3, "ms");
    rep.metric("backend.lower_ms", t.mean_us("backend.lower") * 1e-3, "ms");
    rep.metric("core.orchestrate_ms", t.mean_us("core.orchestrate") * 1e-3,
               "ms");
    rep.metric("core.removed_permutations", removed, "count");
    rep.metric("trace.phase_sum_error_pct", worst_phase_error, "%");
    rep.metric("sim.reset_us", t.mean_us("sim.reset"), "us");
    rep.metric("sim.run_ms.spu", t.mean_us("sim.run.spu") * 1e-3, "ms");
    // counts sums one run per kernel; the span mean is per run.
    rep.metric("sim.ns_per_instr.spu",
               t.mean_us("sim.run.spu") * 1e3 * kKernelCount /
                   static_cast<double>(counts.instructions),
               "ns");
    emit_sim_counts(counts, rep);
  }
  return rep;
}

}  // namespace perfbench
