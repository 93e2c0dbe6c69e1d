// test_service.cpp — the serving layer end to end: pure protocol
// encode/decode (round trips and every typed decode error), live-server
// round trips on both backends, admission control (in-flight caps, payload
// limits, engine-level shedding), the graceful-drain race, and a seeded
// wire-format fuzz where every hostile frame must end in a typed response
// or a clean close — never a crash, never a hang.
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "fuzz/generator.h"
#include "kernels/registry.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/socket.h"

namespace {

using namespace subword;
using service::ProtoCode;
using service::WireBackend;
using service::WireMode;
using service::WireRequest;
using service::WireResponse;
using service::WireStatus;

// i16 lanes within the kernels' pixel contract [0, 255].
std::vector<uint8_t> pixel_input(size_t bytes, uint8_t salt = 7) {
  std::vector<uint8_t> v(bytes, 0);
  for (size_t i = 0; i + 1 < bytes; i += 2) {
    v[i] = static_cast<uint8_t>((i / 2 * 31 + salt) & 0xFF);
  }
  return v;
}

std::vector<uint8_t> encode(const WireRequest& req) {
  std::vector<uint8_t> frame;
  service::encode_request(req, &frame);
  return frame;
}

// Decode a request frame the way the server does: strip the length
// prefix, hand the body to the decoder.
service::ProtoResult<WireRequest> decode_body(
    const std::vector<uint8_t>& frame, size_t max_payload = 0) {
  return service::decode_request(
      std::span<const uint8_t>(frame).subspan(4), max_payload);
}

// -- Protocol: round trips ----------------------------------------------------

TEST(Protocol, RequestRoundTripsEveryField) {
  WireRequest req;
  req.request_id = 0xDEADBEEFCAFEull;
  req.tenant = "video";
  req.kernel = "Color Convert";
  req.repeats = 96;
  req.mode = WireMode::kAutoOrchestrate;
  req.config = 3;
  req.backend = WireBackend::kNativeSwar;
  req.input = {1, 2, 3, 250, 0};

  const auto decoded = decode_body(encode(req));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->request_id, req.request_id);
  EXPECT_EQ(decoded->tenant, req.tenant);
  EXPECT_EQ(decoded->kernel, req.kernel);
  EXPECT_EQ(decoded->repeats, req.repeats);
  EXPECT_EQ(decoded->mode, req.mode);
  EXPECT_EQ(decoded->config, req.config);
  EXPECT_EQ(decoded->backend, req.backend);
  EXPECT_FALSE(decoded->has_area_budget);
  EXPECT_FALSE(decoded->has_delay_budget);
  EXPECT_EQ(decoded->input, req.input);
}

TEST(Protocol, PlanRequestCarriesBudgets) {
  WireRequest req;
  req.kernel = "FIR12";
  req.mode = WireMode::kPlan;
  req.backend = WireBackend::kAuto;
  req.has_area_budget = true;
  req.area_budget_mm2 = 0.125;
  req.has_delay_budget = true;
  req.max_delay_ns = 2.5;

  const auto decoded = decode_body(encode(req));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(decoded->has_area_budget);
  EXPECT_DOUBLE_EQ(decoded->area_budget_mm2, 0.125);
  EXPECT_TRUE(decoded->has_delay_budget);
  EXPECT_DOUBLE_EQ(decoded->max_delay_ns, 2.5);
  EXPECT_EQ(decoded->backend, WireBackend::kAuto);
}

TEST(Protocol, ResponseRoundTripsStatsPlanAndOutput) {
  WireResponse resp;
  resp.request_id = 77;
  resp.status = WireStatus::kOk;
  resp.stats.cache_hit = true;
  resp.stats.has_cycles = true;
  resp.stats.cycles = 123456;
  resp.stats.instructions = 999;
  resp.stats.prepare_ns = 1000;
  resp.stats.execute_ns = 2000;
  resp.has_plan = true;
  resp.plan.mode = WireMode::kManualSpu;
  resp.plan.config = 3;
  resp.plan.backend = WireBackend::kNativeSwar;
  resp.plan.score_source = 2;  // measured
  resp.plan.has_observed = true;
  resp.plan.observed_count = 1;
  resp.plan.observed_mean = 1234;
  resp.output = {9, 8, 7};

  std::vector<uint8_t> frame;
  service::encode_response(resp, &frame);
  // The observed block keeps its variance slot, always 0.0: it sits just
  // before the output (u32 length + 3 bytes).
  const size_t variance_at = frame.size() - 3 - 4 - 8;
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(frame[variance_at + i], 0u);
  const auto decoded =
      service::decode_response(std::span<const uint8_t>(frame).subspan(4));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->request_id, 77u);
  EXPECT_EQ(decoded->status, WireStatus::kOk);
  EXPECT_TRUE(decoded->stats.cache_hit);
  EXPECT_TRUE(decoded->stats.has_cycles);
  EXPECT_EQ(decoded->stats.cycles, 123456u);
  EXPECT_EQ(decoded->stats.instructions, 999u);
  EXPECT_TRUE(decoded->has_plan);
  EXPECT_EQ(decoded->plan.mode, WireMode::kManualSpu);
  EXPECT_EQ(decoded->plan.config, 3);
  EXPECT_EQ(decoded->plan.backend, WireBackend::kNativeSwar);
  EXPECT_EQ(decoded->plan.score_source, 2);
  EXPECT_TRUE(decoded->plan.has_observed);
  EXPECT_EQ(decoded->plan.observed_count, 1u);
  EXPECT_DOUBLE_EQ(decoded->plan.observed_mean, 1234.0);
  EXPECT_EQ(decoded->output, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(Protocol, ResponseWithoutObservedStatsStaysMinimal) {
  // A cold-history plan carries no observed block — the flags byte must
  // say so and decoding must leave the observed fields zeroed.
  WireResponse resp;
  resp.request_id = 1;
  resp.status = WireStatus::kOk;
  resp.has_plan = true;
  resp.plan.mode = WireMode::kAutoOrchestrate;
  resp.plan.config = 0;
  resp.plan.backend = WireBackend::kSimulator;
  resp.plan.score_source = 0;  // model

  std::vector<uint8_t> frame;
  service::encode_response(resp, &frame);
  const auto decoded =
      service::decode_response(std::span<const uint8_t>(frame).subspan(4));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(decoded->has_plan);
  EXPECT_EQ(decoded->plan.score_source, 0);
  EXPECT_FALSE(decoded->plan.has_observed);
  EXPECT_EQ(decoded->plan.observed_count, 0u);
}

TEST(Protocol, ResponseFlagAndScoreSourceValidationIsTyped) {
  WireResponse resp;
  resp.request_id = 5;
  resp.status = WireStatus::kOk;
  resp.has_plan = true;
  resp.plan.mode = WireMode::kAutoOrchestrate;
  resp.plan.backend = WireBackend::kSimulator;
  std::vector<uint8_t> good;
  service::encode_response(resp, &good);
  // Body layout up to the flags byte: header (7) + request_id u64 (8) +
  // status u8 (1) + stats (two u8 + four u64 = 34) = byte 50 of the body.
  constexpr size_t kFlagsOffset = 4 + 50;  // +4: frame length prefix
  ASSERT_EQ(good[kFlagsOffset], 1u) << "plan flag expected where assumed";

  // An unknown flag bit is kBadFlags, not silently ignored. Bit 2 (which
  // once marked explored runs) is as unknown as any other.
  for (const int bit : {2, 3, 7}) {
    auto bad = good;
    bad[kFlagsOffset] |= static_cast<uint8_t>(1u << bit);
    const auto r =
        service::decode_response(std::span<const uint8_t>(bad).subspan(4));
    ASSERT_FALSE(r.ok()) << "bit " << bit;
    EXPECT_EQ(r.error().code, ProtoCode::kBadFlags) << "bit " << bit;
  }
  {  // observed stats promised without a plan decision is kBadFlags
    auto bad = good;
    bad[kFlagsOffset] = 1u << 1;
    const auto r =
        service::decode_response(std::span<const uint8_t>(bad).subspan(4));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ProtoCode::kBadFlags);
  }
  {  // a score_source beyond the enum range is kBadEnum
    WireResponse out_of_range = resp;
    out_of_range.plan.score_source = service::kWireScoreSourceMax + 1;
    std::vector<uint8_t> frame;
    service::encode_response(out_of_range, &frame);
    const auto r =
        service::decode_response(std::span<const uint8_t>(frame).subspan(4));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ProtoCode::kBadEnum);
  }
}

TEST(Protocol, ErrorCodeWireMappingIsABijection) {
  const api::ErrorCode all[] = {
      api::ErrorCode::kUnknownKernel,      api::ErrorCode::kInvalidArgument,
      api::ErrorCode::kNoManualSpuVariant, api::ErrorCode::kBuffersUnsupported,
      api::ErrorCode::kBufferSizeMismatch, api::ErrorCode::kTilingUnsupported,
      api::ErrorCode::kPipelineMismatch,   api::ErrorCode::kBackendUnsupported,
      api::ErrorCode::kSessionShutdown,    api::ErrorCode::kOverloaded,
      api::ErrorCode::kCancelled,          api::ErrorCode::kExecutionFailed,
      api::ErrorCode::kVerificationFailed,
  };
  std::vector<uint8_t> seen;
  for (const auto code : all) {
    const uint8_t wire = service::error_code_to_wire(code);
    EXPECT_NE(wire, 255) << "unmapped code";
    for (const uint8_t s : seen) EXPECT_NE(s, wire) << "wire value collision";
    seen.push_back(wire);
    api::ErrorCode back;
    ASSERT_TRUE(service::error_code_from_wire(wire, &back));
    EXPECT_EQ(back, code);
  }
  api::ErrorCode unused;
  EXPECT_FALSE(service::error_code_from_wire(200, &unused));
}

// -- Protocol: every decode failure is typed ----------------------------------

TEST(Protocol, DecodeErrorsAreTyped) {
  WireRequest base;
  base.kernel = "FIR12";
  base.input = {1, 2, 3, 4};
  const std::vector<uint8_t> good = encode(base);

  struct Case {
    const char* name;
    std::vector<uint8_t> body;
    ProtoCode want;
  };
  std::vector<Case> cases;

  {  // body ends inside the header
    Case c{"truncated header",
           std::vector<uint8_t>(good.begin() + 4, good.begin() + 7),
           ProtoCode::kTruncated};
    cases.push_back(std::move(c));
  }
  {  // body ends inside a later field
    // Cutting 3 bytes lands inside the input byte-array: its declared u32
    // length now overruns what is left of the body.
    Case c{"truncated mid-body",
           std::vector<uint8_t>(good.begin() + 4, good.end() - 3),
           ProtoCode::kTruncated};
    cases.push_back(std::move(c));
  }
  {
    Case c{"bad magic", std::vector<uint8_t>(good.begin() + 4, good.end()),
           ProtoCode::kBadMagic};
    c.body[0] ^= 0xFF;
    cases.push_back(std::move(c));
  }
  {
    Case c{"bad version", std::vector<uint8_t>(good.begin() + 4, good.end()),
           ProtoCode::kBadVersion};
    c.body[4] = 0x7F;  // version u16 after the u32 magic
    cases.push_back(std::move(c));
  }
  {
    Case c{"bad frame type",
           std::vector<uint8_t>(good.begin() + 4, good.end()),
           ProtoCode::kBadType};
    c.body[6] = 9;  // type u8 after magic + version
    cases.push_back(std::move(c));
  }
  {
    Case c{"trailing garbage",
           std::vector<uint8_t>(good.begin() + 4, good.end()),
           ProtoCode::kTrailingBytes};
    c.body.push_back(0xAA);
    cases.push_back(std::move(c));
  }

  for (const auto& c : cases) {
    const auto r = service::decode_request(c.body);
    ASSERT_FALSE(r.ok()) << c.name << " decoded successfully";
    EXPECT_EQ(r.error().code, c.want)
        << c.name << ": got " << r.error().to_string();
  }
}

TEST(Protocol, BadEnumsAreTyped) {
  // Mutate single knobs of a known-good encoding and expect kBadEnum.
  struct Knob {
    WireMode mode = WireMode::kBaseline;
    uint8_t config = 0;
    WireBackend backend = WireBackend::kSimulator;
  };
  const Knob bad_knobs[] = {
      {static_cast<WireMode>(9), 0, WireBackend::kSimulator},
      {WireMode::kBaseline, 7, WireBackend::kSimulator},
      {WireMode::kBaseline, 0, static_cast<WireBackend>(5)},
      // kAuto backend is only meaningful under kPlan.
      {WireMode::kBaseline, 0, WireBackend::kAuto},
  };
  for (const auto& k : bad_knobs) {
    WireRequest req;
    req.kernel = "FIR12";
    req.mode = k.mode;
    req.config = k.config;
    req.backend = k.backend;
    const auto r = decode_body(encode(req));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ProtoCode::kBadEnum) << r.error().to_string();
  }
}

TEST(Protocol, OversizedPayloadIsTypedBeforeAllocation) {
  WireRequest req;
  req.kernel = "FIR12";
  req.input = pixel_input(4096);
  const auto r = decode_body(encode(req), /*max_payload=*/1024);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ProtoCode::kPayloadTooLarge);
}

TEST(Protocol, PeekFrameTypeClassifies) {
  const auto req_frame = encode(WireRequest{});
  const auto t = service::peek_frame_type(
      std::span<const uint8_t>(req_frame).subspan(4));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, service::FrameType::kRequest);

  const std::vector<uint8_t> junk = {1, 2, 3};
  EXPECT_FALSE(service::peek_frame_type(junk).ok());
}

// -- Engine-level admission control (the runtime/api seam) --------------------

TEST(Shedding, QueueDepthThresholdShedsImmediately) {
  api::Session session({.workers = 1, .shed_queue_depth = 1, .cache = nullptr});
  // Occupy the single worker with a slow job; wait until it is executing
  // (submitted and no longer queued).
  auto slow = session.request("FIR12").repeats(512).submit();
  ASSERT_TRUE(slow.ok());
  while (session.queue_depth() != 0 || session.stats().jobs_submitted < 1) {
    std::this_thread::yield();
  }
  // Fill the queue to the threshold...
  auto queued = session.request("FIR12").repeats(1).submit();
  ASSERT_TRUE(queued.ok());
  while (session.queue_depth() < 1) std::this_thread::yield();
  // ...so the next submission must shed, synchronously and typed.
  auto shed = session.request("FIR12").repeats(1).run();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, api::ErrorCode::kOverloaded);
  EXPECT_GE(session.stats().jobs_shed, 1u);

  EXPECT_TRUE(slow->wait().ok());
  EXPECT_TRUE(queued->wait().ok());
  EXPECT_EQ(session.stats().jobs_shed, 1u);
}

TEST(Shedding, BoundedQueueBlockTimeoutSheds) {
  api::Session session(
      {.workers = 1, .queue_capacity = 1, .shed_max_block_ns = 1000000, .cache = nullptr});
  auto slow = session.request("FIR12").repeats(512).submit();
  ASSERT_TRUE(slow.ok());
  while (session.queue_depth() != 0 || session.stats().jobs_submitted < 1) {
    std::this_thread::yield();
  }
  auto queued = session.request("FIR12").repeats(1).submit();  // queue full
  ASSERT_TRUE(queued.ok());
  // The next submit blocks on backpressure, but only for ~1ms before it
  // resolves as shed instead of stalling its caller indefinitely.
  auto shed = session.request("FIR12").repeats(1).run();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error().code, api::ErrorCode::kOverloaded);
  EXPECT_TRUE(slow->wait().ok());
  EXPECT_TRUE(queued->wait().ok());
}

TEST(Shedding, QueueDepthSnapshotTracksTheQueue) {
  api::Session session({.workers = 1, .cache = nullptr});
  EXPECT_EQ(session.queue_depth(), 0u);
  auto slow = session.request("FIR12").repeats(512).submit();
  ASSERT_TRUE(slow.ok());
  auto queued = session.request("FIR12").repeats(1).submit();
  ASSERT_TRUE(queued.ok());
  // Both jobs resolve; the snapshot returns to empty with them.
  EXPECT_TRUE(slow->wait().ok());
  EXPECT_TRUE(queued->wait().ok());
  EXPECT_EQ(session.queue_depth(), 0u);
}

// -- Live server --------------------------------------------------------------

class ServiceRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string err;
    server_ = std::make_unique<service::Server>(options());
    ASSERT_TRUE(server_->start(&err)) << err;
  }

  virtual service::ServerOptions options() {
    service::ServerOptions opts;
    service::TenantOptions t;
    t.workers = 2;
    opts.tenants.push_back(t);
    return opts;
  }

  service::ServiceClient connect() {
    service::ServiceClient c;
    std::string err;
    EXPECT_TRUE(c.connect(server_->port(), &err)) << err;
    return c;
  }

  std::unique_ptr<service::Server> server_;
};

TEST_F(ServiceRoundTrip, BothBackendsBitExactAgainstLocalReference) {
  const auto* info = kernels::find_kernel_info("Color Convert");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->buffers.supported());
  const auto input = pixel_input(info->buffers.input_bytes);

  for (const bool native : {false, true}) {
    std::vector<uint8_t> expected(info->buffers.output_bytes);
    {
      api::Session local;
      auto ref = local.request("Color Convert")
                     .baseline()
                     .backend(native ? api::ExecBackend::kNativeSwar
                                     : api::ExecBackend::kSimulator)
                     .input(std::span<const uint8_t>(input))
                     .output(std::span<uint8_t>(expected))
                     .run();
      ASSERT_TRUE(ref.ok()) << ref.error().to_string();
    }

    auto client = connect();
    WireRequest req;
    req.request_id = native ? 2 : 1;
    req.kernel = "Color Convert";
    req.mode = WireMode::kBaseline;
    req.backend =
        native ? WireBackend::kNativeSwar : WireBackend::kSimulator;
    req.input = input;
    const auto r = client.call(req);
    ASSERT_TRUE(r.transport_ok) << r.transport_error;
    ASSERT_EQ(r.response.status, WireStatus::kOk) << r.response.message;
    EXPECT_EQ(r.response.request_id, req.request_id);
    EXPECT_EQ(r.response.output, expected);
    // Cycle stats exist exactly when the simulator ran.
    EXPECT_EQ(r.response.stats.has_cycles, !native);
  }
}

TEST_F(ServiceRoundTrip, PlanModeReturnsTheDecision) {
  auto client = connect();
  WireRequest req;
  req.request_id = 3;
  req.kernel = "FIR12";
  req.repeats = 4;
  req.mode = WireMode::kPlan;
  req.backend = WireBackend::kAuto;
  const auto r = client.call(req);
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  ASSERT_EQ(r.response.status, WireStatus::kOk) << r.response.message;
  EXPECT_TRUE(r.response.has_plan);
  EXPECT_NE(r.response.plan.mode, WireMode::kPlan);
  EXPECT_NE(r.response.plan.backend, WireBackend::kAuto);
  // First-ever request against a fresh server: the memo is cold, so the
  // decision is model-sourced and carries no observed block.
  EXPECT_LE(r.response.plan.score_source, service::kWireScoreSourceMax);
  EXPECT_EQ(r.response.plan.score_source, 0) << "cold memo is model-only";
  EXPECT_FALSE(r.response.plan.has_observed);

  // Once the chosen shape has run on the simulator, responses carry its
  // exact cycles over the wire: count 1, the cycles as the mean (the
  // variance slot is always 0.0, see ResponseRoundTripsStatsPlanAndOutput).
  // Pin the simulator backend: native runs record nothing.
  req.backend = WireBackend::kSimulator;
  req.request_id = 100;
  const auto first = client.call(req);
  ASSERT_TRUE(first.transport_ok) << first.transport_error;
  ASSERT_EQ(first.response.status, WireStatus::kOk);
  req.request_id = 101;
  const auto warmed = client.call(req);
  ASSERT_TRUE(warmed.transport_ok) << warmed.transport_error;
  ASSERT_EQ(warmed.response.status, WireStatus::kOk);
  ASSERT_TRUE(warmed.response.has_plan);
  ASSERT_TRUE(warmed.response.stats.has_cycles);
  EXPECT_NE(warmed.response.plan.score_source, 1) << "1 is never emitted";
  EXPECT_TRUE(warmed.response.plan.has_observed);
  EXPECT_EQ(warmed.response.plan.observed_count, 1u);
  EXPECT_DOUBLE_EQ(warmed.response.plan.observed_mean,
                   static_cast<double>(warmed.response.stats.cycles));
}

TEST_F(ServiceRoundTrip, ApiErrorsComeBackTyped) {
  auto client = connect();
  WireRequest req;
  req.request_id = 4;
  req.kernel = "no such kernel";
  const auto r = client.call(req);
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  ASSERT_EQ(r.response.status, WireStatus::kApiError);
  api::ErrorCode code;
  ASSERT_TRUE(service::error_code_from_wire(r.response.error_code, &code));
  EXPECT_EQ(code, api::ErrorCode::kUnknownKernel);

  // The connection survives a typed error: reuse it.
  req.kernel = "FIR12";
  req.request_id = 5;
  const auto r2 = client.call(req);
  ASSERT_TRUE(r2.transport_ok) << r2.transport_error;
  EXPECT_EQ(r2.response.status, WireStatus::kOk);
  EXPECT_EQ(r2.response.request_id, 5u);
}

// A shape the native lowering rejects (here its max_ops runaway guard)
// comes back over the wire as a typed kBackendUnsupported naming the op
// and the config, and the connection stays usable.
TEST_F(ServiceRoundTrip, NativeLoweringRejectionComesBackTyped) {
  auto client = connect();
  WireRequest req;
  req.request_id = 6;
  req.kernel = "FFT1024";
  req.repeats = 512;
  req.mode = WireMode::kManualSpu;
  req.config = 0;  // A
  req.backend = WireBackend::kNativeSwar;
  const auto r = client.call(req);
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  ASSERT_EQ(r.response.status, WireStatus::kApiError);
  api::ErrorCode code;
  ASSERT_TRUE(service::error_code_from_wire(r.response.error_code, &code));
  EXPECT_EQ(code, api::ErrorCode::kBackendUnsupported);
  EXPECT_NE(r.response.message.find("[op "), std::string::npos)
      << r.response.message;
  EXPECT_NE(r.response.message.find("config A]"), std::string::npos)
      << r.response.message;

  req.request_id = 7;
  req.repeats = 1;
  const auto ok = client.call(req);
  ASSERT_TRUE(ok.transport_ok) << ok.transport_error;
  EXPECT_EQ(ok.response.status, WireStatus::kOk);
}

TEST_F(ServiceRoundTrip, UnknownTenantAndRepeatsCapAreInvalidArgument) {
  auto client = connect();
  WireRequest req;
  req.kernel = "FIR12";
  req.tenant = "nobody";
  auto r = client.call(req);
  ASSERT_TRUE(r.transport_ok);
  ASSERT_EQ(r.response.status, WireStatus::kApiError);
  api::ErrorCode code;
  ASSERT_TRUE(service::error_code_from_wire(r.response.error_code, &code));
  EXPECT_EQ(code, api::ErrorCode::kInvalidArgument);

  req.tenant.clear();
  req.repeats = 1u << 20;  // over the default 4096 cap
  r = client.call(req);
  ASSERT_TRUE(r.transport_ok);
  ASSERT_EQ(r.response.status, WireStatus::kApiError);
  ASSERT_TRUE(service::error_code_from_wire(r.response.error_code, &code));
  EXPECT_EQ(code, api::ErrorCode::kInvalidArgument);
}

class ServicePayloadLimit : public ServiceRoundTrip {
 protected:
  service::ServerOptions options() override {
    auto opts = ServiceRoundTrip::options();
    opts.max_payload_bytes = 256;
    return opts;
  }
};

TEST_F(ServicePayloadLimit, OversizedPayloadTypedAndConnectionSurvives) {
  auto client = connect();
  WireRequest req;
  req.request_id = 6;
  req.kernel = "FIR12";
  req.input = pixel_input(1024);
  const auto r = client.call(req);
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  ASSERT_EQ(r.response.status, WireStatus::kProtoError);
  EXPECT_EQ(r.response.error_code,
            static_cast<uint8_t>(ProtoCode::kPayloadTooLarge));

  // Within-frame errors never cost the connection.
  req.input.clear();
  req.request_id = 7;
  const auto r2 = client.call(req);
  ASSERT_TRUE(r2.transport_ok) << r2.transport_error;
  EXPECT_EQ(r2.response.status, WireStatus::kOk);
}

TEST_F(ServiceRoundTrip, OversizedFrameAnsweredOnceThenClosed) {
  std::string err;
  service::Socket sock = service::connect_loopback(server_->port(), &err);
  ASSERT_TRUE(sock.valid()) << err;
  // A 4-byte prefix declaring more than the hard cap. No body follows —
  // the server must answer from the prefix alone.
  const uint32_t huge = service::kMaxFrameBytes + 1;
  std::vector<uint8_t> prefix(4);
  for (int b = 0; b < 4; ++b) {
    prefix[static_cast<size_t>(b)] = static_cast<uint8_t>(huge >> (8 * b));
  }
  ASSERT_TRUE(service::write_all(sock.fd(), prefix));

  const auto fr = service::read_frame(sock.fd());
  ASSERT_EQ(fr.status, service::IoStatus::kOk) << fr.error;
  const auto resp = service::decode_response(fr.body);
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->status, WireStatus::kProtoError);
  EXPECT_EQ(resp->error_code,
            static_cast<uint8_t>(ProtoCode::kOversizedFrame));

  // The framing was poisoned: the server hangs up after the response.
  const auto next = service::read_frame(sock.fd());
  EXPECT_EQ(next.status, service::IoStatus::kEof);
}

// -- Admission: the per-tenant in-flight cap ----------------------------------

TEST(ServiceAdmission, InflightCapShedsTyped) {
  service::ServerOptions opts;
  service::TenantOptions cap;
  cap.name = "cap1";
  cap.workers = 1;
  cap.max_inflight = 1;
  opts.tenants.push_back(cap);
  opts.max_repeats = 1 << 16;
  service::Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  std::atomic<bool> occupier_ok{false};
  std::thread occupier([&] {
    service::ServiceClient occ;
    if (!occ.connect(server.port())) return;
    WireRequest slow;
    slow.tenant = "cap1";
    slow.kernel = "FIR12";
    slow.repeats = 1 << 14;
    slow.backend = WireBackend::kSimulator;
    occupier_ok.store(occ.call(slow).ok());
  });
  // The slot is held from before the engine submit until the response;
  // once the tenant's session has seen the job, the window is open.
  api::Session* cap_session = server.tenant_session("cap1");
  ASSERT_NE(cap_session, nullptr);
  while (cap_session->stats().jobs_submitted < 1) std::this_thread::yield();

  service::ServiceClient prober;
  ASSERT_TRUE(prober.connect(server.port()));
  WireRequest probe;
  probe.tenant = "cap1";
  probe.kernel = "FIR12";
  for (int i = 0; i < 8; ++i) {
    const auto r = prober.call(probe);
    ASSERT_TRUE(r.transport_ok) << r.transport_error;
    ASSERT_EQ(r.response.status, WireStatus::kApiError);
    api::ErrorCode code;
    ASSERT_TRUE(service::error_code_from_wire(r.response.error_code, &code));
    EXPECT_EQ(code, api::ErrorCode::kOverloaded);
  }
  occupier.join();
  EXPECT_TRUE(occupier_ok.load());
  EXPECT_EQ(server.stats().requests_shed, 8u);
  server.shutdown();
}

// -- Graceful drain under racing clients --------------------------------------

TEST(ServiceDrain, ShutdownRacedBy64SubmittingClients) {
  service::ServerOptions opts;
  service::TenantOptions t;
  t.workers = 2;
  opts.tenants.push_back(t);
  service::Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const uint16_t port = server.port();

  constexpr int kClients = 64;
  std::atomic<uint64_t> oks{0}, shutdown_errors{0}, other_errors{0},
      closes{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      service::ServiceClient client;
      if (!client.connect(port)) {
        closes.fetch_add(1);
        return;
      }
      WireRequest req;
      req.kernel = "FIR12";
      req.repeats = 2;
      for (int i = 0; i < 50; ++i) {
        req.request_id =
            static_cast<uint64_t>(c) * 1000 + static_cast<uint64_t>(i);
        const auto r = client.call(req);
        if (!r.transport_ok) {
          // The drain closed us — the only acceptable transport outcome.
          closes.fetch_add(1);
          return;
        }
        if (r.response.status == WireStatus::kOk) {
          if (r.response.request_id != req.request_id) {
            other_errors.fetch_add(1);
            return;
          }
          oks.fetch_add(1);
          continue;
        }
        api::ErrorCode code;
        if (r.response.status == WireStatus::kApiError &&
            service::error_code_from_wire(r.response.error_code, &code) &&
            code == api::ErrorCode::kSessionShutdown) {
          shutdown_errors.fetch_add(1);
        } else {
          other_errors.fetch_add(1);
          return;
        }
      }
    });
  }

  // Let the stampede get going, then drain under it.
  while (oks.load() < 32) std::this_thread::yield();
  server.shutdown();
  for (auto& th : clients) th.join();

  // Every request resolved as success, a typed shutdown error, or a clean
  // close — nothing hung and nothing came back malformed or misrouted.
  EXPECT_EQ(other_errors.load(), 0u);
  EXPECT_GE(oks.load(), 32u);

  // The drain is final: no new connections are accepted.
  service::ServiceClient late;
  EXPECT_FALSE(late.connect(port));
}

// -- Wire-format fuzz against a live server -----------------------------------

TEST(ServiceWireFuzz, HostileFramesAlwaysTypedOrClosedNeverHung) {
  service::ServerOptions opts;
  opts.max_payload_bytes = 1 << 14;
  service::Server server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const uint16_t port = server.port();

  fuzz::Rng rng(0xF00D);
  int typed = 0, closed = 0;
  for (int i = 0; i < 120; ++i) {
    WireRequest req;
    req.request_id = rng.next();
    req.kernel = rng.chance(0.5) ? "FIR12" : "bogus";
    req.repeats = static_cast<uint32_t>(1 + rng.below(3));
    req.mode = static_cast<WireMode>(rng.below(4));
    req.config = static_cast<uint8_t>(rng.below(4));
    std::vector<uint8_t> frame = encode(req);

    switch (rng.below(5)) {
      case 0:
        break;  // valid
      case 1:  // bit flips, prefix included
        for (int f = 0, n = 1 + rng.below(6); f < n; ++f) {
          frame[static_cast<size_t>(
              rng.below(static_cast<int>(frame.size())))] ^=
              static_cast<uint8_t>(1 + rng.below(255));
        }
        break;
      case 2:  // truncation
        frame.resize(static_cast<size_t>(
            rng.below(static_cast<int>(frame.size()))));
        break;
      case 3: {  // lying length prefix
        const uint32_t lie = static_cast<uint32_t>(frame.size()) +
                             static_cast<uint32_t>(1 + rng.below(512));
        for (int b = 0; b < 4; ++b) {
          frame[static_cast<size_t>(b)] =
              static_cast<uint8_t>(lie >> (8 * b));
        }
        break;
      }
      case 4: {  // garbage with an honest prefix
        const uint32_t len = static_cast<uint32_t>(rng.below(96));
        frame.assign(4, 0);
        for (int b = 0; b < 4; ++b) {
          frame[static_cast<size_t>(b)] = static_cast<uint8_t>(len >> (8 * b));
        }
        for (uint32_t b = 0; b < len; ++b) {
          frame.push_back(static_cast<uint8_t>(rng.next()));
        }
        break;
      }
    }

    service::Socket sock = service::connect_loopback(port, &err);
    ASSERT_TRUE(sock.valid()) << "iter " << i << ": " << err;
    timeval tv{};
    tv.tv_sec = 30;  // hang backstop, far above any legitimate latency
    setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (!service::write_all(sock.fd(), frame)) {
      ++closed;
      continue;
    }
    sock.shutdown_write();  // no more bytes: lying prefixes see EOF, not us

    const auto fr = service::read_frame(sock.fd());
    if (fr.status == service::IoStatus::kOk) {
      const auto resp = service::decode_response(fr.body);
      ASSERT_TRUE(resp.ok())
          << "iter " << i << ": undecodable response: "
          << resp.error().to_string();
      ++typed;
    } else if (fr.status == service::IoStatus::kEof) {
      ++closed;
    } else {
      ASSERT_FALSE(errno == EAGAIN || errno == EWOULDBLOCK)
          << "iter " << i << ": server hung (no response, no close)";
      ++closed;  // reset during close — a clean outcome's race, not a hang
    }
  }
  EXPECT_GT(typed, 0);
  EXPECT_GT(closed, 0);

  // The server survived it all: a valid request still round trips.
  service::ServiceClient client;
  ASSERT_TRUE(client.connect(port));
  WireRequest req;
  req.request_id = 99;
  req.kernel = "FIR12";
  const auto r = client.call(req);
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  EXPECT_EQ(r.response.status, WireStatus::kOk);
  EXPECT_EQ(r.response.request_id, 99u);
  server.shutdown();
}

}  // namespace
