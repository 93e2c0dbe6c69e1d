// protocol.h — the service's versioned, length-prefixed binary wire format.
//
// Every frame on the wire is a little-endian u32 body length followed by
// the body; every body starts with a magic word, a protocol version and a
// frame type, so a desynchronized or foreign stream is detected at the
// first frame, not by misparsing payload bytes. Requests carry the same
// knobs api::Request exposes (kernel, repeats, mode, crossbar config,
// backend, planner budgets) plus an optional input payload; responses
// carry a status, a typed error code, the execution stats and the output
// payload.
//
// Decoding NEVER throws and never crashes on hostile bytes: every malformed
// input — truncated field, bad magic, unknown enum value, string running
// past the body, oversized payload, trailing garbage — yields a typed
// ProtocolError through ProtoResult. Encoding is infallible. Both are pure
// functions over byte vectors, independent of sockets, which is what makes
// the format unit-testable and fuzzable without a live server (and the
// wire fuzz in test_service does exactly that, plus live-server runs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "api/result.h"

namespace subword::service {

// -- Frame layer --------------------------------------------------------------

inline constexpr uint32_t kMagic = 0x53575331;  // "SWS1"
inline constexpr uint16_t kVersion = 1;
// Hard ceiling on one frame's body, independent of server configuration:
// a length prefix beyond this is rejected before any allocation, so a
// hostile 4-byte header cannot make the reader reserve gigabytes.
inline constexpr uint32_t kMaxFrameBytes = 1u << 24;  // 16 MiB

enum class FrameType : uint8_t {
  kRequest = 1,
  kResponse = 2,
};

// -- Typed decode errors ------------------------------------------------------

enum class ProtoCode : uint8_t {
  kTruncated = 1,       // body ended inside a fixed-width field
  kBadMagic = 2,        // first word is not kMagic (desync / foreign client)
  kBadVersion = 3,      // version word this build does not speak
  kBadType = 4,         // frame type is neither request nor response
  kOversizedFrame = 5,  // length prefix beyond kMaxFrameBytes / server cap
  kBadString = 6,       // string length runs past the body
  kBadEnum = 7,         // mode/config/backend/status byte out of range
  kBadFlags = 8,        // reserved flag bits set (newer client?)
  kTrailingBytes = 9,   // body longer than the fields it declares
  kPayloadTooLarge = 10,  // input payload exceeds the server's limit
};

[[nodiscard]] constexpr const char* to_string(ProtoCode c) {
  switch (c) {
    case ProtoCode::kTruncated: return "Truncated";
    case ProtoCode::kBadMagic: return "BadMagic";
    case ProtoCode::kBadVersion: return "BadVersion";
    case ProtoCode::kBadType: return "BadType";
    case ProtoCode::kOversizedFrame: return "OversizedFrame";
    case ProtoCode::kBadString: return "BadString";
    case ProtoCode::kBadEnum: return "BadEnum";
    case ProtoCode::kBadFlags: return "BadFlags";
    case ProtoCode::kTrailingBytes: return "TrailingBytes";
    case ProtoCode::kPayloadTooLarge: return "PayloadTooLarge";
  }
  return "UnknownProtoCode";
}

struct ProtocolError {
  ProtoCode code = ProtoCode::kTruncated;
  std::string detail;  // human-readable cause (field, offset, limit)

  [[nodiscard]] std::string to_string() const {
    std::string s = service::to_string(code);
    if (!detail.empty()) {
      s += ": ";
      s += detail;
    }
    return s;
  }
};

// Value-or-ProtocolError, the same shape as api::Result but for the wire
// layer (which sits above api:: and must not widen ApiError's meaning).
template <typename T>
class [[nodiscard]] ProtoResult {
 public:
  ProtoResult(T value) : v_(std::move(value)) {}          // NOLINT
  ProtoResult(ProtocolError error) : v_(std::move(error)) {}  // NOLINT

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }
  [[nodiscard]] T& value() { return std::get<T>(v_); }
  [[nodiscard]] const T& value() const { return std::get<T>(v_); }
  [[nodiscard]] const ProtocolError& error() const {
    return std::get<ProtocolError>(v_);
  }
  [[nodiscard]] T& operator*() { return value(); }
  [[nodiscard]] const T& operator*() const { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

 private:
  std::variant<T, ProtocolError> v_;
};

// -- Request ------------------------------------------------------------------

// Execution mode on the wire. Mirrors the api::Request knobs: kPlan is
// auto_plan() (the cost-model planner resolves config/mode/backend).
enum class WireMode : uint8_t {
  kBaseline = 0,
  kManualSpu = 1,
  kAutoOrchestrate = 2,
  kPlan = 3,
};

enum class WireBackend : uint8_t {
  kSimulator = 0,
  kNativeSwar = 1,
  // Planner decides (kPlan mode only; kBadEnum with any other mode).
  kAuto = 2,
};

struct WireRequest {
  uint64_t request_id = 0;  // client-chosen, echoed verbatim in the response
  std::string tenant;       // empty: the server's default tenant
  std::string kernel;       // registry name (case-insensitive, like the api)
  uint32_t repeats = 1;
  WireMode mode = WireMode::kBaseline;
  uint8_t config = 0;  // crossbar config index: 0..3 = A..D
  WireBackend backend = WireBackend::kSimulator;
  bool has_area_budget = false;  // planner budget knobs (imply nothing on
  double area_budget_mm2 = 0;    // their own; the server validates kPlan)
  bool has_delay_budget = false;
  double max_delay_ns = 0;
  std::vector<uint8_t> input;  // empty: the kernel's synthetic workload
};

// -- Response -----------------------------------------------------------------

enum class WireStatus : uint8_t {
  kOk = 0,
  kApiError = 1,    // typed api::ErrorCode + message
  kProtoError = 2,  // the request frame itself was malformed
};

// Execution stats mirrored from api::Response (cycle stats are optional —
// the native backend has no cycle model, mirrored as has_cycles=false, not
// a poisonous zero).
struct WireStats {
  bool cache_hit = false;
  bool has_cycles = false;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t prepare_ns = 0;
  uint64_t execute_ns = 0;
};

// Where a plan's decision variable came from, on the wire: 0 model,
// 2 measured (mirrors runtime::ScoreSource; 1 is retired and never
// emitted; kBadEnum above 2).
inline constexpr uint8_t kWireScoreSourceMax = 2;

// The planner's decision for kPlan requests (mirrors Response::plan).
struct WirePlan {
  WireMode mode = WireMode::kBaseline;  // never kPlan in a decision
  uint8_t config = 0;
  WireBackend backend = WireBackend::kSimulator;  // never kAuto
  uint8_t score_source = 0;  // 0 model / 2 measured
  // The chosen shape's memoized simulator cycles, present only once it has
  // been simulated (kRespFlagObserved in the response flags byte). The
  // block keeps its statistical layout: a server always writes count 1,
  // the exact cycles as the mean, and 0.0 in the variance slot, which the
  // decoder skips.
  bool has_observed = false;
  uint64_t observed_count = 0;
  double observed_mean = 0;
};

struct WireResponse {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  // status == kApiError: the api::ErrorCode, carried with a stable wire
  // mapping (error_code_to_wire) so enum reordering can never change the
  // protocol. status == kProtoError: the ProtoCode.
  uint8_t error_code = 0;
  std::string message;
  WireStats stats;
  bool has_plan = false;
  WirePlan plan;
  std::vector<uint8_t> output;
};

// -- Stable api::ErrorCode <-> wire byte mapping ------------------------------

// Explicit switch, not static_cast: the wire value is a contract, the enum
// order is not. Returns 255 only for codes this build does not know.
[[nodiscard]] uint8_t error_code_to_wire(api::ErrorCode code);
// Inverse; false when the byte maps to no known code (`out` untouched).
[[nodiscard]] bool error_code_from_wire(uint8_t wire, api::ErrorCode* out);

// -- Encode / decode ----------------------------------------------------------

// Append one full frame (length prefix + body) to `out`.
void encode_request(const WireRequest& req, std::vector<uint8_t>* out);
void encode_response(const WireResponse& resp, std::vector<uint8_t>* out);

// Decode one frame *body* (the bytes after the length prefix). The frame
// layer (read_frame in socket.h) has already bounded the body size;
// `max_payload_bytes` additionally caps the request's input payload
// (0: no extra cap) so a server can enforce a per-request data limit with
// a typed kPayloadTooLarge instead of an allocation.
[[nodiscard]] ProtoResult<WireRequest> decode_request(
    std::span<const uint8_t> body, size_t max_payload_bytes = 0);
[[nodiscard]] ProtoResult<WireResponse> decode_response(
    std::span<const uint8_t> body);

// Validate a frame header found at the start of `body` and report its
// type. Shared by both decoders; exposed so the server can classify a
// frame before dispatching (and tests can probe header errors directly).
[[nodiscard]] ProtoResult<FrameType> peek_frame_type(
    std::span<const uint8_t> body);

}  // namespace subword::service
