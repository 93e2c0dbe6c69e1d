#include "service/protocol.h"

#include <cstdio>
#include <cstring>

namespace subword::service {

namespace {

// -- Little-endian append helpers ---------------------------------------------

void put_u8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void put_u16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void put_u32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::vector<uint8_t>* out, const std::string& s) {
  // Length-prefixed u16: kernel/tenant names are short identifiers; the
  // encoder truncating would corrupt meaning, so oversize is clamped to
  // the prefix range and decode-side length checks do the policing.
  const uint16_t len =
      static_cast<uint16_t>(s.size() > 0xFFFF ? 0xFFFF : s.size());
  put_u16(out, len);
  out->insert(out->end(), s.begin(), s.begin() + len);
}

void put_bytes(std::vector<uint8_t>* out, const std::vector<uint8_t>& b) {
  put_u32(out, static_cast<uint32_t>(b.size()));
  out->insert(out->end(), b.begin(), b.end());
}

// -- Bounds-checked cursor ----------------------------------------------------

// Every read reports underrun as a typed error through `err`; after the
// first error all further reads return zero values and the decoder's final
// error check surfaces the first failure. That keeps the field-by-field
// decode linear instead of a pyramid of early returns.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> body) : body_(body) {}

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const ProtocolError& error() const { return err_; }
  [[nodiscard]] size_t remaining() const { return body_.size() - pos_; }

  void fail(ProtoCode code, std::string detail) {
    if (failed_) return;  // keep the first error
    failed_ = true;
    err_ = ProtocolError{code, std::move(detail)};
  }

  uint8_t u8(const char* what) {
    if (!need(1, what)) return 0;
    return body_[pos_++];
  }

  uint16_t u16(const char* what) {
    if (!need(2, what)) return 0;
    uint16_t v = static_cast<uint16_t>(body_[pos_]) |
                 static_cast<uint16_t>(body_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  uint32_t u32(const char* what) {
    if (!need(4, what)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(body_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t u64(const char* what) {
    if (!need(8, what)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(body_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64(const char* what) {
    const uint64_t bits = u64(what);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string string(const char* what) {
    const uint16_t len = u16(what);
    if (failed_) return {};
    if (remaining() < len) {
      fail(ProtoCode::kBadString,
           std::string(what) + " length " + std::to_string(len) +
               " runs past the body (" + std::to_string(remaining()) +
               " bytes left)");
      return {};
    }
    std::string s(reinterpret_cast<const char*>(body_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::vector<uint8_t> bytes(const char* what) {
    const uint32_t len = u32(what);
    if (failed_) return {};
    if (remaining() < len) {
      fail(ProtoCode::kTruncated,
           std::string(what) + " payload length " + std::to_string(len) +
               " runs past the body (" + std::to_string(remaining()) +
               " bytes left)");
      return {};
    }
    std::vector<uint8_t> b(body_.begin() + static_cast<ptrdiff_t>(pos_),
                           body_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return b;
  }

  // The decoder consumed every declared field; anything left is garbage
  // (or a newer protocol this build does not speak).
  void expect_end() {
    if (failed_) return;
    if (remaining() != 0) {
      fail(ProtoCode::kTrailingBytes,
           std::to_string(remaining()) + " trailing bytes after the last "
           "declared field");
    }
  }

 private:
  bool need(size_t n, const char* what) {
    if (failed_) return false;
    if (remaining() < n) {
      fail(ProtoCode::kTruncated, std::string("body ended inside ") + what);
      return false;
    }
    return true;
  }

  std::span<const uint8_t> body_;
  size_t pos_ = 0;
  bool failed_ = false;
  ProtocolError err_;
};

// Shared header check; on success the reader is positioned after the
// header and the frame type is returned.
FrameType read_header(Reader* r) {
  const uint32_t magic = r->u32("magic");
  if (!r->failed() && magic != kMagic) {
    r->fail(ProtoCode::kBadMagic, "got 0x" + [magic] {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%08X", magic);
      return std::string(buf);
    }());
    return FrameType::kRequest;
  }
  const uint16_t version = r->u16("version");
  if (!r->failed() && version != kVersion) {
    r->fail(ProtoCode::kBadVersion,
            "got " + std::to_string(version) + ", this build speaks " +
                std::to_string(kVersion));
    return FrameType::kRequest;
  }
  const uint8_t type = r->u8("frame type");
  if (!r->failed() && type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse)) {
    r->fail(ProtoCode::kBadType, "got " + std::to_string(type));
    return FrameType::kRequest;
  }
  return static_cast<FrameType>(type);
}

void put_header(std::vector<uint8_t>* out, FrameType type) {
  put_u32(out, kMagic);
  put_u16(out, kVersion);
  put_u8(out, static_cast<uint8_t>(type));
}

// Request flag bits; anything else set is kBadFlags.
constexpr uint8_t kFlagAreaBudget = 1u << 0;
constexpr uint8_t kFlagDelayBudget = 1u << 1;
constexpr uint8_t kKnownFlags = kFlagAreaBudget | kFlagDelayBudget;

// Response flag bits (the byte was a plain has_plan bool in the first
// protocol revision — bit 0 keeps that meaning, so a plain plan response is
// byte-identical). The optional observed block rides behind bit 1; every
// other bit is unknown and decodes as kBadFlags.
constexpr uint8_t kRespFlagPlan = 1u << 0;
constexpr uint8_t kRespFlagObserved = 1u << 1;  // plan observed stats follow
constexpr uint8_t kKnownRespFlags = kRespFlagPlan | kRespFlagObserved;

}  // namespace

uint8_t error_code_to_wire(api::ErrorCode code) {
  switch (code) {
    case api::ErrorCode::kUnknownKernel: return 1;
    case api::ErrorCode::kInvalidArgument: return 2;
    case api::ErrorCode::kNoManualSpuVariant: return 3;
    case api::ErrorCode::kBuffersUnsupported: return 4;
    case api::ErrorCode::kBufferSizeMismatch: return 5;
    case api::ErrorCode::kTilingUnsupported: return 6;
    case api::ErrorCode::kPipelineMismatch: return 7;
    case api::ErrorCode::kBackendUnsupported: return 8;
    case api::ErrorCode::kSessionShutdown: return 9;
    case api::ErrorCode::kCancelled: return 10;
    case api::ErrorCode::kExecutionFailed: return 11;
    case api::ErrorCode::kVerificationFailed: return 12;
    case api::ErrorCode::kOverloaded: return 13;
  }
  return 255;
}

bool error_code_from_wire(uint8_t wire, api::ErrorCode* out) {
  switch (wire) {
    case 1: *out = api::ErrorCode::kUnknownKernel; return true;
    case 2: *out = api::ErrorCode::kInvalidArgument; return true;
    case 3: *out = api::ErrorCode::kNoManualSpuVariant; return true;
    case 4: *out = api::ErrorCode::kBuffersUnsupported; return true;
    case 5: *out = api::ErrorCode::kBufferSizeMismatch; return true;
    case 6: *out = api::ErrorCode::kTilingUnsupported; return true;
    case 7: *out = api::ErrorCode::kPipelineMismatch; return true;
    case 8: *out = api::ErrorCode::kBackendUnsupported; return true;
    case 9: *out = api::ErrorCode::kSessionShutdown; return true;
    case 10: *out = api::ErrorCode::kCancelled; return true;
    case 11: *out = api::ErrorCode::kExecutionFailed; return true;
    case 12: *out = api::ErrorCode::kVerificationFailed; return true;
    case 13: *out = api::ErrorCode::kOverloaded; return true;
    default: return false;
  }
}

void encode_request(const WireRequest& req, std::vector<uint8_t>* out) {
  std::vector<uint8_t> body;
  put_header(&body, FrameType::kRequest);
  put_u64(&body, req.request_id);
  put_string(&body, req.tenant);
  put_string(&body, req.kernel);
  put_u32(&body, req.repeats);
  put_u8(&body, static_cast<uint8_t>(req.mode));
  put_u8(&body, req.config);
  put_u8(&body, static_cast<uint8_t>(req.backend));
  uint8_t flags = 0;
  if (req.has_area_budget) flags |= kFlagAreaBudget;
  if (req.has_delay_budget) flags |= kFlagDelayBudget;
  put_u8(&body, flags);
  if (req.has_area_budget) put_f64(&body, req.area_budget_mm2);
  if (req.has_delay_budget) put_f64(&body, req.max_delay_ns);
  put_bytes(&body, req.input);

  put_u32(out, static_cast<uint32_t>(body.size()));
  out->insert(out->end(), body.begin(), body.end());
}

void encode_response(const WireResponse& resp, std::vector<uint8_t>* out) {
  std::vector<uint8_t> body;
  put_header(&body, FrameType::kResponse);
  put_u64(&body, resp.request_id);
  put_u8(&body, static_cast<uint8_t>(resp.status));
  if (resp.status == WireStatus::kOk) {
    put_u8(&body, resp.stats.cache_hit ? 1 : 0);
    put_u8(&body, resp.stats.has_cycles ? 1 : 0);
    put_u64(&body, resp.stats.cycles);
    put_u64(&body, resp.stats.instructions);
    put_u64(&body, resp.stats.prepare_ns);
    put_u64(&body, resp.stats.execute_ns);
    uint8_t flags = 0;
    const bool observed = resp.has_plan && resp.plan.has_observed;
    if (resp.has_plan) flags |= kRespFlagPlan;
    if (observed) flags |= kRespFlagObserved;
    put_u8(&body, flags);
    if (resp.has_plan) {
      put_u8(&body, static_cast<uint8_t>(resp.plan.mode));
      put_u8(&body, resp.plan.config);
      put_u8(&body, static_cast<uint8_t>(resp.plan.backend));
      put_u8(&body, resp.plan.score_source);
    }
    if (observed) {
      put_u64(&body, resp.plan.observed_count);
      put_f64(&body, resp.plan.observed_mean);
      put_f64(&body, 0.0);  // variance slot: exact cycles have no spread
    }
    put_bytes(&body, resp.output);
  } else {
    put_u8(&body, resp.error_code);
    put_string(&body, resp.message);
  }

  put_u32(out, static_cast<uint32_t>(body.size()));
  out->insert(out->end(), body.begin(), body.end());
}

ProtoResult<FrameType> peek_frame_type(std::span<const uint8_t> body) {
  Reader r(body);
  const FrameType type = read_header(&r);
  if (r.failed()) return r.error();
  return type;
}

ProtoResult<WireRequest> decode_request(std::span<const uint8_t> body,
                                        size_t max_payload_bytes) {
  Reader r(body);
  const FrameType type = read_header(&r);
  if (!r.failed() && type != FrameType::kRequest) {
    r.fail(ProtoCode::kBadType, "expected a request frame, got a response");
  }

  WireRequest req;
  req.request_id = r.u64("request id");
  req.tenant = r.string("tenant name");
  req.kernel = r.string("kernel name");
  req.repeats = r.u32("repeats");

  const uint8_t mode = r.u8("mode");
  if (!r.failed() && mode > static_cast<uint8_t>(WireMode::kPlan)) {
    r.fail(ProtoCode::kBadEnum, "mode byte " + std::to_string(mode));
  }
  req.mode = static_cast<WireMode>(mode);

  req.config = r.u8("crossbar config");
  if (!r.failed() && req.config > 3) {
    r.fail(ProtoCode::kBadEnum,
           "crossbar config byte " + std::to_string(req.config) +
               " (valid: 0..3 = A..D)");
  }

  const uint8_t backend = r.u8("backend");
  if (!r.failed() && backend > static_cast<uint8_t>(WireBackend::kAuto)) {
    r.fail(ProtoCode::kBadEnum, "backend byte " + std::to_string(backend));
  }
  req.backend = static_cast<WireBackend>(backend);
  if (!r.failed() && req.backend == WireBackend::kAuto &&
      req.mode != WireMode::kPlan) {
    r.fail(ProtoCode::kBadEnum,
           "backend=auto is only valid with the planner mode");
  }

  const uint8_t flags = r.u8("flags");
  if (!r.failed() && (flags & ~kKnownFlags) != 0) {
    r.fail(ProtoCode::kBadFlags,
           "unknown flag bits 0x" + std::to_string(flags & ~kKnownFlags));
  }
  req.has_area_budget = (flags & kFlagAreaBudget) != 0;
  req.has_delay_budget = (flags & kFlagDelayBudget) != 0;
  if (req.has_area_budget) req.area_budget_mm2 = r.f64("area budget");
  if (req.has_delay_budget) req.max_delay_ns = r.f64("delay budget");

  // Check the declared payload length against the server's limit *before*
  // materializing the bytes: the typed error must not cost the allocation
  // it exists to prevent.
  if (!r.failed() && max_payload_bytes != 0 && r.remaining() >= 4) {
    // Peek at the length field without consuming it.
    std::span<const uint8_t> rest = body.subspan(body.size() - r.remaining());
    uint32_t declared = 0;
    for (int i = 0; i < 4; ++i) {
      declared |= static_cast<uint32_t>(rest[static_cast<size_t>(i)])
                  << (8 * i);
    }
    if (declared > max_payload_bytes) {
      r.fail(ProtoCode::kPayloadTooLarge,
             "input payload " + std::to_string(declared) +
                 " bytes exceeds the server limit of " +
                 std::to_string(max_payload_bytes));
    }
  }
  req.input = r.bytes("input");
  r.expect_end();

  if (r.failed()) return r.error();
  return req;
}

ProtoResult<WireResponse> decode_response(std::span<const uint8_t> body) {
  Reader r(body);
  const FrameType type = read_header(&r);
  if (!r.failed() && type != FrameType::kResponse) {
    r.fail(ProtoCode::kBadType, "expected a response frame, got a request");
  }

  WireResponse resp;
  resp.request_id = r.u64("request id");
  const uint8_t status = r.u8("status");
  if (!r.failed() && status > static_cast<uint8_t>(WireStatus::kProtoError)) {
    r.fail(ProtoCode::kBadEnum, "status byte " + std::to_string(status));
  }
  resp.status = static_cast<WireStatus>(status);

  if (!r.failed() && resp.status == WireStatus::kOk) {
    resp.stats.cache_hit = r.u8("cache_hit") != 0;
    resp.stats.has_cycles = r.u8("has_cycles") != 0;
    resp.stats.cycles = r.u64("cycles");
    resp.stats.instructions = r.u64("instructions");
    resp.stats.prepare_ns = r.u64("prepare_ns");
    resp.stats.execute_ns = r.u64("execute_ns");
    const uint8_t flags = r.u8("response flags");
    if (!r.failed() && (flags & ~kKnownRespFlags) != 0) {
      r.fail(ProtoCode::kBadFlags,
             "unknown response flag bits 0x" +
                 std::to_string(flags & ~kKnownRespFlags));
    }
    resp.has_plan = (flags & kRespFlagPlan) != 0;
    if (!r.failed() && (flags & kRespFlagObserved) != 0 && !resp.has_plan) {
      r.fail(ProtoCode::kBadFlags,
             "observed-stats flag without a plan decision");
    }
    if (resp.has_plan) {
      const uint8_t pm = r.u8("plan mode");
      if (!r.failed() && pm >= static_cast<uint8_t>(WireMode::kPlan)) {
        r.fail(ProtoCode::kBadEnum,
               "plan decision mode byte " + std::to_string(pm));
      }
      resp.plan.mode = static_cast<WireMode>(pm);
      resp.plan.config = r.u8("plan config");
      if (!r.failed() && resp.plan.config > 3) {
        r.fail(ProtoCode::kBadEnum, "plan config byte out of range");
      }
      const uint8_t pb = r.u8("plan backend");
      if (!r.failed() && pb >= static_cast<uint8_t>(WireBackend::kAuto)) {
        r.fail(ProtoCode::kBadEnum,
               "plan decision backend byte " + std::to_string(pb));
      }
      resp.plan.backend = static_cast<WireBackend>(pb);
      resp.plan.score_source = r.u8("plan score source");
      if (!r.failed() && resp.plan.score_source > kWireScoreSourceMax) {
        r.fail(ProtoCode::kBadEnum,
               "plan score source byte " +
                   std::to_string(resp.plan.score_source));
      }
      resp.plan.has_observed = (flags & kRespFlagObserved) != 0;
      if (resp.plan.has_observed) {
        resp.plan.observed_count = r.u64("observed count");
        resp.plan.observed_mean = r.f64("observed mean");
        (void)r.f64("observed variance");
      }
    }
    resp.output = r.bytes("output");
  } else if (!r.failed()) {
    resp.error_code = r.u8("error code");
    resp.message = r.string("error message");
  }
  r.expect_end();

  if (r.failed()) return r.error();
  return resp;
}

}  // namespace subword::service
