// Length-prefixed framing for the serve wire protocol.
//
// One frame is:
//   4 bytes  magic "IPSQ"
//   u32 LE   body length in bytes
//   bytes    body (a JSON document, parsed with obs::json::Parse)
//
// Requests and responses use the same frame; the protocol is strictly
// request/response per frame, no pipelining semantics beyond TCP ordering.
// Decoding never throws: malformed input (wrong magic, oversized length,
// truncated body) comes back as a typed FrameError with the byte offset of
// the problem, so a garbage client can never crash the daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "io/result.h"

namespace ipscope::serve {

// "IPSQ" — IPscope Query. Distinct from the store magic (IPSCOPE2) so a
// store file piped at the daemon fails loudly as kBadMagic.
inline constexpr char kFrameMagic[4] = {'I', 'P', 'S', 'Q'};
inline constexpr std::size_t kFrameHeaderBytes = 8;

// Default ceiling on a frame body. Queries are small JSON documents; a
// length field beyond this is a corrupt or hostile frame, not a real
// request, and is rejected before any allocation.
inline constexpr std::size_t kDefaultMaxBodyBytes = 1 << 20;

struct FrameError {
  enum class Kind {
    kTruncated,  // fewer bytes than the header or declared body length
    kBadMagic,   // first four bytes are not "IPSQ"
    kOversized,  // declared body length exceeds the configured ceiling
  };
  Kind kind = Kind::kTruncated;
  std::uint64_t offset = 0;  // byte offset of the problem within the input
  std::string message;

  std::string ToString() const;
};

const char* FrameErrorKindName(FrameError::Kind kind);

struct DecodedFrame {
  std::string_view body;   // view into the input buffer
  std::size_t consumed = 0;  // header + body bytes eaten from the input
};

// Encodes one frame around `body`.
std::string EncodeFrame(std::string_view body);

// Decodes one frame from the front of `bytes`. The returned body is a view
// into `bytes`; the caller owns the buffer.
Result<DecodedFrame, FrameError> DecodeFrame(
    std::string_view bytes, std::size_t max_body_bytes = kDefaultMaxBodyBytes);

}  // namespace ipscope::serve
