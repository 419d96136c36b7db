#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "io/wire.h"

namespace sp::serve {

/// Frame-level message envelope of the serving protocol. Every frame (see
/// io::write_frame / io::read_frame) carries exactly one Msg:
///
///   kind (u8) | id (u64) | status (u8) | error (len-prefixed str) |
///   payload (len-prefixed bytes)
///
/// and nothing after it, where `payload` is a standard sp::io blob (its own
/// header names its BlobKind and params fingerprint). The handshake is:
///
///   client -> Hello x3         params, public key, relin key blobs
///   server -> SessionReady     rotation-steps blob (id = assigned client
///                              id): the Galois keys the tenant must upload.
///                              The plan itself stays server-side — the
///                              client only ever learns the rotation steps,
///                              not the model's structure
///   client -> GaloisUpload     Galois keys covering those steps
///   client -> Request*         id = client's ticket, payload = ciphertext
///   server -> Response*        id echoes the ticket; status Ok carries the
///                              result ciphertext, Rejected/Failed carry the
///                              reason in `error` (admission rejects answer
///                              synchronously, failures after the fact)
///
/// Responses may arrive out of request order (the executor batches across
/// the deadline window); tickets are the correlation key.
enum class MsgKind : std::uint8_t {
  Hello = 1,
  SessionReady = 2,
  GaloisUpload = 3,
  Request = 4,
  Response = 5,
};

enum class ResponseStatus : std::uint8_t {
  Ok = 0,
  Rejected = 1,  ///< refused at admission (backpressure, bad ciphertext)
  Failed = 2,    ///< accepted but the evaluation threw
};

struct Msg {
  MsgKind kind = MsgKind::Hello;
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::Ok;
  std::string error;                  ///< Rejected/Failed reason; else empty
  std::vector<std::uint8_t> payload;  ///< sp::io blob; may be empty
};

/// Serializes `msg` into one frame payload.
std::vector<std::uint8_t> pack_msg(const Msg& msg);

/// Parses a frame payload; throws sp::Error on malformed envelopes, a cut
/// anywhere (payload included) and trailing bytes.
Msg unpack_msg(const std::vector<std::uint8_t>& bytes);

/// write_frame(pack_msg(msg)) — one call per protocol message.
void write_msg(std::ostream& os, const Msg& msg);

/// Reads one frame and unpacks it; false on clean EOF (peer hung up).
/// `max_bytes` caps the frame length BEFORE allocation (hostile-prefix
/// defence, see io::read_frame).
bool read_msg(std::istream& is, Msg& msg,
              std::uint32_t max_bytes = io::kDefaultMaxFrameBytes);

}  // namespace sp::serve
