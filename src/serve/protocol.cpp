#include "serve/protocol.h"

#include "common/check.h"

namespace sp::serve {

std::vector<std::uint8_t> pack_msg(const Msg& msg) {
  io::WireWriter w;
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.u64(msg.id);
  w.u8(static_cast<std::uint8_t>(msg.status));
  w.str(msg.error);
  w.blob(msg.payload);
  return w.take();
}

Msg unpack_msg(const std::vector<std::uint8_t>& bytes) {
  io::WireReader r(bytes);
  Msg msg;
  const std::uint8_t kind = r.u8();
  sp::check_fmt(kind >= 1 && kind <= 5, "protocol: unknown message kind ", int(kind));
  msg.kind = static_cast<MsgKind>(kind);
  msg.id = r.u64();
  const std::uint8_t status = r.u8();
  sp::check_fmt(status <= 2, "protocol: unknown response status ", int(status));
  msg.status = static_cast<ResponseStatus>(status);
  msg.error = r.str();
  msg.payload = r.blob();
  r.expect_done();
  return msg;
}

void write_msg(std::ostream& os, const Msg& msg) {
  io::write_frame(os, pack_msg(msg));
}

bool read_msg(std::istream& is, Msg& msg, std::uint32_t max_bytes) {
  std::vector<std::uint8_t> frame;
  if (!io::read_frame(is, frame, max_bytes)) return false;
  msg = unpack_msg(frame);
  return true;
}

}  // namespace sp::serve
