#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"

namespace sp::io {

/// Byte-level wire primitives shared by every sp::io (de)serializer.
///
/// Scalars are written little-endian byte by byte. Residue rows (u64 spans)
/// are the bulk of every key and ciphertext blob and move as one block copy
/// of the host's words, which equals that little-endian encoding only on a
/// little-endian host (asserted below). Doubles travel as their IEEE-754
/// bit pattern (bit-exact round trip, no text formatting loss). Readers are
/// bounds-checked: a truncated or overlong stream raises sp::Error instead
/// of reading garbage.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "sp::io copies residue rows as host words: little-endian hosts only");

/// First four bytes of every blob: "SPWB" (SmartPAF Wire Blob).
constexpr std::uint32_t kMagic = 0x42575053u;  // 'S','P','W','B' little-endian

/// Wire format version. Bump on ANY layout change; deserializers reject
/// other versions outright (no silent best-effort decoding). Compatibility
/// policy lives in docs/WIRE.md.
///
/// v2: BlobKind::TrainingState added (encrypted-training checkpoints) and
/// the length-prefixed raw-blob helper it nests ciphertexts with.
/// v3: Plan stages carried the unified rotation-sum split `n1` and both
/// StageLayouts. Plan blobs have since been retired without a bump: no
/// remaining blob changed layout.
constexpr std::uint16_t kVersion = 3;

/// Payload type tag carried in every header, so a blob handed to the wrong
/// deserializer fails loudly instead of misparsing.
enum class BlobKind : std::uint16_t {
  CkksParams = 1,
  RnsPoly = 2,
  Plaintext = 3,
  Ciphertext = 4,
  PublicKey = 5,
  SecretKey = 6,
  KSwitchKey = 7,
  GaloisKeys = 8,
  // 9 was Plan (retired; plans never leave the process that runs them): never reuse.
  RotationSteps = 10,  ///< serving handshake: steps the server's schedule needs
  TrainingState = 11,  ///< encrypted-training checkpoint (train::TrainingState)
};

/// Appends little-endian scalars and raw bytes to an owned buffer.
class WireWriter {
 public:
  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  /// Reserves room for a blob whose size the caller computed up front.
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed u64 span (the RnsPoly row payload), appended as one
  /// block copy of the words.
  void u64_span(const std::uint64_t* data, std::size_t count) {
    u64(count);
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), bytes, bytes + count * sizeof(std::uint64_t));
  }
  void i32_vec(const std::vector<int>& v) {
    u64(v.size());
    for (int x : v) i32(x);
  }
  /// Length-prefixed UTF-8 string.
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  /// Length-prefixed raw byte blob — nests one complete serialized blob
  /// (header and all) inside another, e.g. the ciphertexts inside a
  /// TrainingState checkpoint.
  void blob(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reads over a borrowed byte span.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  /// Every byte must be consumed: trailing garbage after a payload is a
  /// malformed blob, not padding.
  void expect_done() const {
    sp::check_fmt(done(), "wire: ", remaining(), " trailing bytes after payload");
  }

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    sp::check(v <= 1, "wire: malformed bool");
    return v == 1;
  }

  /// Reads a length-prefixed span of exactly `expect` u64 words into `out`
  /// with one block copy, after checking the prefix and the remaining bytes.
  void u64_span(std::uint64_t* out, std::size_t expect) {
    const std::uint64_t count = u64();
    sp::check_fmt(count == expect, "wire: u64 span of ", count, " words, expected ",
                  expect);
    const std::size_t bytes = expect * sizeof(std::uint64_t);
    need(bytes);
    std::memcpy(out, data_ + pos_, bytes);
    pos_ += bytes;
  }
  std::vector<int> i32_vec() {
    const std::uint64_t count = checked_count(4);
    std::vector<int> v(count);
    for (auto& x : v) x = i32();
    return v;
  }
  std::string str() {
    const std::uint64_t count = checked_count(1);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), count);
    pos_ += count;
    return s;
  }
  /// Reads a length-prefixed raw byte blob written by WireWriter::blob.
  std::vector<std::uint8_t> blob() {
    const std::uint64_t count = checked_count(1);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + count);
    pos_ += count;
    return b;
  }

 private:
  void need(std::uint64_t n) const {
    sp::check_fmt(n <= size_ - pos_, "wire: truncated stream (need ", n, " bytes, have ",
                  size_ - pos_, ")");
  }
  /// Reads a length prefix and validates count * elem_size fits the
  /// remaining bytes BEFORE any allocation, so a corrupt length cannot
  /// trigger a multi-GB resize.
  std::uint64_t checked_count(std::uint64_t elem_size) {
    const std::uint64_t count = u64();
    sp::check_fmt(count <= remaining() / elem_size, "wire: length prefix ", count,
                  " exceeds the remaining ", remaining(), " bytes");
    return count;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------------ framing --

/// Writes one length-prefixed frame (u32 little-endian length + payload) —
/// the unit of the serving protocol's blocking stdin/stdout/socket loop.
inline void write_frame(std::ostream& os, const std::vector<std::uint8_t>& payload) {
  std::uint8_t len[4];
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
  os.write(reinterpret_cast<const char*>(len), 4);
  os.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  os.flush();
}

/// Largest frame read_frame accepts unless the caller passes its own cap.
/// The length prefix arrives from the peer BEFORE any payload validation, so
/// an uncapped read would allocate whatever a hostile or corrupt prefix
/// claims (0xFFFFFFFF = a ~4 GiB resize per frame). 1 GiB clears every blob
/// the serving protocol ships (a full Galois key set is the largest) while
/// bounding what one frame can pin.
constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 30;

/// Reads one frame; returns false on clean EOF before the length prefix
/// (peer hung up between messages) and throws on a truncated frame or a
/// length prefix above `max_bytes` — rejected before any allocation.
inline bool read_frame(std::istream& is, std::vector<std::uint8_t>& payload,
                       std::uint32_t max_bytes = kDefaultMaxFrameBytes) {
  std::uint8_t len[4];
  is.read(reinterpret_cast<char*>(len), 4);
  if (is.gcount() == 0 && is.eof()) return false;
  sp::check(is.gcount() == 4, "wire: truncated frame length");
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(len[i]) << (8 * i);
  sp::check_fmt(n <= max_bytes, "wire: frame of ", n, " bytes exceeds the ", max_bytes,
                "-byte cap (corrupt length prefix or hostile peer; raise the "
                "caller's max_bytes if the frame is legitimate)");
  payload.resize(n);
  is.read(reinterpret_cast<char*>(payload.data()), static_cast<std::streamsize>(n));
  sp::check(static_cast<std::uint32_t>(is.gcount()) == n, "wire: truncated frame payload");
  return true;
}

}  // namespace sp::io
