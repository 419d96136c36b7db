#include "io/serialize.h"

#include <algorithm>

#include "common/hash.h"

namespace sp::io {
namespace {

/// Blob kind names for rejection diagnostics.
const char* kind_name(BlobKind k) {
  switch (k) {
    case BlobKind::CkksParams: return "CkksParams";
    case BlobKind::RnsPoly: return "RnsPoly";
    case BlobKind::Plaintext: return "Plaintext";
    case BlobKind::Ciphertext: return "Ciphertext";
    case BlobKind::PublicKey: return "PublicKey";
    case BlobKind::SecretKey: return "SecretKey";
    case BlobKind::KSwitchKey: return "KSwitchKey";
    case BlobKind::GaloisKeys: return "GaloisKeys";
    case BlobKind::RotationSteps: return "RotationSteps";
    case BlobKind::TrainingState: return "TrainingState";
  }
  return "unknown";
}

// ------------------------------------------------- nested payload helpers --
// The public serializers wrap exactly one of these payloads in a header;
// composite payloads (ciphertext parts, key digits) nest them headerless.
// Blobs that carry polynomials are sized before writing: each *_size below
// is the byte count its write_* produces.

constexpr std::size_t kHeaderBytes = 16;  // magic, version, kind, fingerprint

/// n, q_count and two flags, then every row as a length-prefixed span.
std::size_t poly_size(const fhe::RnsPoly& poly) {
  return 8 + 4 + 1 + 1 + static_cast<std::size_t>(poly.row_count()) * (8 + 8 * poly.n());
}

std::size_t ciphertext_size(const fhe::Ciphertext& ct) {
  std::size_t size = 4 + 8;  // part count, scale
  for (const fhe::RnsPoly& p : ct.parts) size += poly_size(p);
  return size;
}

std::size_t kswitch_size(const fhe::KSwitchKey& key) {
  std::size_t size = 8;  // digit count
  for (const auto& digit : key.digits) size += poly_size(digit[0]) + poly_size(digit[1]);
  return size;
}

/// Rejects row `i` of a decoded polynomial if any residue is not below the
/// row's prime. The passing path is one OR-reduction over the row and builds
/// no message; only a failing row is scanned again to name its first bad
/// residue.
void check_residues(const fhe::RnsPoly& poly, int i) {
  const std::uint64_t q = poly.row_mod(i).value();
  const std::uint64_t* row = poly.row(i);
  const std::uint64_t* end = row + poly.n();
  bool bad = false;
  for (const std::uint64_t* v = row; v != end; ++v) bad |= *v >= q;
  if (!bad) return;
  const std::uint64_t* first = std::find_if(row, end, [q](std::uint64_t v) { return v >= q; });
  sp::check_fmt(false, "wire: residue out of range at row ", i,
                i == poly.q_count() ? " (special)" : "", ", index ", first - row, ": ",
                *first, " is not below the row's prime ", q);
}

void write_poly(WireWriter& w, const fhe::RnsPoly& poly) {
  w.u64(poly.n());
  w.u32(static_cast<std::uint32_t>(poly.q_count()));
  w.boolean(poly.has_special());
  w.boolean(poly.is_ntt());
  for (int i = 0; i < poly.row_count(); ++i) w.u64_span(poly.row(i), poly.n());
}

fhe::RnsPoly read_poly(WireReader& r, const fhe::CkksContext& ctx) {
  const std::uint64_t n = r.u64();
  sp::check_fmt(n == ctx.n(), "wire: polynomial ring size ", n,
                " does not match the context's ", ctx.n());
  const auto q_count = static_cast<int>(r.u32());
  sp::check_fmt(q_count >= 1 && q_count <= ctx.q_count(), "wire: polynomial q_count ",
                q_count, " outside the context's chain of ", ctx.q_count());
  const bool with_special = r.boolean();
  const bool ntt = r.boolean();
  // Zero-filled although every row is written next: decoding hundreds of MB
  // of key material into unwritten pages measured slower than zeroing first.
  fhe::RnsPoly poly(&ctx, q_count, with_special, ntt);
  for (int i = 0; i < poly.row_count(); ++i) {
    r.u64_span(poly.row(i), poly.n());
    check_residues(poly, i);
  }
  return poly;
}

void write_plaintext(WireWriter& w, const fhe::Plaintext& pt) {
  write_poly(w, pt.poly);
  w.f64(pt.scale);
}

fhe::Plaintext read_plaintext(WireReader& r, const fhe::CkksContext& ctx) {
  fhe::Plaintext pt;
  pt.poly = read_poly(r, ctx);
  pt.scale = r.f64();
  sp::check(pt.scale > 0, "wire: plaintext scale must be positive");
  return pt;
}

void write_ciphertext(WireWriter& w, const fhe::Ciphertext& ct) {
  w.u32(static_cast<std::uint32_t>(ct.parts.size()));
  for (const fhe::RnsPoly& p : ct.parts) write_poly(w, p);
  w.f64(ct.scale);
}

fhe::Ciphertext read_ciphertext(WireReader& r, const fhe::CkksContext& ctx) {
  const std::uint32_t parts = r.u32();
  sp::check_fmt(parts >= 2 && parts <= 3, "wire: ciphertext with ", parts,
                " parts (expected 2 or 3)");
  fhe::Ciphertext ct;
  ct.parts.reserve(parts);
  for (std::uint32_t i = 0; i < parts; ++i) ct.parts.push_back(read_poly(r, ctx));
  ct.scale = r.f64();
  sp::check(ct.scale > 0, "wire: ciphertext scale must be positive");
  for (const fhe::RnsPoly& p : ct.parts)
    sp::check(p.q_count() == ct.parts.front().q_count() && !p.has_special(),
              "wire: ciphertext parts must share the chain basis");
  return ct;
}

void write_kswitch(WireWriter& w, const fhe::KSwitchKey& key) {
  w.u64(key.digits.size());
  for (const auto& digit : key.digits) {
    write_poly(w, digit[0]);
    write_poly(w, digit[1]);
  }
}

fhe::KSwitchKey read_kswitch(WireReader& r, const fhe::CkksContext& ctx) {
  const std::uint64_t digits = r.u64();
  sp::check_fmt(digits == static_cast<std::uint64_t>(ctx.q_count()),
                "wire: key-switch key with ", digits, " digits, chain has ",
                ctx.q_count());
  fhe::KSwitchKey key;
  key.digits.resize(digits);
  for (auto& digit : key.digits) {
    digit[0] = read_poly(r, ctx);
    digit[1] = read_poly(r, ctx);
    sp::check(digit[0].has_special() && digit[1].has_special() && digit[0].is_ntt() &&
                  digit[1].is_ntt(),
              "wire: key-switch digits must be NTT form over the extended basis");
  }
  return key;
}

std::vector<std::uint8_t> finish(WireWriter& w) { return w.take(); }

/// Returns a blob reserved at `size` bytes, after checking the writers
/// produced exactly that many: a layout edit that forgets its *_size term
/// fails here on every round trip.
std::vector<std::uint8_t> finish(WireWriter& w, std::size_t size) {
  sp::check_fmt(w.size() == size, "serialize: wrote ", w.size(),
                " bytes into a blob sized at ", size);
  return w.take();
}

}  // namespace

// ------------------------------------------------------------------ header --

std::uint64_t params_fingerprint(const fhe::CkksParams& params) {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, params.poly_degree);
  h = fnv_mix(h, params.q_bits.size());
  for (int bits : params.q_bits) h = fnv_mix(h, static_cast<std::uint64_t>(bits));
  h = fnv_mix(h, static_cast<std::uint64_t>(params.special_bits));
  h = fnv_double(h, params.scale);
  return h;
}

void write_header(WireWriter& w, BlobKind kind, std::uint64_t fingerprint) {
  w.u32(kMagic);
  w.u16(kVersion);
  w.u16(static_cast<std::uint16_t>(kind));
  w.u64(fingerprint);
}

BlobHeader read_header(WireReader& r) {
  const std::uint32_t magic = r.u32();
  sp::check_fmt(magic == kMagic, "wire: bad magic 0x", std::hex, magic,
                " (not an SPWB blob)");
  BlobHeader h;
  h.version = r.u16();
  sp::check_fmt(h.version == kVersion, "wire: format version ", h.version,
                " not supported (this build speaks version ", kVersion, ")");
  h.kind = static_cast<BlobKind>(r.u16());
  h.fingerprint = r.u64();
  return h;
}

void expect_header(WireReader& r, BlobKind kind, std::uint64_t fingerprint) {
  const BlobHeader h = read_header(r);
  sp::check_fmt(h.kind == kind, "wire: blob holds a ", kind_name(h.kind), ", expected a ",
                kind_name(kind));
  sp::check_fmt(h.fingerprint == fingerprint, "wire: params fingerprint ", std::hex,
                h.fingerprint, " does not match this context's ", fingerprint,
                " — blob was produced under a different ring/chain");
}

// ------------------------------------------------------------------ params --

std::vector<std::uint8_t> serialize(const fhe::CkksParams& params) {
  WireWriter w;
  write_header(w, BlobKind::CkksParams, params_fingerprint(params));
  w.u64(params.poly_degree);
  w.i32_vec(params.q_bits);
  w.i32(params.special_bits);
  w.f64(params.scale);
  w.f64(params.noise_stddev);
  return finish(w);
}

fhe::CkksParams deserialize_params(const std::vector<std::uint8_t>& bytes) {
  WireReader r(bytes);
  const BlobHeader h = read_header(r);
  sp::check_fmt(h.kind == BlobKind::CkksParams, "wire: blob holds a ", kind_name(h.kind),
                ", expected a CkksParams");
  fhe::CkksParams params;
  params.poly_degree = r.u64();
  params.q_bits = r.i32_vec();
  params.special_bits = r.i32();
  params.scale = r.f64();
  params.noise_stddev = r.f64();
  r.expect_done();
  // The fingerprint in a params blob is self-describing: it must match the
  // fields that follow, or the blob was stitched/corrupted.
  sp::check(params_fingerprint(params) == h.fingerprint,
            "wire: params fingerprint does not match the payload");
  return params;
}

// ----------------------------------------------------------- ring elements --

std::vector<std::uint8_t> serialize(const fhe::RnsPoly& poly) {
  sp::check(poly.context() != nullptr, "serialize: polynomial has no context");
  const std::size_t size = kHeaderBytes + poly_size(poly);
  WireWriter w;
  w.reserve(size);
  write_header(w, BlobKind::RnsPoly, params_fingerprint(poly.context()->params()));
  write_poly(w, poly);
  return finish(w, size);
}

fhe::RnsPoly deserialize_poly(const std::vector<std::uint8_t>& bytes,
                              const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::RnsPoly, params_fingerprint(ctx.params()));
  fhe::RnsPoly poly = read_poly(r, ctx);
  r.expect_done();
  return poly;
}

std::vector<std::uint8_t> serialize(const fhe::Plaintext& pt) {
  sp::check(pt.poly.context() != nullptr, "serialize: plaintext has no context");
  const std::size_t size = kHeaderBytes + poly_size(pt.poly) + 8;  // + scale
  WireWriter w;
  w.reserve(size);
  write_header(w, BlobKind::Plaintext, params_fingerprint(pt.poly.context()->params()));
  write_plaintext(w, pt);
  return finish(w, size);
}

fhe::Plaintext deserialize_plaintext(const std::vector<std::uint8_t>& bytes,
                                     const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::Plaintext, params_fingerprint(ctx.params()));
  fhe::Plaintext pt = read_plaintext(r, ctx);
  r.expect_done();
  return pt;
}

std::vector<std::uint8_t> serialize(const fhe::Ciphertext& ct) {
  sp::check(!ct.parts.empty() && ct.parts.front().context() != nullptr,
            "serialize: empty ciphertext");
  const std::size_t size = kHeaderBytes + ciphertext_size(ct);
  WireWriter w;
  w.reserve(size);
  write_header(w, BlobKind::Ciphertext,
               params_fingerprint(ct.parts.front().context()->params()));
  write_ciphertext(w, ct);
  return finish(w, size);
}

fhe::Ciphertext deserialize_ciphertext(const std::vector<std::uint8_t>& bytes,
                                       const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::Ciphertext, params_fingerprint(ctx.params()));
  fhe::Ciphertext ct = read_ciphertext(r, ctx);
  r.expect_done();
  return ct;
}

// ------------------------------------------------------------ key material --

std::vector<std::uint8_t> serialize(const fhe::PublicKey& pk) {
  sp::check(pk.p0.context() != nullptr, "serialize: empty public key");
  const std::size_t size = kHeaderBytes + poly_size(pk.p0) + poly_size(pk.p1);
  WireWriter w;
  w.reserve(size);
  write_header(w, BlobKind::PublicKey, params_fingerprint(pk.p0.context()->params()));
  write_poly(w, pk.p0);
  write_poly(w, pk.p1);
  return finish(w, size);
}

fhe::PublicKey deserialize_public_key(const std::vector<std::uint8_t>& bytes,
                                      const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::PublicKey, params_fingerprint(ctx.params()));
  fhe::PublicKey pk;
  pk.p0 = read_poly(r, ctx);
  pk.p1 = read_poly(r, ctx);
  r.expect_done();
  sp::check(pk.p0.is_ntt() && pk.p1.is_ntt() && pk.p0.q_count() == ctx.q_count(),
            "wire: public key must be NTT form over the full chain");
  return pk;
}

std::vector<std::uint8_t> serialize(const fhe::SecretKey& sk) {
  sp::check(sk.s_ntt.context() != nullptr, "serialize: empty secret key");
  const std::size_t size = kHeaderBytes + poly_size(sk.s_ntt) + poly_size(sk.s_coeff);
  WireWriter w;
  w.reserve(size);
  write_header(w, BlobKind::SecretKey, params_fingerprint(sk.s_ntt.context()->params()));
  write_poly(w, sk.s_ntt);
  write_poly(w, sk.s_coeff);
  return finish(w, size);
}

fhe::SecretKey deserialize_secret_key(const std::vector<std::uint8_t>& bytes,
                                      const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::SecretKey, params_fingerprint(ctx.params()));
  fhe::SecretKey sk;
  sk.s_ntt = read_poly(r, ctx);
  sk.s_coeff = read_poly(r, ctx);
  r.expect_done();
  sp::check(sk.s_ntt.is_ntt() && !sk.s_coeff.is_ntt() && sk.s_ntt.has_special() &&
                sk.s_coeff.has_special(),
            "wire: secret key must carry NTT + coefficient forms over the full basis");
  return sk;
}

std::vector<std::uint8_t> serialize(const fhe::KSwitchKey& key) {
  sp::check(!key.digits.empty() && key.digits.front()[0].context() != nullptr,
            "serialize: empty key-switch key");
  const std::size_t size = kHeaderBytes + kswitch_size(key);
  WireWriter w;
  w.reserve(size);
  write_header(w, BlobKind::KSwitchKey,
               params_fingerprint(key.digits.front()[0].context()->params()));
  write_kswitch(w, key);
  return finish(w, size);
}

fhe::KSwitchKey deserialize_kswitch_key(const std::vector<std::uint8_t>& bytes,
                                        const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::KSwitchKey, params_fingerprint(ctx.params()));
  fhe::KSwitchKey key = read_kswitch(r, ctx);
  r.expect_done();
  return key;
}

std::vector<std::uint8_t> serialize(const fhe::GaloisKeys& keys) {
  sp::check(!keys.keys.empty(), "serialize: empty Galois key set");
  std::size_t size = kHeaderBytes + 8;  // + key count
  for (const auto& entry : keys.keys) size += 8 + kswitch_size(entry.second);  // + element
  WireWriter w;
  w.reserve(size);
  write_header(
      w, BlobKind::GaloisKeys,
      params_fingerprint(keys.keys.begin()->second.digits.front()[0].context()->params()));
  w.u64(keys.keys.size());
  for (const auto& [elt, key] : keys.keys) {
    w.u64(elt);
    write_kswitch(w, key);
  }
  return finish(w, size);
}

fhe::GaloisKeys deserialize_galois_keys(const std::vector<std::uint8_t>& bytes,
                                        const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::GaloisKeys, params_fingerprint(ctx.params()));
  const std::uint64_t count = r.u64();
  fhe::GaloisKeys keys;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t elt = r.u64();
    sp::check(elt % 2 == 1 && elt < 2 * ctx.n(),
              "wire: Galois element must be odd and < 2N");
    keys.keys.emplace(elt, read_kswitch(r, ctx));
  }
  r.expect_done();
  return keys;
}

// ----------------------------------------------------------- serving extras --

std::vector<std::uint8_t> serialize_rotation_steps(const std::vector<int>& steps,
                                                   const fhe::CkksContext& ctx) {
  WireWriter w;
  write_header(w, BlobKind::RotationSteps, params_fingerprint(ctx.params()));
  w.i32_vec(steps);
  return finish(w);
}

std::vector<int> deserialize_rotation_steps(const std::vector<std::uint8_t>& bytes,
                                            const fhe::CkksContext& ctx) {
  WireReader r(bytes);
  expect_header(r, BlobKind::RotationSteps, params_fingerprint(ctx.params()));
  std::vector<int> steps = r.i32_vec();
  r.expect_done();
  return steps;
}

}  // namespace sp::io
