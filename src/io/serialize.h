#pragma once

#include <cstdint>
#include <vector>

#include "fhe/encoder.h"
#include "fhe/keys.h"
#include "io/wire.h"

namespace sp::io {

/// Versioned binary (de)serialization for everything that crosses the
/// serving process boundary: ring parameters, RNS polynomials, plaintexts,
/// ciphertexts, key material and rotation-step lists. Plans never cross it:
/// the process that runs a plan makes it with Planner::plan.
///
/// Every blob starts with the same header:
///
///   magic "SPWB" (u32) | version (u16) | kind (u16) | params fingerprint (u64)
///
/// The fingerprint digests the ring/chain identity (N, q_bits, special_bits,
/// scale), so a deserializer bound to one context rejects blobs produced
/// under a different ring or prime chain with a diagnostic instead of
/// decoding them into garbage. CkksContext derives its primes
/// deterministically from CkksParams, which is why shipping the params blob
/// is sufficient to reconstruct a bit-compatible context on the other side.
/// Layout and compatibility policy: docs/WIRE.md.

/// Digest of the ring/chain identity (poly_degree, q_bits, special_bits,
/// scale). Key-independent: two runtimes with different keys but one
/// parameter set share a fingerprint, which is exactly the compatibility
/// a ciphertext blob needs.
std::uint64_t params_fingerprint(const fhe::CkksParams& params);

/// Parsed blob header (validated magic/version; kind/fingerprint for the
/// caller to check). Exposed for inspection tools.
struct BlobHeader {
  std::uint16_t version = 0;
  BlobKind kind{};
  std::uint64_t fingerprint = 0;
};

/// Writes the standard header.
void write_header(WireWriter& w, BlobKind kind, std::uint64_t fingerprint);

/// Reads and validates magic + version; returns kind/fingerprint.
BlobHeader read_header(WireReader& r);

/// read_header + kind/fingerprint match, with diagnostics naming what
/// mismatched. All deserializers below start here.
void expect_header(WireReader& r, BlobKind kind, std::uint64_t fingerprint);

// ------------------------------------------------------------------- params --

std::vector<std::uint8_t> serialize(const fhe::CkksParams& params);
fhe::CkksParams deserialize_params(const std::vector<std::uint8_t>& bytes);

// -------------------------------------------------------- ring elements -----

std::vector<std::uint8_t> serialize(const fhe::RnsPoly& poly);
fhe::RnsPoly deserialize_poly(const std::vector<std::uint8_t>& bytes,
                              const fhe::CkksContext& ctx);

std::vector<std::uint8_t> serialize(const fhe::Plaintext& pt);
fhe::Plaintext deserialize_plaintext(const std::vector<std::uint8_t>& bytes,
                                     const fhe::CkksContext& ctx);

std::vector<std::uint8_t> serialize(const fhe::Ciphertext& ct);
fhe::Ciphertext deserialize_ciphertext(const std::vector<std::uint8_t>& bytes,
                                       const fhe::CkksContext& ctx);

// ------------------------------------------------------------ key material --

std::vector<std::uint8_t> serialize(const fhe::PublicKey& pk);
fhe::PublicKey deserialize_public_key(const std::vector<std::uint8_t>& bytes,
                                      const fhe::CkksContext& ctx);

/// Secret keys serialize for client-side persistence only — never ship one
/// to a server.
std::vector<std::uint8_t> serialize(const fhe::SecretKey& sk);
fhe::SecretKey deserialize_secret_key(const std::vector<std::uint8_t>& bytes,
                                      const fhe::CkksContext& ctx);

std::vector<std::uint8_t> serialize(const fhe::KSwitchKey& key);
fhe::KSwitchKey deserialize_kswitch_key(const std::vector<std::uint8_t>& bytes,
                                        const fhe::CkksContext& ctx);

std::vector<std::uint8_t> serialize(const fhe::GaloisKeys& keys);
fhe::GaloisKeys deserialize_galois_keys(const std::vector<std::uint8_t>& bytes,
                                        const fhe::CkksContext& ctx);

// ----------------------------------------------------------- serving extras --

/// Rotation-step list for the serving handshake: the server plans on the
/// client's parameter set and tells the client every slot offset its
/// schedule rotates by (pipeline fans PLUS the executor's packing strides),
/// and the client answers with Galois keys covering exactly that set — the
/// server holds no secret key, so it cannot mint the keys itself.
std::vector<std::uint8_t> serialize_rotation_steps(const std::vector<int>& steps,
                                                   const fhe::CkksContext& ctx);
std::vector<int> deserialize_rotation_steps(const std::vector<std::uint8_t>& bytes,
                                            const fhe::CkksContext& ctx);

}  // namespace sp::io
