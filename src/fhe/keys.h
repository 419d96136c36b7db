#pragma once

#include <array>
#include <map>
#include <vector>

#include "common/rng.h"
#include "fhe/encoder.h"
#include "fhe/rns_poly.h"

namespace sp::fhe {

/// CKKS ciphertext: 2 (or 3, pre-relinearization) ring elements in NTT form
/// plus the tracked scale. The level is implied by the parts' prime count.
struct Ciphertext {
  std::vector<RnsPoly> parts;
  double scale = 1.0;

  int size() const { return static_cast<int>(parts.size()); }
  int q_count() const { return parts.empty() ? 0 : parts.front().q_count(); }
  /// Remaining rescale budget: level 0 means no further rescale possible.
  int level() const { return q_count() - 1; }
};

/// Ternary secret key, stored in NTT form over the full basis Q ∪ {P}
/// (plus the coefficient form, needed to derive Galois keys).
struct SecretKey {
  RnsPoly s_ntt;     ///< NTT form, all chain primes + special
  RnsPoly s_coeff;   ///< coefficient form, same basis
};

/// Public encryption key (-a s + e, a) over the full chain Q.
struct PublicKey {
  RnsPoly p0, p1;  // NTT form
};

/// Hybrid key-switching key: one two-part encryption of P · w · u_i per
/// decomposition digit i (u_i is the CRT indicator of prime i), over the
/// basis Q ∪ {P}. `w` is s^2 for relinearization or s(X^g) for rotation.
struct KSwitchKey {
  std::vector<std::array<RnsPoly, 2>> digits;
};

/// Rotation keys indexed by Galois element.
struct GaloisKeys {
  std::map<u64, KSwitchKey> keys;
};

/// Generates all key material from a seeded RNG.
class KeyGenerator {
 public:
  KeyGenerator(const CkksContext& ctx, std::uint64_t seed);

  const SecretKey& secret_key() const { return sk_; }
  PublicKey public_key();

  /// Relinearization key (switches the s^2 component back to s).
  KSwitchKey relin_key();

  /// Rotation keys for the given slot-rotation steps (positive = left).
  GaloisKeys galois_keys(const std::vector<int>& steps);

 private:
  /// Builds a key-switching key for target secret `w` (NTT form, full basis).
  KSwitchKey make_kswitch_key(const RnsPoly& w_ntt);

  const CkksContext* ctx_;
  sp::Rng rng_;
  SecretKey sk_;
};

/// Galois element 5^r mod 2n implementing a left rotation by `steps` slots
/// of a ring of degree n, with r = steps mod n/2 (negative steps rotate
/// right).
u64 galois_element(std::size_t n, int steps);

/// Applies the Galois automorphism X -> X^g to a coefficient-form polynomial.
RnsPoly apply_galois(const RnsPoly& coeff_poly, u64 galois_elt);

/// Index table applying X -> X^g directly on NTT-form rows: out[j] =
/// in[table[j]]. NTT slot j holds the evaluation at psi^(2*brev(j)+1), and
/// the automorphism permutes evaluation points without sign corrections, so
/// permuting by this table equals NTT(apply_galois(iNTT(x))) bit for bit.
/// This is what makes key-switch hoisting pay: decomposition digits are
/// NTT'd once and re-permuted per rotation instead of re-decomposed.
/// Tables depend only on (n, g) and are memoized process-wide (thread-safe;
/// the returned reference stays valid for the process lifetime).
const std::vector<std::uint32_t>& galois_ntt_table(std::size_t n, u64 galois_elt);

/// Applies the Galois automorphism to an NTT-form polynomial via the table.
RnsPoly apply_galois_ntt(const RnsPoly& ntt_poly, u64 galois_elt);

}  // namespace sp::fhe
