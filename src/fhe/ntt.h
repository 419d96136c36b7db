#pragma once

#include <cstddef>
#include <vector>

#include "fhe/modarith.h"

namespace sp::fhe {

/// Negacyclic number-theoretic transform over Z_q[X]/(X^n + 1).
///
/// Implements the Longa-Naehrig/Harvey formulation: Cooley-Tukey butterflies
/// for the forward transform and Gentleman-Sande for the inverse, with root
/// powers stored in bit-reversed order and Shoup-precomputed companions for
/// lazy (< 4q) butterfly arithmetic. Multiplication of ring elements becomes
/// pointwise multiplication between forward transforms.
///
/// Whole-row transforms (`forward`, `inverse`) call the dispatched SIMD
/// layer's (fhe/simd/) `ntt_forward` / `ntt_inverse` entries: on the
/// scalar, AVX2 and AVX-512 tiers a loop over that tier's stage kernels, on
/// the AVX-512 IFMA tier 52-bit-multiplier transforms for primes below
/// 2^50. Results are bit-identical on every tier. Tables are built in O(n)
/// multiplies (iterated root powers scattered into bit-reversed order), so
/// large-N table construction — the keygen-less session-adoption cold-start
/// cost — stays cheap.
class NttTables {
 public:
  NttTables(std::size_t n, Modulus mod);

  std::size_t n() const { return n_; }
  const Modulus& modulus() const { return mod_; }

  /// In-place forward NTT; input/output fully reduced (< q).
  void forward(u64* a) const;

  /// In-place inverse NTT (includes the 1/n scaling); output < q.
  void inverse(u64* a) const;

 private:
  std::size_t n_;
  Modulus mod_;
  std::vector<u64> roots_, roots_shoup_;          // psi^brev(i)
  std::vector<u64> inv_roots_, inv_roots_shoup_;  // psi^-brev(i)
  u64 n_inv_ = 0, n_inv_shoup_ = 0;
};

/// One row of a batched NTT: the residue data and the prime's tables.
struct NttJob {
  u64* data = nullptr;
  const NttTables* tables = nullptr;
};

/// Batched in-place forward / inverse NTT over independent rows (all rows
/// must share the same n; tables may differ per row — chain primes vs the
/// special prime). Each row is one whole-row transform, one row per pool
/// lane, so results are bit-identical to per-row forward()/inverse() for
/// every thread count and SIMD tier.
void ntt_forward_batch(const std::vector<NttJob>& jobs);
void ntt_inverse_batch(const std::vector<NttJob>& jobs);

}  // namespace sp::fhe
