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
/// 2^50. The batched entry points' sub-row split runs the stage kernels
/// directly. Results are bit-identical on every tier and path. Tables are
/// built in O(n) multiplies (iterated root powers scattered into
/// bit-reversed order), so large-N table construction — the keygen-less
/// session-adoption cold-start cost — stays cheap.
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
  // --- Sub-row decomposition used by the batched entry points below.
  //
  // After the first log2(split) forward stages the row decomposes into
  // `split` independent contiguous sub-transforms of length n/split; the
  // inverse mirrors this (independent heads, then log2(split) joining
  // stages). These helpers run the pieces; ntt_forward_batch /
  // ntt_inverse_batch schedule them across (row x block) tiles.

  /// Forward stage s (block count 2^s, t = n >> (s+1)) over butterfly range
  /// [off, off+len) of block `b` of the full row.
  void forward_stage_part(u64* a, int s, std::size_t b, std::size_t off,
                          std::size_t len) const;
  /// All forward stages from stage log2(split) on, restricted to
  /// sub-transform `sub` (a_sub points at its first element), including the
  /// final 4q -> q reduction of that range.
  void forward_tail(u64* a_sub, std::size_t sub, std::size_t split) const;
  /// All inverse stages strictly before the joining stages: the complete
  /// independent inverse of sub-transform `sub` (no 1/n scaling).
  void inverse_head(u64* a_sub, std::size_t sub, std::size_t split) const;
  /// Inverse joining stage with global block count 2^s over butterfly range
  /// [off, off+len) of block `b`.
  void inverse_stage_part(u64* a, int s, std::size_t b, std::size_t off,
                          std::size_t len) const;
  /// Final inverse scaling by 1/n over [a, a+len), fully reduced.
  void inverse_scale(u64* a, std::size_t len) const;

  friend void ntt_forward_batch(const std::vector<struct NttJob>& jobs);
  friend void ntt_inverse_batch(const std::vector<struct NttJob>& jobs);

  std::size_t n_;
  int log_n_;
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
/// special prime).
///
/// This is the sub-row parallelism entry point: when the row count alone
/// cannot feed the thread pool (short prime chains), each row is split into
/// independent sub-transforms so parallel_for sees rows x blocks of work.
/// The split only regroups independent butterflies — results are
/// bit-identical to per-row forward()/inverse() for every thread count and
/// SIMD tier.
void ntt_forward_batch(const std::vector<NttJob>& jobs);
void ntt_inverse_batch(const std::vector<NttJob>& jobs);

}  // namespace sp::fhe
