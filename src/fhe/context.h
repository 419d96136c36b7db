#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fhe/modarith.h"
#include "fhe/ntt.h"

namespace sp::fhe {

/// CKKS encryption parameters.
///
/// The coefficient modulus is a chain of NTT-friendly primes
/// Q = q_0 * ... * q_L plus one "special" prime P used only for hybrid
/// key-switching. q_0 (and usually q_L... in this library q_0) is a wide
/// prime giving decode headroom; the middle primes sit near the scale so
/// rescaling keeps the scale roughly constant.
struct CkksParams {
  std::size_t poly_degree = 8192;           ///< ring dimension N (power of two)
  std::vector<int> q_bits = {60, 40, 40, 40, 40, 40};
  int special_bits = 60;                    ///< key-switching prime P
  double scale = 1099511627776.0;           ///< default Delta = 2^40
  double noise_stddev = 3.2;                ///< discrete Gaussian sigma, in [3.19, 2^56]
  std::uint64_t seed = 42;                  ///< keygen/encryption randomness

  /// Chain sized for `depth` sequential multiplications at ring size `n`:
  /// one 60-bit base prime, `depth` scale-sized primes, one special prime.
  static CkksParams for_depth(std::size_t n, int depth, int scale_bits = 40);

  /// Small parameters for unit tests (N=2048, depth 3).
  static CkksParams test_small();

  /// Benchmark parameters mirroring the paper's SEAL setup: N = 32768 with
  /// a chain deep enough for the deepest PAF (depth 10) plus input scaling.
  static CkksParams paper_paf();
};

/// Precomputed CKKS context: moduli, NTT tables, and the rescale /
/// key-switch / CRT-decode constants shared by all operations.
class CkksContext {
 public:
  explicit CkksContext(const CkksParams& params);

  const CkksParams& params() const { return params_; }
  std::size_t n() const { return params_.poly_degree; }
  std::size_t slot_count() const { return n() / 2; }
  /// Number of Q primes (levels available = q_count - 1 multiplications).
  int q_count() const { return static_cast<int>(q_mods_.size()); }
  double scale() const { return params_.scale; }

  const Modulus& q(int i) const { return q_mods_[static_cast<std::size_t>(i)]; }
  const NttTables& ntt(int i) const { return *q_ntt_[static_cast<std::size_t>(i)]; }
  const Modulus& special() const { return special_mod_; }
  const NttTables& special_ntt() const { return *special_ntt_; }

  /// q_last^{-1} mod q_i where q_last is prime index `last` (rescale).
  u64 q_inv_mod(int last, int i) const;
  /// P^{-1} mod q_i and P mod q_i (key-switch mod-down).
  u64 p_inv_mod(int i) const { return p_inv_mod_[static_cast<std::size_t>(i)]; }
  u64 p_mod(int i) const { return p_mod_[static_cast<std::size_t>(i)]; }

  /// Garner mixed-radix constant: (q_0 * ... * q_{j-1})^{-1} mod q_j.
  u64 garner_inv(int j) const { return garner_inv_[static_cast<std::size_t>(j)]; }

 private:
  CkksParams params_;
  std::vector<Modulus> q_mods_;
  std::vector<std::unique_ptr<NttTables>> q_ntt_;
  Modulus special_mod_;
  std::unique_ptr<NttTables> special_ntt_;
  std::vector<std::vector<u64>> q_inv_mod_;  // [last][i]
  std::vector<u64> p_inv_mod_, p_mod_;
  std::vector<u64> garner_inv_;
};

}  // namespace sp::fhe
