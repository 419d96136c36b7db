#pragma once

#include <vector>

#include "fhe/encryptor.h"
#include "fhe/keys.h"
#include "fhe/linear_transform.h"

namespace sp::fhe {

/// Halevi–Shoup diagonal matvec with an ENCRYPTED matrix: y = X v where the
/// extended diagonals of X are ciphertexts (the training batch — the server
/// must never see the data) and v is a ciphertext (the weights).
///
/// The client packs diagonal s pre-rotated by -giant_of(s, n1) at
/// encryption time (free, it has the plaintext); the server runs the same
/// LinearTransform executor as the plaintext matmul with ciphertext masks:
/// each giant group's inner sum stays 3-part and pays ONE relinearization
/// right before its giant rotation, and one rescale closes the product.
class EncDiagMatVec {
 public:
  /// @brief Packs and encrypts the extended diagonals of the row-major
  /// `rows` x `cols` matrix `weights` under `schedule` (one ciphertext per
  /// term, pre-rotated by the term's giant step).
  /// @param tile  slot-layout repeat stride; 0 = one layout over all slots
  static EncDiagMatVec encrypt(const CkksContext& ctx, const Encoder& enc,
                               Encryptor& encryptor, const LtSchedule& schedule,
                               const std::vector<double>& weights, int rows, int cols,
                               std::size_t tile, double scale);

  /// @brief y = X v, one level below min(level(v), level(diagonals)). The
  /// baby rotations of `v` run as one hoisted fan.
  /// @param v      2-part weight ciphertext (data in slots [0, cols))
  /// @param gk     rotation keys covering schedule().steps()
  /// @param relin  relinearization key (one use per giant group)
  Ciphertext apply(Evaluator& ev, const Ciphertext& v, const GaloisKeys& gk,
                   const KSwitchKey& relin) const;

 private:
  LtSchedule schedule_;
  std::vector<Ciphertext> diags_;  ///< parallel to schedule_.terms
};

}  // namespace sp::fhe
