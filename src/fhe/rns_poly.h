#pragma once

#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fhe/context.h"

namespace sp::fhe {

/// Runs body(unit, offset, length) over `units` independent rows of n
/// residues, split into tiles of at most 4096 elements. Tiling keeps short
/// chains from capping the usable thread count at the row count; units share
/// nothing, so the result is the serial loop's for any SMARTPAF_THREADS.
template <typename Body>
void for_each_row_tile(std::size_t units, std::size_t n, const Body& body) {
  constexpr std::size_t kTile = 4096;
  const std::size_t tiles = n >= kTile ? n / kTile : 1;
  const std::size_t len = n / tiles;  // n, kTile powers of two => exact
  sp::parallel_for(0, units * tiles, [&](std::size_t u) {
    body(u / tiles, (u % tiles) * len, len);
  });
}

/// Ring element of Z_Q[X]/(X^N + 1) in residue-number-system form: one row
/// of N 64-bit residues per prime. The row set is the first `q_count` chain
/// primes, optionally followed by the special key-switching prime.
///
/// Storage is a single contiguous 64-byte-aligned buffer (row i at offset
/// i*N), so the SIMD kernels always see aligned row starts and whole-element
/// batches stream without per-row pointer chasing.
///
/// A flag tracks whether rows are in coefficient or NTT (evaluation) form;
/// arithmetic helpers check form compatibility.
class RnsPoly {
 public:
  /// Tag of the write-once constructor.
  struct Unwritten {};
  static constexpr Unwritten kUnwritten{};

  RnsPoly() = default;
  /// Zero polynomial.
  RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form);
  /// Rows left unwritten, for a caller that writes every row next (a
  /// product's parts, a key switch's outputs). Builds without
  /// NDEBUG fill them with all-ones, which is no residue, so a row left
  /// unwritten fails the wire decoder's residue check and every digest.
  RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form, Unwritten);

  const CkksContext* context() const { return ctx_; }
  int q_count() const { return q_count_; }
  bool has_special() const { return with_special_; }
  int row_count() const { return q_count_ + (with_special_ ? 1 : 0); }
  bool is_ntt() const { return ntt_; }
  std::size_t n() const { return ctx_->n(); }

  u64* row(int i) { return data_.data() + static_cast<std::size_t>(i) * n(); }
  const u64* row(int i) const {
    return data_.data() + static_cast<std::size_t>(i) * n();
  }

  /// Modulus / NTT tables owning row i (special prime for the final row).
  const Modulus& row_mod(int i) const;
  const NttTables& row_ntt(int i) const;

  /// Converts all rows between coefficient and evaluation form.
  void to_ntt();
  void from_ntt();

  // Pointwise arithmetic; operands must have identical row structure & form.
  void add_inplace(const RnsPoly& o);
  void sub_inplace(const RnsPoly& o);
  void negate_inplace();
  void mul_inplace(const RnsPoly& o);  // requires NTT form

  /// Removes the last chain prime row (rescale/mod-drop bookkeeping is done
  /// by the evaluator).
  void drop_last_q();
  /// Removes the special prime row.
  void drop_special();

  /// Fills with the same small signed integer polynomial across all rows.
  void set_from_signed(const std::vector<std::int64_t>& coeffs);

  // Samplers (coefficient form expected; same underlying integer polynomial
  // is embedded into every row).
  void sample_ternary(sp::Rng& rng);
  void sample_gaussian(sp::Rng& rng, double stddev);
  /// Uniform element of R_Q (independent uniform residues per row).
  void sample_uniform(sp::Rng& rng);

 private:
  const CkksContext* ctx_ = nullptr;
  int q_count_ = 0;
  bool with_special_ = false;
  bool ntt_ = false;
  sp::AlignedVec<u64> data_;  // row_count() * n() residues, 64-byte aligned
};

}  // namespace sp::fhe
