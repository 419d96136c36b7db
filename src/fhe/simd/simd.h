#pragma once

#include <cstddef>

#include "fhe/modarith.h"

namespace sp::fhe::simd {

/// Vectorized kernel tiers for the RNS hot loops. The active tier is probed
/// once at startup (CPUID + the flags the build actually compiled), can be
/// pinned down with `SMARTPAF_SIMD=scalar|avx2|avx512|avx512ifma`, and
/// switched at runtime by tests/benches with `set_tier`.
///
/// Hard contract: every tier computes bit-identical results to the scalar
/// tier for every kernel. The kernels implement exactly the scalar lazy
/// Harvey/Shoup/Barrett formulas — vector lanes change the schedule, never
/// the arithmetic — so FHE outputs do not depend on the dispatch decision.
/// The one exception is six avx512ifma entries, which for q < 2^50 replace
/// the avx512 bodies with 52-bit multiply-accumulate ones and so may take
/// other quotient estimates than the scalar formulas; each output is still
/// canonical, hence the scalar tier's bit for bit:
///  - `ntt_forward` / `ntt_inverse` (n >= 16): a transform is an exact
///    linear map mod q, its lazy values stay congruent and below 4q < 2^52,
///    and it ends fully reduced;
///  - `mul_mod`: a·b mod q by a 52-bit Barrett reduction, fully reduced;
///  - `mul_shoup`: a·w mod q fully reduced, by a 52-bit Shoup product on
///    vectors whose lanes are all below 2^52 and the 64-bit one otherwise;
///  - `lift_centered`, when q_src/2 >= q: x mod q by the 52-bit Barrett
///    reduction, then the same q_src mod q correction;
///  - `key_inner_product` (count < 2^12): each 128-bit sum, exact as 52-bit
///    column sums, reduced by the same Barrett as the avx512 tier.
/// Other primes and every other avx512ifma entry are the avx512 ones; the
/// butterfly, stage and `reduce_4q` entries keep avx512's lazy arithmetic.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kAvx512Ifma = 3 };

/// Kernel table for one tier. All pointers are non-null in every published
/// table. Ranges are contiguous; `n`/`len` may be any value: a vector tier
/// runs whole vectors only, and the scalar tier computes every remainder.
struct Kernels {
  // --- Elementwise over n residues (inputs fully reduced unless noted) ---
  /// a[i] = a[i] + b[i] mod q.
  void (*add_mod)(u64* a, const u64* b, std::size_t n, u64 q);
  /// a[i] = a[i] - b[i] mod q.
  void (*sub_mod)(u64* a, const u64* b, std::size_t n, u64 q);
  /// a[i] = -a[i] mod q.
  void (*neg_mod)(u64* a, std::size_t n, u64 q);
  /// a[i] = a[i] * b[i] mod q, Barrett reduction of the 128-bit product with
  /// the modulus' precomputed floor(2^128/q) = (ratio_hi, ratio_lo).
  void (*mul_mod)(u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                  u64 ratio_lo);
  /// a[i] = a[i] * w mod q (fully reduced), Shoup constant-operand multiply.
  /// a[i] may be any 64-bit value (lazy input allowed).
  void (*mul_shoup)(u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q);

  // --- NTT butterflies (lazy Harvey / Gentleman-Sande) ---
  /// Forward (Cooley-Tukey) butterflies over one twiddle: for i in [0, len):
  ///   x' = reduce_2q(x) + w*y mod- q (lazy),  y' = reduce_2q(x) + 2q - w*y.
  /// Inputs < 4q, outputs < 4q.
  void (*fwd_butterfly)(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                        u64 q);
  /// Inverse (Gentleman-Sande) butterflies: x' = reduce_2q(x+y),
  /// y' = w*(x + 2q - y) lazy. Inputs < 2q, outputs < 2q.
  void (*inv_butterfly)(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                        u64 q);
  /// One forward NTT stage over `blocks` consecutive blocks of 2t elements
  /// starting at `a`; block b uses twiddle (w[b], w_shoup[b]).
  void (*fwd_stage)(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                    const u64* w_shoup, u64 q);
  /// One inverse NTT stage, same layout.
  void (*inv_stage)(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                    const u64* w_shoup, u64 q);

  // --- Whole-row NTTs (n a power of two; input < q, output < q) ---
  /// In-place forward negacyclic NTT of one row. Twiddles are in
  /// bit-reversed order: the stage with m blocks uses (w[m + b],
  /// w_shoup[m + b]) for block b.
  void (*ntt_forward)(u64* a, std::size_t n, const u64* w, const u64* w_shoup, u64 q);
  /// In-place inverse NTT of one row over the inverse twiddles (the stage
  /// with h blocks uses w[h + b]), including the scaling by
  /// n_inv = 1/n mod q.
  void (*ntt_inverse)(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                      u64 n_inv, u64 n_inv_shoup, u64 q);

  // --- Final reductions ---
  /// Folds lazy values < 4q into [0, q) (forward-NTT epilogue).
  void (*reduce_4q)(u64* a, std::size_t n, u64 q);

  // --- RNS basis change ---
  /// Centered lift of residues mod q_src into [0, q): with x = src[i] in
  /// [0, q_src), dst[i] = Modulus(q).from_signed(x > q_src/2 ? x - q_src : x).
  /// When q_src/2 < q this is a compare-and-add; otherwise x is reduced mod q
  /// and q_src mod q is subtracted where x > q_src/2.
  /// dst may alias src.
  void (*lift_centered)(u64* dst, const u64* src, std::size_t n, u64 q_src, u64 q);

  // --- Key switching ---
  /// Key-switch inner product of `count` digit rows with two key parts: for
  /// j in [0, n), out0[j] = Σ_i d[i][j]·k0[i][j] mod q and out1[j] the same
  /// with k1. Each sum is exact in 128 bits, accumulated in digit order, and
  /// reduced once by Barrett with (ratio_hi, ratio_lo) = floor(2^128/q).
  /// Inputs are fully reduced (< q < 2^62). Precondition: count·q² < 2^128,
  /// so no sum wraps.
  void (*key_inner_product)(u64* out0, u64* out1, const u64* const* d,
                            const u64* const* k0, const u64* const* k1,
                            std::size_t count, std::size_t n, u64 q, u64 ratio_hi,
                            u64 ratio_lo);
};

/// Currently active tier (after the one-time probe / env override).
Tier active_tier();

/// Kernel table of the active tier.
const Kernels& kernels();

/// True when the tier is both compiled into this binary and supported by the
/// running CPU (kScalar is always supported).
bool tier_supported(Tier t);

/// Switches the active tier; returns false (and leaves the tier unchanged)
/// when unsupported. Not safe to call concurrently with in-flight FHE ops —
/// intended for tests and per-tier bench sweeps.
bool set_tier(Tier t);

/// "scalar" / "avx2" / "avx512" / "avx512ifma".
const char* tier_name(Tier t);

/// Parses a SMARTPAF_SIMD value; `*ok` reports whether the string was one of
/// the four tier names. Exposed so tests can pin the env grammar.
Tier parse_tier(const char* s, bool* ok);

namespace detail {
// Per-TU kernel tables; null when the translation unit was built without the
// matching instruction set (e.g. a compiler lacking -mavx512f).
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();
const Kernels* avx512ifma_kernels();
}  // namespace detail

}  // namespace sp::fhe::simd
