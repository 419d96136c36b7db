// Whole-row transforms written once over a tier's stage kernels: the
// scalar, AVX2 and AVX-512 tables publish these instantiations as their
// `ntt_forward` / `ntt_inverse` entries. Private to the tier translation
// units.
#pragma once

#include "fhe/simd/simd.h"

namespace sp::fhe::simd::detail {

/// Forward stages (m blocks of 2t, t = n / 2m, twiddles w[m, 2m)), then
/// `Fold` (a tier's reduce_4q) brings the lazy < 4q values into [0, q).
template <auto Stage, auto Fold>
void ntt_forward_by_stages(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                           u64 q) {
  std::size_t t = n >> 1;
  for (std::size_t m = 1; m < n; m <<= 1, t >>= 1) Stage(a, t, m, w + m, w_shoup + m, q);
  Fold(a, n, q);
}

/// Inverse stages (h blocks of 2t, t = n / 2h, twiddles w[h, 2h)), then
/// `Scale` (a tier's mul_shoup, in place) multiplies by 1/n into [0, q).
template <auto Stage, auto Scale>
void ntt_inverse_by_stages(u64* a, std::size_t n, const u64* w, const u64* w_shoup,
                           u64 n_inv, u64 n_inv_shoup, u64 q) {
  std::size_t t = 1;
  for (std::size_t h = n >> 1; h >= 1; h >>= 1, t <<= 1) Stage(a, t, h, w + h, w_shoup + h, q);
  Scale(a, a, n, n_inv, n_inv_shoup, q);
}

}  // namespace sp::fhe::simd::detail
