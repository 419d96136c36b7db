// Lane helpers shared by the AVX-512 and AVX-512 IFMA kernel units: loads
// and broadcasts, conditional subtraction, the 64x64-bit products (native
// vpmullq low half, vpmuludq-decomposed high half), the 64-bit Shoup
// product, the 128-bit Barrett reduction, the last step of the wide centered
// lift, and the key-switch inner product's prefetch and scalar remainder.
// Include only from those two units, inside their __AVX512F__ &&
// __AVX512DQ__ guard. Each unit is compiled with its own ISA flags, so
// everything here has internal linkage: no unit may link another unit's copy
// of a helper.
#pragma once

#include <immintrin.h>

#include <vector>

#include "fhe/simd/simd.h"

namespace sp::fhe::simd {
namespace {

constexpr std::size_t kLanes = 8;

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }
inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }
inline __m512i bcast(u64 v) { return _mm512_set1_epi64(static_cast<long long>(v)); }

/// v >> 32 lanewise. The zero-masked form with every lane selected is the
/// plain vpsrlq; unlike _mm512_srli_epi64 it has no undefined pass-through
/// operand, on which GCC 12 reports -Wuninitialized once a broadcast
/// operand is inlined.
inline __m512i hi32(__m512i v) { return _mm512_maskz_srli_epi64(0xff, v, 32); }

inline __m512i mul64_lo(__m512i x, __m512i y) { return _mm512_mullo_epi64(x, y); }

/// High 64 bits of the lanewise 64x64 product (vpmuludq decomposition),
/// both operands pre-split.
inline __m512i mul64_hi_pre(__m512i x, __m512i xh, __m512i y, __m512i yh) {
  const __m512i m32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i ll = _mm512_mul_epu32(x, y);
  const __m512i lh = _mm512_mul_epu32(x, yh);
  const __m512i hl = _mm512_mul_epu32(xh, y);
  const __m512i hh = _mm512_mul_epu32(xh, yh);
  const __m512i cross = _mm512_add_epi64(
      hi32(ll),
      _mm512_add_epi64(_mm512_and_si512(lh, m32), _mm512_and_si512(hl, m32)));
  return _mm512_add_epi64(
      hh, _mm512_add_epi64(hi32(lh), _mm512_add_epi64(hi32(hl), hi32(cross))));
}

inline __m512i mul64_hi(__m512i x, __m512i y) {
  return mul64_hi_pre(x, hi32(x), y, hi32(y));
}

/// r >= c ? r - c : r. The subtract wraps when r < c, so the unsigned min
/// picks the in-range representative.
inline __m512i csub(__m512i r, __m512i c) {
  return _mm512_min_epu64(r, _mm512_sub_epi64(r, c));
}

/// Twiddle operand with the Shoup companion's high half pre-split (the
/// native vpmullq low-half products need no splits).
struct TwV {
  __m512i w, ws, ws_hi;
};
inline TwV make_tw(__m512i wv, __m512i wsv) { return {wv, wsv, hi32(wsv)}; }

/// The scalar mul_shoup_lazy: x * w mod q in [0, 2q) for any 64-bit x.
inline __m512i shoup_lazy(__m512i x, const TwV& tw, __m512i q) {
  const __m512i q_hat = mul64_hi_pre(x, hi32(x), tw.ws, tw.ws_hi);
  return _mm512_sub_epi64(mul64_lo(x, tw.w), mul64_lo(q_hat, q));
}

inline __m512i shoup_lazy(__m512i x, __m512i w, __m512i ws, __m512i q) {
  return shoup_lazy(x, make_tw(w, ws), q);
}

/// Barrett reduction of the lanewise 128-bit values x_hi:x_lo by q, the
/// vector form of barrett_reduce with (rhi, rlo) = floor(2^128/q).
inline __m512i barrett128(__m512i x_lo, __m512i x_hi, __m512i qv, __m512i rhi,
                          __m512i rlo) {
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i t1_lo = mul64_lo(x_lo, rhi);
  const __m512i t1_hi = mul64_hi(x_lo, rhi);
  const __m512i t2_lo = mul64_lo(x_hi, rlo);
  const __m512i t2_hi = mul64_hi(x_hi, rlo);
  const __m512i carry = mul64_hi(x_lo, rlo);
  const __m512i s1 = _mm512_add_epi64(t1_lo, t2_lo);
  const __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, t1_lo);
  const __m512i s2 = _mm512_add_epi64(s1, carry);
  const __mmask8 c2 = _mm512_cmplt_epu64_mask(s2, s1);
  __m512i mid_hi = _mm512_add_epi64(t1_hi, t2_hi);
  mid_hi = _mm512_mask_add_epi64(mid_hi, c1, mid_hi, one);
  mid_hi = _mm512_mask_add_epi64(mid_hi, c2, mid_hi, one);
  const __m512i est = _mm512_add_epi64(mul64_lo(x_hi, rhi), mid_hi);
  const __m512i r = _mm512_sub_epi64(x_lo, mul64_lo(est, qv));
  return csub(csub(r, qv), qv);  // remainder < 3q
}

/// The last step of a wide centered lift (q_src/2 >= q): given r = x mod q,
/// r - q_src mod q (mod q) where x > q_src/2, else r.
inline __m512i lift_wide_sign(__m512i x, __m512i r, __m512i half, __m512i qs, __m512i q) {
  __m512i shifted = _mm512_sub_epi64(r, qs);
  shifted = _mm512_mask_add_epi64(shifted, _mm512_cmplt_epu64_mask(r, qs), shifted, q);
  return _mm512_mask_blend_epi64(_mm512_cmpgt_epu64_mask(x, half), r, shifted);
}

/// How far ahead of an 8-lane chunk the key-switch inner products prefetch.
/// A chunk reads one line of each of the 3·count rows: more streams than the
/// hardware prefetchers follow at 11-21 digits. With key rows coming from
/// memory, requesting each row's line kAhead elements on measured ~2x
/// faster at N = 2048 and 19 digits.
constexpr std::size_t kAhead = 32;

inline void prefetch_digit(const u64* d, const u64* k0, const u64* k1) {
  _mm_prefetch(reinterpret_cast<const char*>(d + kAhead), _MM_HINT_T0);
  _mm_prefetch(reinterpret_cast<const char*>(k0 + kAhead), _MM_HINT_T0);
  _mm_prefetch(reinterpret_cast<const char*>(k1 + kAhead), _MM_HINT_T0);
}

/// The scalar tier's key inner product over columns [j, n).
inline void key_inner_product_rest(u64* out0, u64* out1, const u64* const* d,
                                   const u64* const* k0, const u64* const* k1,
                                   std::size_t count, std::size_t j, std::size_t n, u64 q,
                                   u64 ratio_hi, u64 ratio_lo) {
  if (j == n) return;
  std::vector<const u64*> rows(3 * count);
  for (std::size_t i = 0; i < count; ++i) {
    rows[i] = d[i] + j;
    rows[count + i] = k0[i] + j;
    rows[2 * count + i] = k1[i] + j;
  }
  detail::scalar_kernels()->key_inner_product(out0 + j, out1 + j, rows.data(),
                                              rows.data() + count, rows.data() + 2 * count,
                                              count, n - j, q, ratio_hi, ratio_lo);
}

}  // namespace
}  // namespace sp::fhe::simd
