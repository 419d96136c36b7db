// AVX-512 kernel tier: 8 x u64 lanes. Uses the native vpmullq (AVX-512DQ)
// for low-half 64x64 products, vpmuludq decomposition for the high half,
// native unsigned compares/mask ops, and min_epu64 for conditional
// subtraction. Arithmetic is exactly the scalar formulas — bit-identical
// results are the contract, locked by tests/test_simd.cpp. Every kernel runs
// whole vectors only and hands the remaining elements (or blocks) to the
// scalar tier, and both butterfly kernels and both stage kernels share one
// butterfly loop per direction.
//
// Compiled with -mavx512f -mavx512dq (per-file, no global -march); degrades
// to a null table when the compiler cannot target AVX-512.
#include "fhe/simd/ntt_loop.h"
#include "fhe/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "fhe/simd/avx512_helpers.h"

namespace sp::fhe::simd {
namespace {

/// One vector of butterflies. Forward (Cooley-Tukey): x/y in < 4q, out < 4q.
/// Inverse (Gentleman-Sande): x/y in < 2q, out < 2q. The twiddle may be
/// per-lane (small-t layouts) or a broadcast.
template <bool Fwd>
inline void bfly(__m512i& x, __m512i& y, const TwV& tw, __m512i q, __m512i two_q) {
  if constexpr (Fwd) {
    const __m512i xx = csub(x, two_q);
    const __m512i v = shoup_lazy(y, tw, q);
    x = _mm512_add_epi64(xx, v);
    y = _mm512_sub_epi64(_mm512_add_epi64(xx, two_q), v);
  } else {
    const __m512i xx = x;
    const __m512i yy = y;
    x = csub(_mm512_add_epi64(xx, yy), two_q);
    y = shoup_lazy(_mm512_sub_epi64(_mm512_add_epi64(xx, two_q), yy), tw, q);
  }
}

/// Butterflies over x[0, len) and y[0, len) with one broadcast twiddle: two
/// vectors per step, then one, then the scalar tier for the rest. The stage
/// kernel calls this once per block with modulus vectors built once per
/// stage.
template <bool Fwd>
inline void bfly_loop(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup, u64 q,
                      __m512i qv, __m512i two_qv) {
  const TwV tw = make_tw(bcast(w), bcast(w_shoup));
  std::size_t j = 0;
  for (; j + 2 * kLanes <= len; j += 2 * kLanes) {
    __m512i x0 = load(x + j), x1 = load(x + j + kLanes);
    __m512i y0 = load(y + j), y1 = load(y + j + kLanes);
    bfly<Fwd>(x0, y0, tw, qv, two_qv);
    bfly<Fwd>(x1, y1, tw, qv, two_qv);
    store(x + j, x0);
    store(x + j + kLanes, x1);
    store(y + j, y0);
    store(y + j + kLanes, y1);
  }
  if (j + kLanes <= len) {
    __m512i xx = load(x + j);
    __m512i yy = load(y + j);
    bfly<Fwd>(xx, yy, tw, qv, two_qv);
    store(x + j, xx);
    store(y + j, yy);
    j += kLanes;
  }
  if (j < len) {  // never on ring rows, so no per-block call in the stages
    const Kernels* s = detail::scalar_kernels();
    (Fwd ? s->fwd_butterfly : s->inv_butterfly)(x + j, y + j, len - j, w, w_shoup, q);
  }
}

void add_mod_avx512(u64* a, const u64* b, std::size_t n, u64 q) {
  const __m512i qv = bcast(q);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(_mm512_add_epi64(load(a + j), load(b + j)), qv));
  detail::scalar_kernels()->add_mod(a + j, b + j, n - j, q);
}

void sub_mod_avx512(u64* a, const u64* b, std::size_t n, u64 q) {
  const __m512i qv = bcast(q);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j);
    const __m512i bv = load(b + j);
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(av, bv);
    __m512i r = _mm512_sub_epi64(av, bv);
    r = _mm512_mask_add_epi64(r, borrow, r, qv);
    store(a + j, r);
  }
  detail::scalar_kernels()->sub_mod(a + j, b + j, n - j, q);
}

void neg_mod_avx512(u64* a, std::size_t n, u64 q) {
  const __m512i qv = bcast(q);
  const __m512i zero = _mm512_setzero_si512();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j);
    const __mmask8 nonzero = _mm512_cmpneq_epi64_mask(av, zero);
    store(a + j, _mm512_maskz_sub_epi64(nonzero, qv, av));
  }
  detail::scalar_kernels()->neg_mod(a + j, n - j, q);
}

void mul_mod_avx512(u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                    u64 ratio_lo) {
  const __m512i qv = bcast(q), rhi = bcast(ratio_hi), rlo = bcast(ratio_lo);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j);
    const __m512i bv = load(b + j);
    store(a + j, barrett128(mul64_lo(av, bv), mul64_hi(av, bv), qv, rhi, rlo));
  }
  detail::scalar_kernels()->mul_mod(a + j, b + j, n - j, q, ratio_hi, ratio_lo);
}

void mul_shoup_avx512(u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q) {
  const __m512i qv = bcast(q), wv = bcast(w), wsv = bcast(w_shoup);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(shoup_lazy(load(a + j), wv, wsv, qv), qv));
  detail::scalar_kernels()->mul_shoup(a + j, n - j, w, w_shoup, q);
}

template <bool Fwd>
void butterfly_avx512(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup, u64 q) {
  bfly_loop<Fwd>(x, y, len, w, w_shoup, q, bcast(q), bcast(2 * q));
}

/// Stage worker shared by the forward/inverse stage kernels. Wide stages
/// (t >= 8) run the butterfly loop once per block; t = 4 / 2 / 1 regroup
/// 2 / 4 / 8 consecutive blocks into full vectors with 128-bit shuffles or
/// cross-lane permutes and use per-lane twiddles, so every stage stays
/// vectorized. The permutes only reorder independent butterflies —
/// arithmetic is unchanged.
template <bool Fwd>
void stage_avx512(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                  const u64* w_shoup, u64 q) {
  const __m512i qv = bcast(q), two_qv = bcast(2 * q);

  if (t >= kLanes) {
    for (std::size_t b = 0; b < blocks; ++b)
      bfly_loop<Fwd>(a + b * 2 * t, a + b * 2 * t + t, t, w[b], w_shoup[b], q, qv, two_qv);
    return;
  }

  std::size_t b = 0;
  if (t == 4) {
    // Two blocks per vector pair: each block is one full vector
    // (x0..x3 y0..y3); 128-bit quarter shuffles regroup two blocks into an
    // all-x and an all-y vector, twiddles expand as (w0 x4, w1 x4).
    const __m512i widx = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    for (; b + 2 <= blocks; b += 2) {
      u64* p = a + b * 8;
      const __m512i va = load(p);
      const __m512i vb = load(p + 8);
      __m512i xx = _mm512_shuffle_i64x2(va, vb, 0x44);
      __m512i yy = _mm512_shuffle_i64x2(va, vb, 0xee);
      const __m512i wv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi128_si512(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(w + b))));
      const __m512i wsv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi128_si512(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(w_shoup + b))));
      const TwV tw = make_tw(wv, wsv);
      bfly<Fwd>(xx, yy, tw, qv, two_qv);
      store(p, _mm512_shuffle_i64x2(xx, yy, 0x44));
      store(p + 8, _mm512_shuffle_i64x2(xx, yy, 0xee));
    }
  } else if (t == 2) {
    // Four blocks per vector pair: blocks are (x0 x1 y0 y1) quadruples;
    // cross-lane permutes gather the x and y pairs, twiddles expand as
    // (w0 w0 w1 w1 w2 w2 w3 w3).
    const __m512i xidx = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i yidx = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i aidx = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i bidx = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const __m512i widx = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    for (; b + 4 <= blocks; b += 4) {
      u64* p = a + b * 4;
      const __m512i va = load(p);
      const __m512i vb = load(p + 8);
      __m512i xx = _mm512_permutex2var_epi64(va, xidx, vb);
      __m512i yy = _mm512_permutex2var_epi64(va, yidx, vb);
      const __m512i wv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi256_si512(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(w + b))));
      const __m512i wsv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi256_si512(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(w_shoup + b))));
      const TwV tw = make_tw(wv, wsv);
      bfly<Fwd>(xx, yy, tw, qv, two_qv);
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  } else if (t == 1) {
    // Eight blocks per vector pair: blocks are (x y) pairs, so the x lanes
    // sit at even offsets; twiddles are already one-per-block and load
    // contiguously in natural order.
    const __m512i xidx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i yidx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i aidx = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i bidx = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    for (; b + 8 <= blocks; b += 8) {
      u64* p = a + b * 2;
      const __m512i va = load(p);
      const __m512i vb = load(p + 8);
      __m512i xx = _mm512_permutex2var_epi64(va, xidx, vb);
      __m512i yy = _mm512_permutex2var_epi64(va, yidx, vb);
      const __m512i wv = load(w + b);
      const __m512i wsv = load(w_shoup + b);
      const TwV tw = make_tw(wv, wsv);
      bfly<Fwd>(xx, yy, tw, qv, two_qv);
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  }
  // Blocks no vector group covers (tiny rings only): the scalar tier.
  const Kernels* s = detail::scalar_kernels();
  (Fwd ? s->fwd_stage : s->inv_stage)(a + b * 2 * t, t, blocks - b, w + b, w_shoup + b, q);
}

void reduce_4q_avx512(u64* a, std::size_t n, u64 q) {
  const __m512i qv = bcast(q), two_qv = bcast(2 * q);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(csub(load(a + j), two_qv), qv));
  detail::scalar_kernels()->reduce_4q(a + j, n - j, q);
}

void lift_centered_avx512(u64* dst, const u64* src, std::size_t n, u64 q_src, u64 q) {
  const u64 half = q_src / 2;
  const __m512i halfv = bcast(half);
  std::size_t j = 0;
  if (half < q) {
    const __m512i shift = bcast(q - q_src);
    for (; j + kLanes <= n; j += kLanes) {
      const __m512i x = load(src + j);
      store(dst + j, _mm512_mask_add_epi64(x, _mm512_cmpgt_epu64_mask(x, halfv), x, shift));
    }
  } else {
    // mul_shoup_lazy(x, 1, one_shoup, q) = x - q_hat * q, then one csub.
    const __m512i qv = bcast(q);
    const __m512i ws = bcast(shoup_precompute(1, q));
    const __m512i ws_hi = hi32(ws);
    const __m512i qs = bcast(q_src % q);
    for (; j + kLanes <= n; j += kLanes) {
      const __m512i x = load(src + j);
      const __m512i q_hat = mul64_hi_pre(x, hi32(x), ws, ws_hi);
      const __m512i r = csub(_mm512_sub_epi64(x, mul64_lo(q_hat, qv)), qv);
      store(dst + j, lift_wide_sign(x, r, halfv, qs, qv));
    }
  }
  detail::scalar_kernels()->lift_centered(dst + j, src + j, n - j, q_src, q);
}

/// One digit's products d·k added to a 128-bit sum held as three 64-bit
/// columns, c0 + c1·2^32 + c2·2^64, from the four 32x32 partial products:
/// no carry ever propagates inside the loop. d, k < 2^62 keep the two
/// middle products' sum below 2^63, and c2 never exceeds the true sum over
/// 2^64, so it cannot wrap while count·q² < 2^128.
inline void mac128(__m512i& c0, __m512i& c1, __m512i& c2, __m512i x, __m512i xh,
                   __m512i y, __m512i m32) {
  const __m512i yh = hi32(y);
  const __m512i ll = _mm512_mul_epu32(x, y);
  const __m512i mid = _mm512_add_epi64(_mm512_mul_epu32(x, yh), _mm512_mul_epu32(xh, y));
  const __m512i hh = _mm512_mul_epu32(xh, yh);
  c0 = _mm512_add_epi64(c0, _mm512_and_si512(ll, m32));
  c1 = _mm512_add_epi64(c1, _mm512_add_epi64(hi32(ll), _mm512_and_si512(mid, m32)));
  c2 = _mm512_add_epi64(c2, _mm512_add_epi64(hh, hi32(mid)));
}

/// Folds the three columns into x_hi:x_lo and reduces once.
inline __m512i reduce_columns(__m512i c0, __m512i c1, __m512i c2, __m512i qv,
                              __m512i rhi, __m512i rlo) {
  const __m512i lo = _mm512_add_epi64(c0, _mm512_slli_epi64(c1, 32));
  __m512i hi = _mm512_add_epi64(c2, hi32(c1));
  hi = _mm512_mask_add_epi64(hi, _mm512_cmplt_epu64_mask(lo, c0), hi, bcast(1));
  return barrett128(lo, hi, qv, rhi, rlo);
}

void key_inner_product_avx512(u64* out0, u64* out1, const u64* const* d,
                              const u64* const* k0, const u64* const* k1,
                              std::size_t count, std::size_t n, u64 q, u64 ratio_hi,
                              u64 ratio_lo) {
  const __m512i qv = bcast(q), rhi = bcast(ratio_hi), rlo = bcast(ratio_lo);
  const __m512i m32 = bcast(0xffffffff);
  // Both sums of an 8-lane chunk stay in registers across every digit, and
  // each digit's rows are prefetched kAhead elements on.
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, b0 = a0, b1 = a0, b2 = a0;
    const bool prefetch = j + kAhead < n;
    for (std::size_t i = 0; i < count; ++i) {
      if (prefetch) prefetch_digit(d[i] + j, k0[i] + j, k1[i] + j);
      const __m512i x = load(d[i] + j);
      const __m512i xh = hi32(x);
      mac128(a0, a1, a2, x, xh, load(k0[i] + j), m32);
      mac128(b0, b1, b2, x, xh, load(k1[i] + j), m32);
    }
    store(out0 + j, reduce_columns(a0, a1, a2, qv, rhi, rlo));
    store(out1 + j, reduce_columns(b0, b1, b2, qv, rhi, rlo));
  }
  key_inner_product_rest(out0, out1, d, k0, k1, count, j, n, q, ratio_hi, ratio_lo);
}

const Kernels kAvx512Kernels = {
    add_mod_avx512,          sub_mod_avx512,       neg_mod_avx512,
    mul_mod_avx512,          mul_shoup_avx512,     butterfly_avx512<true>,
    butterfly_avx512<false>, stage_avx512<true>,   stage_avx512<false>,
    detail::ntt_forward_by_stages<stage_avx512<true>, reduce_4q_avx512>,
    detail::ntt_inverse_by_stages<stage_avx512<false>, mul_shoup_avx512>,
    reduce_4q_avx512,        lift_centered_avx512, key_inner_product_avx512,
};

}  // namespace

namespace detail {
const Kernels* avx512_kernels() { return &kAvx512Kernels; }
}  // namespace detail

}  // namespace sp::fhe::simd

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace sp::fhe::simd::detail {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace sp::fhe::simd::detail

#endif
