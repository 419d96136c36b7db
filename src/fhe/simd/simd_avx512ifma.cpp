// AVX-512 IFMA kernel tier: the AVX-512 table with six entries built on the
// 52-bit multiply-accumulate instructions (vpmadd52luq / vpmadd52huq) for
// every prime q < 2^50: the whole-row NTTs (ring size n >= 16), mul_mod,
// mul_shoup, the wide path of lift_centered and key_inner_product. Any other
// prime, and every other entry, is the AVX-512 tier's. Each of the six
// writes a fully reduced output, and each step is exact or congruent mod q,
// so every output is the scalar tier's bit for bit, whatever quotient
// estimates it takes on the way.
//
// Shoup product (transforms, mul_shoup). With w' = floor(w * 2^52 / q) =
// w_shoup >> 12 (exact, since floor(floor(x) / m) = floor(x / m)) and
// y < 2^52,
//   t = (y*w - floor(y*w' / 2^52) * q) mod 2^52,
// which lies in [0, 2q) like the 64-bit Shoup product and is congruent to
// it, though the two quotient estimates can differ by one. 4q < 2^52 keeps
// every lazy value of a transform exact in 52 bits. A transform is an exact
// linear map mod q, so only its lazy intermediates may differ from the
// scalar tier's, which is why the butterfly and stage entries stay the
// AVX-512 ones.
//
// Barrett-52 (mul_mod, lift_centered). For q in [2^(L-1), 2^L), L <= 50,
// and x < 2^(L+51): with c1 = floor(x / 2^(L-1)) and mu = floor(2^(51+L) /
// q), both below 2^52, q_hat = floor(c1 * mu / 2^52) lies in
// [floor(x/q) - 2, floor(x/q)], so r = (x - q_hat * q) mod 2^52 is x - q_hat
// * q in [0, 3q) and two conditional subtractions give x mod q. mu comes from
// the Barrett constant the kernels receive, floor(floor(2^128 / q) /
// 2^(77-L)), exact by the same floor identity; lift_centered gets none and
// divides once per call.
//
// Compiled with -mavx512f -mavx512dq -mavx512ifma (per-file, no global
// -march); degrades to a null table when the compiler cannot target IFMA.
#include "fhe/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include "fhe/simd/avx512_helpers.h"

namespace sp::fhe::simd {
namespace {

/// Largest modulus bound the 52-bit products serve: 4q < 2^52.
constexpr u64 kQLimit = u64{1} << 50;
/// Smallest ring whose every stage fills whole vector groups (8 blocks at
/// t = 1), so no scalar remainder runs.
constexpr std::size_t kMinN = 16;
/// Digit counts the key inner product's 52-bit column sums serve: below
/// 2^12 digits a sum of 52-bit halves cannot wrap 64 bits.
constexpr std::size_t kMaxDigits = std::size_t{1} << 12;

const Kernels& avx512() { return *detail::avx512_kernels(); }

/// Bit width L of q: q in [2^(L-1), 2^L).
inline int bit_width(u64 q) { return 64 - __builtin_clzll(q); }

/// The modulus vectors of one call.
struct Mod52 {
  __m512i q, two_q, neg_q, mask52;
};
inline Mod52 make_mod(u64 q) {
  return {bcast(q), bcast(2 * q), bcast(0 - q), bcast((u64{1} << 52) - 1)};
}

/// A twiddle and its 52-bit Shoup companion.
struct Tw52 {
  __m512i w, wp;
};
inline Tw52 make_tw52(__m512i w, __m512i w_shoup) {
  return {w, _mm512_srli_epi64(w_shoup, 12)};
}

/// y * w mod q in [0, 2q) for y < 2^52. The low product takes -q's low 52
/// bits, 2^52 - q, so the masked sum is y*w - q_hat*q mod 2^52.
inline __m512i shoup52(__m512i y, const Tw52& tw, const Mod52& m) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i q_hat = _mm512_madd52hi_epu64(zero, y, tw.wp);
  const __m512i yw = _mm512_madd52lo_epu64(zero, y, tw.w);
  return _mm512_and_si512(_mm512_madd52lo_epu64(yw, q_hat, m.neg_q), m.mask52);
}

/// The Barrett-52 constants of q: mu = floor(2^(51+L) / q) and the shift
/// L - 1.
struct Barrett52 {
  Mod52 m;
  __m512i mu, shift;
};
inline Barrett52 make_barrett(u64 q, u64 mu) {
  return {make_mod(q), bcast(mu), bcast(static_cast<u64>(bit_width(q) - 1))};
}

/// x mod q for x < 2^(L+51), from c1 = floor(x / 2^(L-1)) and any x_lo
/// congruent to x mod 2^52.
inline __m512i barrett52(__m512i x_lo, __m512i c1, const Barrett52& b) {
  const __m512i q_hat = _mm512_madd52hi_epu64(_mm512_setzero_si512(), c1, b.mu);
  const __m512i r =
      _mm512_and_si512(_mm512_madd52lo_epu64(x_lo, q_hat, b.m.neg_q), b.m.mask52);
  return csub(csub(r, b.m.q), b.m.q);
}

/// One vector of butterflies, the scalar tier's formulas. Forward: x/y in
/// < 4q, out < 4q. Inverse: x/y in < 2q, out < 2q.
template <bool Fwd>
inline void bfly(__m512i& x, __m512i& y, const Tw52& tw, const Mod52& m) {
  if constexpr (Fwd) {
    const __m512i xx = csub(x, m.two_q);
    const __m512i v = shoup52(y, tw, m);
    x = _mm512_add_epi64(xx, v);
    y = _mm512_sub_epi64(_mm512_add_epi64(xx, m.two_q), v);
  } else {
    const __m512i xx = x;
    const __m512i yy = y;
    x = csub(_mm512_add_epi64(xx, yy), m.two_q);
    y = shoup52(_mm512_sub_epi64(_mm512_add_epi64(xx, m.two_q), yy), tw, m);
  }
}

/// One stage over `blocks` blocks of 2t with twiddles w[0, blocks), the
/// layouts of the AVX-512 stage kernel: t >= 8 runs each block with one
/// broadcast twiddle, two vectors per step; t = 4 / 2 / 1 regroup 2 / 4 / 8
/// blocks into an all-x and an all-y vector with per-lane twiddles. The
/// caller guarantees whole groups (n >= 16). t = 1 is the last forward
/// stage, so there the forward direction also folds its outputs from
/// [0, 4q) into [0, q), saving a pass over the row.
template <bool Fwd>
void stage(u64* a, std::size_t t, std::size_t blocks, const u64* w, const u64* w_shoup,
           const Mod52& m) {
  if (t >= kLanes) {
    for (std::size_t b = 0; b < blocks; ++b) {
      const Tw52 tw = make_tw52(bcast(w[b]), bcast(w_shoup[b]));
      u64* x = a + b * 2 * t;
      u64* y = x + t;
      std::size_t j = 0;
      for (; j + 2 * kLanes <= t; j += 2 * kLanes) {
        __m512i x0 = load(x + j), x1 = load(x + j + kLanes);
        __m512i y0 = load(y + j), y1 = load(y + j + kLanes);
        bfly<Fwd>(x0, y0, tw, m);
        bfly<Fwd>(x1, y1, tw, m);
        store(x + j, x0);
        store(x + j + kLanes, x1);
        store(y + j, y0);
        store(y + j + kLanes, y1);
      }
      if (j < t) {  // t == 8
        __m512i xx = load(x + j), yy = load(y + j);
        bfly<Fwd>(xx, yy, tw, m);
        store(x + j, xx);
        store(y + j, yy);
      }
    }
  } else if (t == 4) {
    const __m512i widx = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    for (std::size_t b = 0; b < blocks; b += 2) {
      u64* p = a + b * 8;
      const __m512i va = load(p), vb = load(p + 8);
      __m512i xx = _mm512_shuffle_i64x2(va, vb, 0x44);
      __m512i yy = _mm512_shuffle_i64x2(va, vb, 0xee);
      const __m512i wv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi128_si512(_mm_loadu_si128(reinterpret_cast<const __m128i*>(w + b))));
      const __m512i wsv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi128_si512(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(w_shoup + b))));
      bfly<Fwd>(xx, yy, make_tw52(wv, wsv), m);
      store(p, _mm512_shuffle_i64x2(xx, yy, 0x44));
      store(p + 8, _mm512_shuffle_i64x2(xx, yy, 0xee));
    }
  } else if (t == 2) {
    const __m512i xidx = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i yidx = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i aidx = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i bidx = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const __m512i widx = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    for (std::size_t b = 0; b < blocks; b += 4) {
      u64* p = a + b * 4;
      const __m512i va = load(p), vb = load(p + 8);
      __m512i xx = _mm512_permutex2var_epi64(va, xidx, vb);
      __m512i yy = _mm512_permutex2var_epi64(va, yidx, vb);
      const __m512i wv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi256_si512(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + b))));
      const __m512i wsv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi256_si512(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w_shoup + b))));
      bfly<Fwd>(xx, yy, make_tw52(wv, wsv), m);
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  } else {  // t == 1
    const __m512i xidx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i yidx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i aidx = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i bidx = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    for (std::size_t b = 0; b < blocks; b += 8) {
      u64* p = a + b * 2;
      const __m512i va = load(p), vb = load(p + 8);
      __m512i xx = _mm512_permutex2var_epi64(va, xidx, vb);
      __m512i yy = _mm512_permutex2var_epi64(va, yidx, vb);
      bfly<Fwd>(xx, yy, make_tw52(load(w + b), load(w_shoup + b)), m);
      if constexpr (Fwd) {
        xx = csub(csub(xx, m.two_q), m.q);
        yy = csub(csub(yy, m.two_q), m.q);
      }
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  }
}

/// a[i] * b[i] mod q by Barrett-52 on the 104-bit product hi * 2^52 + lo.
void mul_mod_ifma(u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                  u64 ratio_lo) {
  if (q >= kQLimit) return avx512().mul_mod(a, b, n, q, ratio_hi, ratio_lo);
  const int bits = bit_width(q);
  const u128 ratio = (static_cast<u128>(ratio_hi) << 64) | ratio_lo;
  const Barrett52 br = make_barrett(q, static_cast<u64>(ratio >> (77 - bits)));
  const __m512i up = bcast(static_cast<u64>(53 - bits));
  const __m512i zero = _mm512_setzero_si512();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j), bv = load(b + j);
    const __m512i lo = _mm512_madd52lo_epu64(zero, av, bv);
    const __m512i hi = _mm512_madd52hi_epu64(zero, av, bv);
    const __m512i c1 =
        _mm512_or_si512(_mm512_sllv_epi64(hi, up), _mm512_srlv_epi64(lo, br.shift));
    store(a + j, barrett52(lo, c1, br));
  }
  detail::scalar_kernels()->mul_mod(a + j, b + j, n - j, q, ratio_hi, ratio_lo);
}

/// a[i] * w mod q. The contract allows any 64-bit a[i]: a vector whose lanes
/// are all below 2^52 takes shoup52, any other the 64-bit Shoup product.
void mul_shoup_ifma(u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q) {
  if (q >= kQLimit) return avx512().mul_shoup(a, n, w, w_shoup, q);
  const Mod52 m = make_mod(q);
  const __m512i wv = bcast(w), wsv = bcast(w_shoup);
  const Tw52 tw = make_tw52(wv, wsv);
  const TwV tw64 = make_tw(wv, wsv);
  const __m512i above52 = bcast(~u64{0} << 52);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i x = load(a + j);
    const __m512i r = _mm512_test_epi64_mask(x, above52) == 0 ? shoup52(x, tw, m)
                                                              : shoup_lazy(x, tw64, m.q);
    store(a + j, csub(r, m.q));
  }
  detail::scalar_kernels()->mul_shoup(a + j, n - j, w, w_shoup, q);
}

/// The forward stages; the last one ends fully reduced.
void ntt_forward_ifma(u64* a, std::size_t n, const u64* w, const u64* w_shoup, u64 q) {
  if (q >= kQLimit || n < kMinN) return avx512().ntt_forward(a, n, w, w_shoup, q);
  const Mod52 m = make_mod(q);
  std::size_t t = n >> 1;
  for (std::size_t blocks = 1; blocks < n; blocks <<= 1, t >>= 1)
    stage<true>(a, t, blocks, w + blocks, w_shoup + blocks, m);
}

/// The inverse stages, then the multiply by 1/n.
void ntt_inverse_ifma(u64* a, std::size_t n, const u64* w, const u64* w_shoup, u64 n_inv,
                      u64 n_inv_shoup, u64 q) {
  if (q >= kQLimit || n < kMinN)
    return avx512().ntt_inverse(a, n, w, w_shoup, n_inv, n_inv_shoup, q);
  const Mod52 m = make_mod(q);
  std::size_t t = 1;
  for (std::size_t blocks = n >> 1; blocks >= 1; blocks >>= 1, t <<= 1)
    stage<false>(a, t, blocks, w + blocks, w_shoup + blocks, m);
  mul_shoup_ifma(a, n, n_inv, n_inv_shoup, q);
}

/// The wide path (q_src/2 >= q, x < q_src < 2^(L+51)): x mod q by
/// Barrett-52 with c1 = x >> (L - 1), then q_src mod q subtracted where
/// x > q_src/2. The compare-and-add path is memory-bound and stays the
/// AVX-512 one.
void lift_centered_ifma(u64* dst, const u64* src, std::size_t n, u64 q_src, u64 q) {
  const int bits = bit_width(q);
  if (q_src / 2 < q || q >= kQLimit || bit_width(q_src) > bits + 51)
    return avx512().lift_centered(dst, src, n, q_src, q);
  const Barrett52 br = make_barrett(q, static_cast<u64>((u128{1} << (51 + bits)) / q));
  const __m512i halfv = bcast(q_src / 2), qs = bcast(q_src % q);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i x = load(src + j);
    const __m512i r = barrett52(x, _mm512_srlv_epi64(x, br.shift), br);
    store(dst + j, lift_wide_sign(x, r, halfv, qs, br.m.q));
  }
  detail::scalar_kernels()->lift_centered(dst + j, src + j, n - j, q_src, q);
}

/// lo + hi * 2^52 as the 128-bit x_hi:x_lo, reduced by the 128-bit Barrett.
inline __m512i fold_reduce(__m512i lo, __m512i hi, __m512i qv, __m512i rhi, __m512i rlo) {
  const __m512i x_lo = _mm512_add_epi64(lo, _mm512_slli_epi64(hi, 52));
  __m512i x_hi = _mm512_srli_epi64(hi, 12);
  x_hi = _mm512_mask_add_epi64(x_hi, _mm512_cmplt_epu64_mask(x_lo, lo), x_hi, bcast(1));
  return barrett128(x_lo, x_hi, qv, rhi, rlo);
}

/// Four column sums per 8-lane chunk: the low and high 52-bit halves of d·k0
/// and of d·k1. For d, k < 2^50 each low half is below 2^52 and each high
/// half below 2^48, so below 2^12 digits the sums are exact; once per chunk
/// each pair folds into the exact 128-bit sum and is reduced.
void key_inner_product_ifma(u64* out0, u64* out1, const u64* const* d,
                            const u64* const* k0, const u64* const* k1, std::size_t count,
                            std::size_t n, u64 q, u64 ratio_hi, u64 ratio_lo) {
  if (q >= kQLimit || count >= kMaxDigits)
    return avx512().key_inner_product(out0, out1, d, k0, k1, count, n, q, ratio_hi, ratio_lo);
  const __m512i qv = bcast(q), rhi = bcast(ratio_hi), rlo = bcast(ratio_lo);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    __m512i lo0 = _mm512_setzero_si512(), hi0 = lo0, lo1 = lo0, hi1 = lo0;
    const bool prefetch = j + kAhead < n;
    for (std::size_t i = 0; i < count; ++i) {
      if (prefetch) prefetch_digit(d[i] + j, k0[i] + j, k1[i] + j);
      const __m512i x = load(d[i] + j), y0 = load(k0[i] + j), y1 = load(k1[i] + j);
      lo0 = _mm512_madd52lo_epu64(lo0, x, y0);
      hi0 = _mm512_madd52hi_epu64(hi0, x, y0);
      lo1 = _mm512_madd52lo_epu64(lo1, x, y1);
      hi1 = _mm512_madd52hi_epu64(hi1, x, y1);
    }
    store(out0 + j, fold_reduce(lo0, hi0, qv, rhi, rlo));
    store(out1 + j, fold_reduce(lo1, hi1, qv, rhi, rlo));
  }
  key_inner_product_rest(out0, out1, d, k0, k1, count, j, n, q, ratio_hi, ratio_lo);
}

Kernels make_table() {
  Kernels k = avx512();
  k.mul_mod = mul_mod_ifma;
  k.mul_shoup = mul_shoup_ifma;
  k.ntt_forward = ntt_forward_ifma;
  k.ntt_inverse = ntt_inverse_ifma;
  k.lift_centered = lift_centered_ifma;
  k.key_inner_product = key_inner_product_ifma;
  return k;
}

}  // namespace

namespace detail {
const Kernels* avx512ifma_kernels() {
  if (avx512_kernels() == nullptr) return nullptr;
  static const Kernels table = make_table();
  return &table;
}
}  // namespace detail

}  // namespace sp::fhe::simd

#else  // !(__AVX512F__ && __AVX512DQ__ && __AVX512IFMA__)

namespace sp::fhe::simd::detail {
const Kernels* avx512ifma_kernels() { return nullptr; }
}  // namespace sp::fhe::simd::detail

#endif
