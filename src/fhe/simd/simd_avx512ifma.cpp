// AVX-512 IFMA kernel tier: the AVX-512 table with whole-row NTTs built on
// the 52-bit multiply-accumulate instructions (vpmadd52luq / vpmadd52huq)
// for every prime q < 2^50 and ring size n >= 16. Any other transform, and
// every other entry, is the AVX-512 tier's.
//
// Each Harvey butterfly keeps the scalar formulas; only the Shoup product
// changes. With w' = floor(w * 2^52 / q) = w_shoup >> 12 (exact, since
// floor(floor(x) / m) = floor(x / m)) and y < 2^52,
//   t = (y*w - floor(y*w' / 2^52) * q) mod 2^52,
// which lies in [0, 2q) like the 64-bit Shoup product and is congruent to
// it, though the two quotient estimates can differ by one. 4q < 2^52 keeps
// every lazy value exact in 52 bits. The transforms end fully reduced, and
// a transform is an exact linear map mod q, so each output row is the
// scalar tier's bit for bit; only the lazy intermediates may differ, which
// is why the butterfly and stage entries stay the AVX-512 ones.
//
// Compiled with -mavx512f -mavx512dq -mavx512ifma (per-file, no global
// -march); degrades to a null table when the compiler cannot target IFMA.
#include "fhe/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include <immintrin.h>

namespace sp::fhe::simd {
namespace {

constexpr std::size_t kLanes = 8;
/// Largest modulus bound the 52-bit products serve: 4q < 2^52.
constexpr u64 kQLimit = u64{1} << 50;
/// Smallest ring whose every stage fills whole vector groups (8 blocks at
/// t = 1), so no scalar remainder runs.
constexpr std::size_t kMinN = 16;

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }
inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }
inline __m512i bcast(u64 v) { return _mm512_set1_epi64(static_cast<long long>(v)); }

/// r >= c ? r - c : r (the subtract wraps when r < c).
inline __m512i csub(__m512i r, __m512i c) {
  return _mm512_min_epu64(r, _mm512_sub_epi64(r, c));
}

/// The modulus vectors of one transform.
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
inline Tw52 make_tw(__m512i w, __m512i w_shoup) {
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
      const Tw52 tw = make_tw(bcast(w[b]), bcast(w_shoup[b]));
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
      bfly<Fwd>(xx, yy, make_tw(wv, wsv), m);
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
      bfly<Fwd>(xx, yy, make_tw(wv, wsv), m);
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
      bfly<Fwd>(xx, yy, make_tw(load(w + b), load(w_shoup + b)), m);
      if constexpr (Fwd) {
        xx = csub(csub(xx, m.two_q), m.q);
        yy = csub(csub(yy, m.two_q), m.q);
      }
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  }
}

/// The forward stages; the last one ends fully reduced.
void ntt_forward_ifma(u64* a, std::size_t n, const u64* w, const u64* w_shoup, u64 q) {
  if (q >= kQLimit || n < kMinN)
    return detail::avx512_kernels()->ntt_forward(a, n, w, w_shoup, q);
  const Mod52 m = make_mod(q);
  std::size_t t = n >> 1;
  for (std::size_t blocks = 1; blocks < n; blocks <<= 1, t >>= 1)
    stage<true>(a, t, blocks, w + blocks, w_shoup + blocks, m);
}

/// The inverse stages, then a 52-bit Shoup multiply by 1/n and one
/// conditional subtraction.
void ntt_inverse_ifma(u64* a, std::size_t n, const u64* w, const u64* w_shoup, u64 n_inv,
                      u64 n_inv_shoup, u64 q) {
  if (q >= kQLimit || n < kMinN)
    return detail::avx512_kernels()->ntt_inverse(a, n, w, w_shoup, n_inv, n_inv_shoup, q);
  const Mod52 m = make_mod(q);
  std::size_t t = 1;
  for (std::size_t blocks = n >> 1; blocks >= 1; blocks >>= 1, t <<= 1)
    stage<false>(a, t, blocks, w + blocks, w_shoup + blocks, m);
  const Tw52 scale = make_tw(bcast(n_inv), bcast(n_inv_shoup));
  for (std::size_t j = 0; j < n; j += kLanes)
    store(a + j, csub(shoup52(load(a + j), scale, m), m.q));
}

Kernels make_table() {
  Kernels k = *detail::avx512_kernels();
  k.ntt_forward = ntt_forward_ifma;
  k.ntt_inverse = ntt_inverse_ifma;
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
