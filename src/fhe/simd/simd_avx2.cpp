// AVX2 kernel tier: 4 x u64 lanes. AVX2 has no 64x64 multiply, so the high
// and low halves of every 64-bit product are assembled from _mm256_mul_epu32
// (32x32 -> 64) partial products; unsigned 64-bit compares are emulated by
// biasing into signed range. Every kernel computes exactly the scalar
// formulas (same lazy bounds, same Barrett correction count), so results are
// bit-identical to the scalar tier. Every kernel runs whole vectors only and
// hands the remaining elements (or blocks) to the scalar tier.
//
// The hot paths precompute the high 32-bit halves of loop-invariant operands
// (twiddle, Shoup companion, modulus) once per block/stage and share the
// variable operand's split across the Shoup multiply's three products, which
// removes a third of the shift traffic from the butterfly.
//
// One butterfly loop per direction serves both butterfly kernels and the
// wide stages. The NTT stage kernels keep every stage vectorized: wide
// stages (t >= 4) run that loop once per block with one broadcast twiddle,
// the t = 2 stage pairs two blocks per vector via 128-bit permutes, and the
// t = 1 stage processes four blocks per vector via quadword unpacks with
// per-lane twiddles. The shuffles only regroup independent butterflies, so
// the arithmetic — and the results — are unchanged.
//
// This file is compiled with -mavx2 (per-file, no global -march); when the
// compiler cannot target AVX2 the TU degrades to a null table and dispatch
// never selects the tier.
#include "fhe/simd/ntt_loop.h"
#include "fhe/simd/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace sp::fhe::simd {
namespace {

constexpr std::size_t kLanes = 4;

inline __m256i load(const u64* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void store(u64* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

inline __m256i hi32(__m256i v) { return _mm256_srli_epi64(v, 32); }

/// Low 64 bits of the lanewise 64x64 product, both operands pre-split.
inline __m256i mul64_lo_pre(__m256i x, __m256i x_hi, __m256i y, __m256i y_hi) {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(x, y_hi), _mm256_mul_epu32(x_hi, y));
  return _mm256_add_epi64(_mm256_mul_epu32(x, y),
                          _mm256_slli_epi64(cross, 32));
}

/// High 64 bits of the lanewise 64x64 product, both operands pre-split.
inline __m256i mul64_hi_pre(__m256i x, __m256i x_hi, __m256i y, __m256i y_hi) {
  const __m256i m32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i ll = _mm256_mul_epu32(x, y);
  const __m256i lh = _mm256_mul_epu32(x, y_hi);
  const __m256i hl = _mm256_mul_epu32(x_hi, y);
  const __m256i hh = _mm256_mul_epu32(x_hi, y_hi);
  // cross < 2^34: (ll >> 32) + low32(lh) + low32(hl) cannot overflow.
  const __m256i cross = _mm256_add_epi64(
      hi32(ll),
      _mm256_add_epi64(_mm256_and_si256(lh, m32), _mm256_and_si256(hl, m32)));
  return _mm256_add_epi64(
      hh, _mm256_add_epi64(hi32(lh), _mm256_add_epi64(hi32(hl), hi32(cross))));
}

/// All-ones lanes where a < b (unsigned).
inline __m256i lt_u64(__m256i a, __m256i b) {
  const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign), _mm256_xor_si256(a, sign));
}

/// r >= c ? r - c : r (conditional subtract).
inline __m256i csub(__m256i r, __m256i c) {
  const __m256i keep = lt_u64(r, c);  // r < c: keep r
  return _mm256_blendv_epi8(_mm256_sub_epi64(r, c), r, keep);
}

/// Pre-split twiddle operand (w, w_shoup and their high halves).
struct TwV {
  __m256i w, w_hi, ws, ws_hi;
};
inline TwV make_tw(__m256i wv, __m256i wsv) {
  return {wv, hi32(wv), wsv, hi32(wsv)};
}

/// Pre-split modulus context for one stage/kernel invocation.
struct ModV {
  __m256i q, q_hi, two_q;
};
inline ModV make_mod(u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  return {qv, hi32(qv),
          _mm256_set1_epi64x(static_cast<long long>(2 * q))};
}

/// x * w mod- q in [0, 2q) via the Shoup companion (lazy; any 64-bit x).
/// Exactly mul_shoup_lazy per lane; the shared x split only reschedules it.
inline __m256i shoup_lazy(__m256i x, const TwV& tw, const ModV& m) {
  const __m256i x_hi = hi32(x);
  const __m256i q_hat = mul64_hi_pre(x, x_hi, tw.ws, tw.ws_hi);
  return _mm256_sub_epi64(
      mul64_lo_pre(x, x_hi, tw.w, tw.w_hi),
      mul64_lo_pre(q_hat, hi32(q_hat), m.q, m.q_hi));
}

/// One vector of butterflies. Forward (Cooley-Tukey): x/y in < 4q, out < 4q.
/// Inverse (Gentleman-Sande): x/y in < 2q, out < 2q.
template <bool Fwd>
inline void bfly(__m256i& x, __m256i& y, const TwV& tw, const ModV& m) {
  if constexpr (Fwd) {
    const __m256i xx = csub(x, m.two_q);
    const __m256i v = shoup_lazy(y, tw, m);
    x = _mm256_add_epi64(xx, v);
    y = _mm256_sub_epi64(_mm256_add_epi64(xx, m.two_q), v);
  } else {
    const __m256i xx = x;
    const __m256i yy = y;
    x = csub(_mm256_add_epi64(xx, yy), m.two_q);
    y = shoup_lazy(_mm256_sub_epi64(_mm256_add_epi64(xx, m.two_q), yy), tw, m);
  }
}

/// Butterflies over x[0, len) and y[0, len) with one broadcast twiddle: two
/// vectors per step, then one, then the scalar tier for the rest. The stage
/// kernel calls this once per block with a ModV built once per stage.
template <bool Fwd>
inline void bfly_loop(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup, u64 q,
                      const ModV& m) {
  const TwV tw = make_tw(_mm256_set1_epi64x(static_cast<long long>(w)),
                         _mm256_set1_epi64x(static_cast<long long>(w_shoup)));
  std::size_t j = 0;
  for (; j + 2 * kLanes <= len; j += 2 * kLanes) {
    __m256i x0 = load(x + j), x1 = load(x + j + kLanes);
    __m256i y0 = load(y + j), y1 = load(y + j + kLanes);
    bfly<Fwd>(x0, y0, tw, m);
    bfly<Fwd>(x1, y1, tw, m);
    store(x + j, x0);
    store(x + j + kLanes, x1);
    store(y + j, y0);
    store(y + j + kLanes, y1);
  }
  if (j + kLanes <= len) {
    __m256i xx = load(x + j);
    __m256i yy = load(y + j);
    bfly<Fwd>(xx, yy, tw, m);
    store(x + j, xx);
    store(y + j, yy);
    j += kLanes;
  }
  if (j < len) {  // never on ring rows, so no per-block call in the stages
    const Kernels* s = detail::scalar_kernels();
    (Fwd ? s->fwd_butterfly : s->inv_butterfly)(x + j, y + j, len - j, w, w_shoup, q);
  }
}

void add_mod_avx2(u64* dst, const u64* a, const u64* b, std::size_t n, u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(dst + j, csub(_mm256_add_epi64(load(a + j), load(b + j)), qv));
  detail::scalar_kernels()->add_mod(dst + j, a + j, b + j, n - j, q);
}

void sub_mod_avx2(u64* dst, const u64* a, const u64* b, std::size_t n, u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m256i av = load(a + j);
    const __m256i bv = load(b + j);
    const __m256i borrow = lt_u64(av, bv);  // a < b: add q back
    store(dst + j, _mm256_add_epi64(_mm256_sub_epi64(av, bv),
                                    _mm256_and_si256(qv, borrow)));
  }
  detail::scalar_kernels()->sub_mod(dst + j, a + j, b + j, n - j, q);
}

void neg_mod_avx2(u64* a, std::size_t n, u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m256i av = load(a + j);
    const __m256i is_zero = _mm256_cmpeq_epi64(av, zero);
    store(a + j, _mm256_andnot_si256(is_zero, _mm256_sub_epi64(qv, av)));
  }
  detail::scalar_kernels()->neg_mod(a + j, n - j, q);
}

/// Barrett mul_mod and Shoup mul_shoup delegate to the scalar routines: the
/// scalar versions do one mulx per 64x64 product, while the AVX2 emulation
/// needs 3-4 vpmuludq plus shift/add glue per product, and on elementwise
/// kernels (one modmul of useful work per element) that consistently
/// measures *slower* than scalar — unlike the butterflies, where the
/// surrounding lazy adds/subs amortize the emulation. Delegation keeps the
/// tier table the best-known implementation per kernel; results are
/// trivially bit-identical.
void mul_mod_avx2(u64* dst, const u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                  u64 ratio_lo) {
  detail::scalar_kernels()->mul_mod(dst, a, b, n, q, ratio_hi, ratio_lo);
}

/// The key inner product delegates too. A 4-lane body with the AVX-512
/// tier's carry-free three-column sums and a scalar Barrett per lane measured
/// 0.85x / 1.08x / 1.39x the scalar tier at 3 / 11 / 19 digits (N = 8192, on
/// an AVX-512 Xeon VM): its 32x32 products lose to mulx on short sums.
void key_inner_product_avx2(u64* out0, u64* out1, const u64* const* d,
                            const u64* const* k0, const u64* const* k1,
                            std::size_t count, std::size_t n, u64 q, u64 ratio_hi,
                            u64 ratio_lo) {
  detail::scalar_kernels()->key_inner_product(out0, out1, d, k0, k1, count, n, q, ratio_hi,
                                              ratio_lo);
}

void mul_shoup_avx2(u64* dst, const u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q) {
  detail::scalar_kernels()->mul_shoup(dst, a, n, w, w_shoup, q);
}

template <bool Fwd>
void butterfly_avx2(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup, u64 q) {
  bfly_loop<Fwd>(x, y, len, w, w_shoup, q, make_mod(q));
}

/// Stage worker shared by the forward/inverse stage kernels; Fwd selects the
/// butterfly. Keeps the whole block loop in one frame so per-block work is
/// just the twiddle broadcast/split, and vectorizes the t = 2 / t = 1
/// layouts via permutes so no power-of-two stage drops to scalar.
template <bool Fwd>
void stage_avx2(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                const u64* w_shoup, u64 q) {
  const ModV m = make_mod(q);

  if (t >= kLanes) {
    for (std::size_t b = 0; b < blocks; ++b)
      bfly_loop<Fwd>(a + b * 2 * t, a + b * 2 * t + t, t, w[b], w_shoup[b], q, m);
    return;
  }

  std::size_t b = 0;
  if (t == 2) {
    // Two blocks per vector pair: block = (x0 x1 y0 y1), so the 128-bit
    // halves of two consecutive blocks regroup into an all-x and an all-y
    // vector; twiddles expand as (w0 w0 w1 w1).
    for (; b + 2 <= blocks; b += 2) {
      u64* p = a + b * 4;
      const __m256i va = load(p);
      const __m256i vb = load(p + 4);
      __m256i xx = _mm256_permute2x128_si256(va, vb, 0x20);
      __m256i yy = _mm256_permute2x128_si256(va, vb, 0x31);
      const TwV tw = make_tw(
          _mm256_permute4x64_epi64(
              _mm256_castsi128_si256(
                  _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + b))),
              0x50),
          _mm256_permute4x64_epi64(
              _mm256_castsi128_si256(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(w_shoup + b))),
              0x50));
      bfly<Fwd>(xx, yy, tw, m);
      store(p, _mm256_permute2x128_si256(xx, yy, 0x20));
      store(p + 4, _mm256_permute2x128_si256(xx, yy, 0x31));
    }
  } else if (t == 1) {
    // Four blocks per vector pair: blocks are (x y) pairs, so quadword
    // unpacks split/merge x and y lanes; per-lane twiddles follow the
    // unpack order (b, b+2, b+1, b+3).
    for (; b + 4 <= blocks; b += 4) {
      u64* p = a + b * 2;
      const __m256i va = load(p);
      const __m256i vb = load(p + 4);
      __m256i xx = _mm256_unpacklo_epi64(va, vb);
      __m256i yy = _mm256_unpackhi_epi64(va, vb);
      const TwV tw =
          make_tw(_mm256_permute4x64_epi64(load(w + b), 0xd8),
                  _mm256_permute4x64_epi64(load(w_shoup + b), 0xd8));
      bfly<Fwd>(xx, yy, tw, m);
      store(p, _mm256_unpacklo_epi64(xx, yy));
      store(p + 4, _mm256_unpackhi_epi64(xx, yy));
    }
  }
  // Blocks no vector group covers (non-power-of-two t or tiny rings): the
  // scalar tier.
  const Kernels* s = detail::scalar_kernels();
  (Fwd ? s->fwd_stage : s->inv_stage)(a + b * 2 * t, t, blocks - b, w + b, w_shoup + b, q);
}

void reduce_4q_avx2(u64* a, std::size_t n, u64 q) {
  const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
  const __m256i two_qv = _mm256_set1_epi64x(static_cast<long long>(2 * q));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(csub(load(a + j), two_qv), qv));
  detail::scalar_kernels()->reduce_4q(a + j, n - j, q);
}

void lift_centered_avx2(u64* dst, const u64* src, std::size_t n, u64 q_src, u64 q) {
  const u64 half = q_src / 2;
  const __m256i halfv = _mm256_set1_epi64x(static_cast<long long>(half));
  std::size_t j = 0;
  if (half < q) {
    const __m256i shift = _mm256_set1_epi64x(static_cast<long long>(q - q_src));
    for (; j + kLanes <= n; j += kLanes) {
      const __m256i x = load(src + j);
      const __m256i upper = lt_u64(halfv, x);  // x > half
      store(dst + j, _mm256_add_epi64(x, _mm256_and_si256(upper, shift)));
    }
  } else {
    // mul_shoup_lazy(x, 1, one_shoup, q) = x - q_hat * q, then one csub.
    // Unlike mul_shoup, this stays vector: the scalar lift's per-element
    // select measured ~3x slower than the emulated multiplies here.
    const ModV m = make_mod(q);
    const __m256i ws = _mm256_set1_epi64x(static_cast<long long>(shoup_precompute(1, q)));
    const __m256i ws_hi = hi32(ws);
    const __m256i qs = _mm256_set1_epi64x(static_cast<long long>(q_src % q));
    for (; j + kLanes <= n; j += kLanes) {
      const __m256i x = load(src + j);
      const __m256i q_hat = mul64_hi_pre(x, hi32(x), ws, ws_hi);
      const __m256i r = csub(
          _mm256_sub_epi64(x, mul64_lo_pre(q_hat, hi32(q_hat), m.q, m.q_hi)), m.q);
      const __m256i borrow = lt_u64(r, qs);
      const __m256i shifted =
          _mm256_add_epi64(_mm256_sub_epi64(r, qs), _mm256_and_si256(m.q, borrow));
      store(dst + j, _mm256_blendv_epi8(r, shifted, lt_u64(halfv, x)));
    }
  }
  detail::scalar_kernels()->lift_centered(dst + j, src + j, n - j, q_src, q);
}

const Kernels kAvx2Kernels = {
    add_mod_avx2,          sub_mod_avx2,       neg_mod_avx2,
    mul_mod_avx2,          mul_shoup_avx2,     butterfly_avx2<true>,
    butterfly_avx2<false>, stage_avx2<true>,   stage_avx2<false>,
    detail::ntt_forward_by_stages<stage_avx2<true>, reduce_4q_avx2>,
    detail::ntt_inverse_by_stages<stage_avx2<false>, mul_shoup_avx2>,
    reduce_4q_avx2,        lift_centered_avx2, key_inner_product_avx2,
};

}  // namespace

namespace detail {
const Kernels* avx2_kernels() { return &kAvx2Kernels; }
}  // namespace detail

}  // namespace sp::fhe::simd

#else  // !__AVX2__

namespace sp::fhe::simd::detail {
const Kernels* avx2_kernels() { return nullptr; }
}  // namespace sp::fhe::simd::detail

#endif
