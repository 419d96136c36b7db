// Scalar kernel tier: the reference implementations every vector tier must
// match bit for bit. These are the exact loop bodies the pre-SIMD backend
// ran (Harvey lazy butterflies, Shoup constant multiplies, the Barrett
// reduction Modulus::reduce128 shares), factored into the kernel table
// shape. The vector tiers also call this table for every element that does
// not fill a whole vector.
#include "fhe/simd/ntt_loop.h"
#include "fhe/simd/simd.h"

namespace sp::fhe::simd {
namespace {

void add_mod_scalar(u64* dst, const u64* a, const u64* b, std::size_t n, u64 q) {
  for (std::size_t j = 0; j < n; ++j) {
    const u64 r = a[j] + b[j];
    dst[j] = r >= q ? r - q : r;
  }
}

void sub_mod_scalar(u64* dst, const u64* a, const u64* b, std::size_t n, u64 q) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void neg_mod_scalar(u64* a, std::size_t n, u64 q) {
  for (std::size_t j = 0; j < n; ++j) a[j] = a[j] == 0 ? 0 : q - a[j];
}

void mul_mod_scalar(u64* dst, const u64* a, const u64* b, std::size_t n, u64 q,
                    u64 ratio_hi, u64 ratio_lo) {
  for (std::size_t j = 0; j < n; ++j) {
    const u128 x = static_cast<u128>(a[j]) * b[j];
    dst[j] = barrett_reduce(static_cast<u64>(x), static_cast<u64>(x >> 64), q, ratio_hi,
                            ratio_lo);
  }
}

void mul_shoup_scalar(u64* dst, const u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = mul_shoup(a[j], w, w_shoup, q);
}

void fwd_butterfly_scalar(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                          u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < len; ++j) {
    u64 xx = x[j];
    if (xx >= two_q) xx -= two_q;
    const u64 v = mul_shoup_lazy(y[j], w, w_shoup, q);  // < 2q
    x[j] = xx + v;
    y[j] = xx + two_q - v;
  }
}

void inv_butterfly_scalar(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                          u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < len; ++j) {
    const u64 xx = x[j];
    const u64 yy = y[j];
    u64 u = xx + yy;
    if (u >= two_q) u -= two_q;
    x[j] = u;
    y[j] = mul_shoup_lazy(xx + two_q - yy, w, w_shoup, q);  // < 2q
  }
}

void fwd_stage_scalar(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                      const u64* w_shoup, u64 q) {
  for (std::size_t b = 0; b < blocks; ++b)
    fwd_butterfly_scalar(a + b * 2 * t, a + b * 2 * t + t, t, w[b], w_shoup[b], q);
}

void inv_stage_scalar(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                      const u64* w_shoup, u64 q) {
  for (std::size_t b = 0; b < blocks; ++b)
    inv_butterfly_scalar(a + b * 2 * t, a + b * 2 * t + t, t, w[b], w_shoup[b], q);
}

void reduce_4q_scalar(u64* a, std::size_t n, u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < n; ++j) {
    u64 x = a[j];
    if (x >= two_q) x -= two_q;
    if (x >= q) x -= q;
    a[j] = x;
  }
}

void lift_centered_scalar(u64* dst, const u64* src, std::size_t n, u64 q_src, u64 q) {
  const u64 half = q_src / 2;
  if (half < q) {
    // x <= half is already below q; x - q_src lies in (-q, 0), so adding q
    // once (x + (q - q_src), wrapping) lands in [0, q).
    const u64 shift = q - q_src;
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[j] > half ? src[j] + shift : src[j];
    return;
  }
  const u64 one_shoup = shoup_precompute(1, q);
  const u64 qs = q_src % q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 x = src[j];
    const u64 r = mul_shoup(x, 1, one_shoup, q);
    dst[j] = x > half ? (r >= qs ? r - qs : r + q - qs) : r;
  }
}

void key_inner_product_scalar(u64* out0, u64* out1, const u64* const* d,
                              const u64* const* k0, const u64* const* k1,
                              std::size_t count, std::size_t n, u64 q, u64 ratio_hi,
                              u64 ratio_lo) {
  // u128 accumulators over a stack tile of outputs, digits outer.
  constexpr std::size_t kTile = 256;
  u128 acc0[kTile], acc1[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = n - base < kTile ? n - base : kTile;
    for (std::size_t j = 0; j < len; ++j) acc0[j] = acc1[j] = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const u64* dg = d[i] + base;
      const u64* a = k0[i] + base;
      const u64* b = k1[i] + base;
      for (std::size_t j = 0; j < len; ++j) {
        acc0[j] += static_cast<u128>(dg[j]) * a[j];
        acc1[j] += static_cast<u128>(dg[j]) * b[j];
      }
    }
    for (std::size_t j = 0; j < len; ++j) {
      out0[base + j] = barrett_reduce(static_cast<u64>(acc0[j]),
                                      static_cast<u64>(acc0[j] >> 64), q, ratio_hi, ratio_lo);
      out1[base + j] = barrett_reduce(static_cast<u64>(acc1[j]),
                                      static_cast<u64>(acc1[j] >> 64), q, ratio_hi, ratio_lo);
    }
  }
}

const Kernels kScalarKernels = {
    add_mod_scalar,  sub_mod_scalar,      neg_mod_scalar,      mul_mod_scalar,
    mul_shoup_scalar, fwd_butterfly_scalar, inv_butterfly_scalar, fwd_stage_scalar,
    inv_stage_scalar,
    detail::ntt_forward_by_stages<fwd_stage_scalar, reduce_4q_scalar>,
    detail::ntt_inverse_by_stages<inv_stage_scalar, mul_shoup_scalar>,
    reduce_4q_scalar,    lift_centered_scalar, key_inner_product_scalar,
};

}  // namespace

namespace detail {
const Kernels* scalar_kernels() { return &kScalarKernels; }
}  // namespace detail

}  // namespace sp::fhe::simd
