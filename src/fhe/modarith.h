#pragma once

#include <cstdint>

namespace sp::fhe {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// Barrett reduction of the 128-bit value x_hi:x_lo to [0, q), with
/// (ratio_hi, ratio_lo) = floor(2^128 / q): estimate floor(x / q) as
/// floor(x * ratio / 2^128), then correct.
inline u64 barrett_reduce(u64 x_lo, u64 x_hi, u64 q, u64 ratio_hi, u64 ratio_lo) {
  const u128 t1 = static_cast<u128>(x_lo) * ratio_hi;
  const u128 t2 = static_cast<u128>(x_hi) * ratio_lo;
  const u64 carry = static_cast<u64>((static_cast<u128>(x_lo) * ratio_lo) >> 64);
  const u128 mid = t1 + t2 + carry;
  const u64 est = x_hi * ratio_hi + static_cast<u64>(mid >> 64);
  u64 r = x_lo - est * q;  // wraparound ok; remainder < 3q
  while (r >= q) r -= q;
  return r;
}

/// Prime modulus (< 2^62) with precomputed Barrett constant for fast
/// reduction of 128-bit products. All residues handled by this class are
/// kept fully reduced in [0, q).
class Modulus {
 public:
  Modulus() = default;
  explicit Modulus(u64 q);

  u64 value() const { return q_; }

  // Barrett constant words, floor(2^128 / q) — consumed by barrett_reduce
  // and the SIMD multiply kernels.
  u64 ratio_hi() const { return ratio_hi_; }
  u64 ratio_lo() const { return ratio_lo_; }

  /// Barrett reduction of a 128-bit value to [0, q).
  u64 reduce128(u128 x) const;

  u64 add(u64 a, u64 b) const {
    u64 r = a + b;
    return r >= q_ ? r - q_ : r;
  }
  u64 sub(u64 a, u64 b) const { return a >= b ? a - b : a + q_ - b; }
  u64 neg(u64 a) const { return a == 0 ? 0 : q_ - a; }
  u64 mul(u64 a, u64 b) const { return reduce128(static_cast<u128>(a) * b); }

  /// a^e mod q by square-and-multiply.
  u64 pow(u64 a, u64 e) const;

  /// Multiplicative inverse (q prime); throws if a == 0.
  u64 inv(u64 a) const;

  /// Reduces a signed 64-bit value into [0, q).
  u64 from_signed(std::int64_t v) const {
    std::int64_t r = v % static_cast<std::int64_t>(q_);
    if (r < 0) r += static_cast<std::int64_t>(q_);
    return static_cast<u64>(r);
  }

  /// Centered representative in (-q/2, q/2].
  std::int64_t to_signed(u64 v) const {
    return v > q_ / 2 ? static_cast<std::int64_t>(v) - static_cast<std::int64_t>(q_)
                      : static_cast<std::int64_t>(v);
  }

 private:
  u64 q_ = 0;
  u64 ratio_hi_ = 0, ratio_lo_ = 0;  // floor(2^128 / q)
};

/// Shoup precomputation for repeated multiplication by a fixed operand w:
/// w_shoup = floor(w * 2^64 / q).
u64 shoup_precompute(u64 w, u64 q);

/// Shoup modular multiplication with lazy reduction: returns x * w mod q in
/// [0, 2q). Requires w < q; x may be any 64-bit value.
inline u64 mul_shoup_lazy(u64 x, u64 w, u64 w_shoup, u64 q) {
  const u64 q_hat = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
  return x * w - q_hat * q;  // wraparound arithmetic is intentional
}

/// Fully-reduced Shoup multiplication.
inline u64 mul_shoup(u64 x, u64 w, u64 w_shoup, u64 q) {
  u64 r = mul_shoup_lazy(x, w, w_shoup, q);
  return r >= q ? r - q : r;
}

}  // namespace sp::fhe
