#include "fhe/modarith.h"

#include "common/check.h"

namespace sp::fhe {

Modulus::Modulus(u64 q) : q_(q) {
  sp::check(q >= 2 && q < (1ULL << 62), "Modulus: q out of range");
  // floor(2^128 / q) computed by long division of 2^128 by q.
  // high word: floor(2^128/q) = (2^128 - 1)/q for non-power-of-two q is the
  // same as floor((2^128-1)/q) unless q divides 2^128 (impossible for odd q).
  const u128 numer_hi = (~static_cast<u128>(0)) / q;  // floor((2^128-1)/q)
  ratio_hi_ = static_cast<u64>(numer_hi >> 64);
  ratio_lo_ = static_cast<u64>(numer_hi);
}

u64 Modulus::reduce128(u128 x) const {
  return barrett_reduce(static_cast<u64>(x), static_cast<u64>(x >> 64), q_, ratio_hi_,
                        ratio_lo_);
}

u64 Modulus::pow(u64 a, u64 e) const {
  u64 base = a % q_;
  u64 result = 1;
  while (e) {
    if (e & 1) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

u64 Modulus::inv(u64 a) const {
  sp::check(a % q_ != 0, "Modulus::inv: zero has no inverse");
  return pow(a, q_ - 2);  // Fermat; q prime
}

u64 shoup_precompute(u64 w, u64 q) {
  return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

}  // namespace sp::fhe
