#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"

namespace {

using namespace sp::fhe;

/// Schoolbook negacyclic product (X^n = -1), the O(n^2) reference.
std::vector<u64> naive_negacyclic(const std::vector<u64>& a, const std::vector<u64>& b,
                                  const Modulus& m) {
  const std::size_t n = a.size();
  std::vector<u64> out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = m.mul(a[i], b[j]);
      const std::size_t k = i + j;
      if (k < n)
        out[k] = m.add(out[k], prod);
      else
        out[k - n] = m.sub(out[k - n], prod);
    }
  }
  return out;
}

/// Forward/inverse round trip across the degenerate (n = 1, 2) and the
/// CKKS-sized (1024, 4096) rings.
class NttEdgeSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttEdgeSize, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const u64 q = generate_ntt_primes(45, 1, n)[0];
  NttTables ntt(n, Modulus(q));
  sp::Rng rng(1234 + n);
  std::vector<u64> a(n), orig;
  for (auto& v : a) v = rng.next_u64() % q;
  orig = a;
  ntt.forward(a.data());
  ntt.inverse(a.data());
  EXPECT_EQ(a, orig);
}

TEST_P(NttEdgeSize, NegacyclicConvolutionMatchesSchoolbook) {
  const std::size_t n = GetParam();
  const u64 q = generate_ntt_primes(30, 1, n)[0];
  const Modulus m(q);
  NttTables ntt(n, m);
  sp::Rng rng(99 + n);
  std::vector<u64> a(n), b(n);
  for (auto& v : a) v = rng.next_u64() % q;
  for (auto& v : b) v = rng.next_u64() % q;
  const std::vector<u64> expect = naive_negacyclic(a, b, m);

  ntt.forward(a.data());
  ntt.forward(b.data());
  for (std::size_t i = 0; i < n; ++i) a[i] = m.mul(a[i], b[i]);
  ntt.inverse(a.data());
  EXPECT_EQ(a, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttEdgeSize, ::testing::Values(1, 2, 1024, 4096));

TEST(NttEdge, SizeOneIsScalarRing) {
  // Z[X]/(X + 1) with n = 1: NTT is the identity and the negacyclic product
  // is plain modular multiplication.
  const u64 q = generate_ntt_primes(30, 1, 1)[0];
  NttTables ntt(1, Modulus(q));
  u64 a = 12345 % q;
  const u64 orig = a;
  ntt.forward(&a);
  EXPECT_EQ(a, orig);
  ntt.inverse(&a);
  EXPECT_EQ(a, orig);
}

TEST(NttEdge, RejectsNonPowerOfTwo) {
  const u64 q = generate_ntt_primes(30, 1, 8)[0];
  EXPECT_THROW(NttTables(3, Modulus(q)), sp::Error);
  EXPECT_THROW(NttTables(0, Modulus(q)), sp::Error);
  EXPECT_THROW(NttTables(12, Modulus(q)), sp::Error);
}

TEST(NttEdge, BatchRejectsNullAndMixedRingJobs) {
  const u64 q = generate_ntt_primes(30, 1, 16)[0];
  const NttTables small(8, Modulus(q)), large(16, Modulus(q));
  std::vector<u64> a(16, 1), b(16, 2);
  const std::vector<std::vector<NttJob>> bad = {
      {{a.data(), nullptr}, {b.data(), &small}},  // null first tables
      {{a.data(), &small}, {nullptr, &small}},    // null data
      {{a.data(), &small}, {b.data(), &large}},   // mixed ring sizes
  };
  for (auto run : {ntt_forward_batch, ntt_inverse_batch}) {
    for (const std::vector<NttJob>& jobs : bad) {
      bool rejected = false;
      try {
        run(jobs);
      } catch (const sp::Error& e) {
        rejected = true;
        EXPECT_NE(std::string(e.what()).find("null job or mixed ring sizes"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_TRUE(rejected);
    }
  }
}

/// Shoup lazy reduction stays within [0, 2q) for arbitrary 64-bit x across
/// modulus widths, and the fully-reduced variant lands in [0, q).
class ShoupWidth : public ::testing::TestWithParam<int> {};

TEST_P(ShoupWidth, LazyAndExactBounds) {
  const int bits = GetParam();
  const u64 q = generate_ntt_primes(bits, 1, 64)[0];
  sp::Rng rng(static_cast<std::uint64_t>(bits));
  for (int i = 0; i < 2000; ++i) {
    const u64 w = rng.next_u64() % q;
    const u64 ws = shoup_precompute(w, q);
    const u64 x = rng.next_u64();
    const u64 lazy = mul_shoup_lazy(x, w, ws, q);
    const u64 exact = mul_shoup(x, w, ws, q);
    const u64 ref = static_cast<u64>(static_cast<u128>(x) * w % q);
    EXPECT_LT(lazy, 2 * q);
    EXPECT_EQ(lazy % q, ref);
    EXPECT_LT(exact, q);
    EXPECT_EQ(exact, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ShoupWidth, ::testing::Values(20, 30, 45, 59, 61));

TEST(ModArithEdge, ShoupExtremeOperands) {
  const u64 q = generate_ntt_primes(59, 1, 64)[0];
  for (u64 w : std::vector<u64>{0, 1, q - 1}) {
    const u64 ws = shoup_precompute(w, q);
    for (u64 x : std::vector<u64>{0, 1, q - 1, ~static_cast<u64>(0)}) {
      const u64 ref = static_cast<u64>(static_cast<u128>(x) * w % q);
      EXPECT_LT(mul_shoup_lazy(x, w, ws, q), 2 * q);
      EXPECT_EQ(mul_shoup(x, w, ws, q), ref);
    }
  }
}

TEST(ModArithEdge, Reduce128Extremes) {
  const Modulus m(generate_ntt_primes(61, 1, 64)[0]);
  const u128 max128 = ~static_cast<u128>(0);
  EXPECT_EQ(m.reduce128(0), 0u);
  EXPECT_EQ(m.reduce128(max128), static_cast<u64>(max128 % m.value()));
  EXPECT_EQ(m.reduce128(static_cast<u128>(m.value()) * m.value()), 0u);
}

TEST(ModArithEdge, SignedConversionExtremes) {
  const Modulus m(97);
  // from_signed lands in [0, q) even at the int64 extremes, and agrees with
  // the sign-corrected remainder.
  for (std::int64_t v : {std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max(), std::int64_t{-97},
                         std::int64_t{-1}, std::int64_t{0}}) {
    const u64 r = m.from_signed(v);
    EXPECT_LT(r, 97u);
    EXPECT_EQ(static_cast<std::int64_t>(r), ((v % 97) + 97) % 97);
  }
  // Centered representative boundary: q/2 stays positive, q/2 + 1 wraps.
  EXPECT_EQ(m.to_signed(48), 48);
  EXPECT_EQ(m.to_signed(49), -48);
}

}  // namespace
