// SIMD kernel-layer contract: every compiled tier (scalar / AVX2 / AVX-512 /
// AVX-512 IFMA) must be bit-identical on every kernel — the dispatch
// decision can change throughput only, never an FHE result. Covers the raw
// kernels across sizes incl. non-lane-multiple tails and lazy [0, 4q)
// inputs, the centered-lift kernel against Modulus::from_signed on every
// prime pair, the key-switch inner product against a direct u128 sum, the
// whole-row NTTs on all tiers at 40- to 60-bit primes (both sides of the
// IFMA tier's 2^50 bound), the batched NTT entry points across thread
// counts, the flat RnsPoly row-drop layout, and an end-to-end
// FhePipeline::run identity sweep over (tier x thread count).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fhe/context.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "fhe/rns_poly.h"
#include "fhe/simd/simd.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace {

using namespace sp;
using namespace sp::fhe;

const std::vector<std::size_t> kSizes = {1, 2, 3, 7, 8, 31, 1023, 1024, 4096, 8192};

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> out;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512,
                       simd::Tier::kAvx512Ifma})
    if (simd::tier_supported(t)) out.push_back(t);
  return out;
}

const simd::Kernels* table_for(simd::Tier t) {
  switch (t) {
    case simd::Tier::kScalar:
      return simd::detail::scalar_kernels();
    case simd::Tier::kAvx2:
      return simd::detail::avx2_kernels();
    case simd::Tier::kAvx512:
      return simd::detail::avx512_kernels();
    case simd::Tier::kAvx512Ifma:
      return simd::detail::avx512ifma_kernels();
  }
  return nullptr;
}

/// RAII guard: pins a tier (and thread count) for one scope, restores after.
struct TierGuard {
  simd::Tier saved;
  explicit TierGuard(simd::Tier t) : saved(simd::active_tier()) {
    EXPECT_TRUE(simd::set_tier(t));
  }
  ~TierGuard() { simd::set_tier(saved); }
};

u64 test_prime() {
  static const u64 q = generate_ntt_primes(60, 1, 8192)[0];  // 1 mod 2*8192
  return q;
}

u64 small_prime() {
  static const u64 q = generate_ntt_primes(40, 1, 8192)[0];
  return q;
}

std::vector<u64> random_below(sp::Rng& rng, std::size_t n, u64 bound) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.next_u64() % bound;
  return v;
}

/// The smallest NTT prime above 2^49 + 2^43: a 50-bit prime near the bottom
/// of its bit width, where the IFMA tier's Barrett-52 quotient estimate can
/// fall two short (on ~2% of products one above a multiple of q), so only
/// its second conditional subtraction lands in [0, q).
u64 low_50bit_prime() {
  static const u64 q = [] {
    u64 c = (u64{1} << 49) + (u64{1} << 43) + 1;
    while (!is_prime(c)) c += 2 * 8192;
    return c;
  }();
  return q;
}

/// NTT primes (1 mod 2*8192) on both sides of the IFMA tier's q < 2^50
/// bound: the 40-bit chain prime most transforms run on, a 50-bit one near
/// the bottom of its bit width, the largest below 2^50, a 51-bit one (the
/// IFMA tier delegates it) and the 60-bit one.
std::vector<u64> ntt_test_primes() {
  static const std::vector<u64> primes = {small_prime(), low_50bit_prime(),
                                          generate_ntt_primes(50, 1, 8192)[0],
                                          generate_ntt_primes(51, 1, 8192)[0], test_prime()};
  return primes;
}

/// Bit-reversed twiddles as NttTables builds them, for calling the
/// whole-row transform entries of a kernel table directly.
struct Twiddles {
  std::vector<u64> w, ws, inv_w, inv_ws;
  u64 n_inv = 0, n_inv_shoup = 0;
  Twiddles(std::size_t n, u64 q) : w(n), ws(n), inv_w(n), inv_ws(n) {
    const Modulus m(q);
    const u64 psi = find_primitive_root(q, 2 * n);
    const u64 psi_inv = m.inv(psi);
    int log_n = 0;
    while ((std::size_t{1} << log_n) < n) ++log_n;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t e = 0;
      for (int b = 0; b < log_n; ++b) e |= ((i >> b) & 1) << (log_n - 1 - b);
      w[i] = m.pow(psi, e);
      ws[i] = shoup_precompute(w[i], q);
      inv_w[i] = m.pow(psi_inv, e);
      inv_ws[i] = shoup_precompute(inv_w[i], q);
    }
    n_inv = m.inv(n % q);
    n_inv_shoup = shoup_precompute(n_inv, q);
  }
};

/// Runs op(dst, a) on a copy of `a` in both destination forms: dst != a
/// (dst prefilled with all-ones, which is no residue, so an element a tier
/// skips shows) and dst == a. Each buffer carries a canary at [n] that must
/// survive, and the dst != a input must not change. Returns {dst != a,
/// dst == a} with the canaries stripped.
template <typename Op>
std::pair<std::vector<u64>, std::vector<u64>> both_forms(const std::vector<u64>& a, const Op& op,
                                                         const std::string& what) {
  constexpr u64 kCanary = 0x5eed5eed5eed5eedULL;
  const std::size_t n = a.size();
  std::vector<u64> src(a), out(n + 1, ~u64{0}), in_place(a);
  out[n] = kCanary;
  in_place.push_back(kCanary);
  op(out.data(), src.data());
  op(in_place.data(), in_place.data());
  EXPECT_EQ(out[n], kCanary) << what << ": dst != a wrote past n";
  EXPECT_EQ(in_place[n], kCanary) << what << ": dst == a wrote past n";
  EXPECT_EQ(src, a) << what << ": dst != a changed its input";
  out.pop_back();
  in_place.pop_back();
  return {out, in_place};
}

TEST(SimdKernels, ElementwiseTiersMatchScalar) {
  // Every prime on both sides of the IFMA tier's 2^50 bound, random rows and
  // rows of all q - 1 (with w = q - 1 and every mul_shoup row at its edge),
  // at lengths around a vector and a row tile (kSizes plus 9 and 4095).
  // Every kernel runs with dst != a and dst == a; both must equal the
  // scalar tier's dst != a output, element for element.
  const simd::Kernels* ref = simd::detail::scalar_kernels();
  ASSERT_NE(ref, nullptr);
  constexpr u64 k2p52 = u64{1} << 52;
  for (u64 q : ntt_test_primes()) {
    for (std::size_t n : {1, 2, 3, 7, 8, 9, 31, 1023, 1024, 4095, 4096, 8192}) {
      for (bool worst : {false, true}) {
        sp::Rng rng(n * 31 + (q & 0xffff) + (worst ? 7 : 0));
        const std::vector<u64> a0 = worst ? std::vector<u64>(n, q - 1) : random_below(rng, n, q);
        const std::vector<u64> b = worst ? a0 : random_below(rng, n, q);
        const u64 w = worst ? q - 1 : rng.next_u64() % q;
        const u64 ws = shoup_precompute(w, q);
        // Lazy inputs for mul_shoup: the contract allows ANY 64-bit value.
        // Besides a 64-bit row, a row below 4q (on the IFMA tier every
        // vector takes the 52-bit product) and one with a lane in every 8 at
        // or above 2^52 (its vector takes the 64-bit product).
        std::vector<u64> lazy(n);
        for (auto& x : lazy) x = worst ? ~u64{0} : rng.next_u64();
        const std::vector<u64> below_4q =
            worst ? std::vector<u64>(n, 4 * q - 1) : random_below(rng, n, 4 * q);
        std::vector<u64> wide_lane = below_4q;
        for (std::size_t i = 0; i < n; i += 8) {
          const std::size_t lane = i + (i / 8) % 8;
          if (lane < n) wide_lane[lane] = worst ? ~u64{0} : k2p52 + rng.next_u64() % (0 - k2p52);
        }
        const Modulus m(q);
        // b = a^-1 puts each product one above a multiple of q, where a
        // quotient estimate that falls short shows.
        std::vector<u64> inverses(n);
        for (std::size_t i = 0; i < n; ++i) inverses[i] = a0[i] == 0 ? 0 : m.inv(a0[i]);
        const std::string tag = " q=" + std::to_string(q) + " n=" + std::to_string(n) +
                                (worst ? " all q-1" : " random");

        // Each case: its name, its input row and the kernel call on a table.
        using Call = std::function<void(const simd::Kernels*, u64*, const u64*)>;
        const std::vector<std::tuple<std::string, const std::vector<u64>*, Call>> cases = {
            {"add", &a0, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->add_mod(d, a, b.data(), n, q);
             }},
            {"sub", &a0, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->sub_mod(d, a, b.data(), n, q);
             }},
            {"mul", &a0, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->mul_mod(d, a, b.data(), n, q, m.ratio_hi(), m.ratio_lo());
             }},
            {"mul by inverse", &a0, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->mul_mod(d, a, inverses.data(), n, q, m.ratio_hi(), m.ratio_lo());
             }},
            {"shoup", &lazy, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->mul_shoup(d, a, n, w, ws, q);
             }},
            {"shoup < 4q", &below_4q, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->mul_shoup(d, a, n, w, ws, q);
             }},
            {"shoup >= 2^52", &wide_lane, [&](const simd::Kernels* k, u64* d, const u64* a) {
               k->mul_shoup(d, a, n, w, ws, q);
             }},
        };
        std::vector<u64> r_neg(a0);
        ref->neg_mod(r_neg.data(), n, q);
        for (const auto& [name, input, call] : cases) {
          const auto reference =
              both_forms(*input, [&](u64* d, const u64* a) { call(ref, d, a); },
                         "scalar " + name + tag);
          EXPECT_EQ(reference.second, reference.first) << "scalar " << name << tag;
          for (simd::Tier t : supported_tiers()) {
            const simd::Kernels* k = table_for(t);
            ASSERT_NE(k, nullptr);
            const std::string what = simd::tier_name(t) + (" " + name) + tag;
            const auto [out, in_place] =
                both_forms(*input, [&](u64* d, const u64* a) { call(k, d, a); }, what);
            EXPECT_EQ(out, reference.first) << what << " dst != a";
            EXPECT_EQ(in_place, reference.first) << what << " dst == a";
          }
        }
        for (simd::Tier t : supported_tiers()) {
          std::vector<u64> v_neg(a0);
          table_for(t)->neg_mod(v_neg.data(), n, q);
          EXPECT_EQ(v_neg, r_neg) << simd::tier_name(t) << " neg" << tag;
        }
      }
    }
  }
}

TEST(SimdKernels, ButterflyAndStageTiersMatchScalar) {
  const simd::Kernels* ref = simd::detail::scalar_kernels();
  const u64 q = test_prime();
  for (std::size_t n : kSizes) {
    sp::Rng rng(n * 131 + 5);
    // Butterflies: forward takes lazy < 4q in, inverse < 2q in.
    const std::vector<u64> fx = random_below(rng, n, 4 * q);
    const std::vector<u64> fy = random_below(rng, n, 4 * q);
    const std::vector<u64> ix = random_below(rng, n, 2 * q);
    const std::vector<u64> iy = random_below(rng, n, 2 * q);
    const u64 w = rng.next_u64() % q;
    const u64 ws = shoup_precompute(w, q);
    const std::vector<u64> r4 = random_below(rng, n, 4 * q);

    std::vector<u64> rfx(fx), rfy(fy), rix(ix), riy(iy), rr4(r4);
    ref->fwd_butterfly(rfx.data(), rfy.data(), n, w, ws, q);
    ref->inv_butterfly(rix.data(), riy.data(), n, w, ws, q);
    ref->reduce_4q(rr4.data(), n, q);

    for (simd::Tier t : supported_tiers()) {
      const simd::Kernels* k = table_for(t);
      std::vector<u64> vfx(fx), vfy(fy), vix(ix), viy(iy), vr4(r4);
      k->fwd_butterfly(vfx.data(), vfy.data(), n, w, ws, q);
      k->inv_butterfly(vix.data(), viy.data(), n, w, ws, q);
      k->reduce_4q(vr4.data(), n, q);
      EXPECT_EQ(vfx, rfx) << simd::tier_name(t) << " fwd x n=" << n;
      EXPECT_EQ(vfy, rfy) << simd::tier_name(t) << " fwd y n=" << n;
      EXPECT_EQ(vix, rix) << simd::tier_name(t) << " inv x n=" << n;
      EXPECT_EQ(viy, riy) << simd::tier_name(t) << " inv y n=" << n;
      EXPECT_EQ(vr4, rr4) << simd::tier_name(t) << " reduce_4q n=" << n;
    }

    // Stage layout: `blocks` blocks of 2t, per-block twiddles. The block
    // counts run every narrow-t vector group (8 blocks at t = 1 and 4 at
    // t = 2 on AVX-512, 4 at t = 1 on AVX2) and a leftover block on every
    // tier.
    const std::size_t t_len = n;
    for (std::size_t blocks : {1, 3, 8, 17}) {
      const std::vector<u64> stage_in = random_below(rng, 2 * t_len * blocks, 4 * q);
      const std::vector<u64> stage_in2q = random_below(rng, 2 * t_len * blocks, 2 * q);
      std::vector<u64> tw(blocks), tws(blocks);
      for (std::size_t b = 0; b < blocks; ++b) {
        tw[b] = rng.next_u64() % q;
        tws[b] = shoup_precompute(tw[b], q);
      }
      std::vector<u64> rst(stage_in), rsti(stage_in2q);
      ref->fwd_stage(rst.data(), t_len, blocks, tw.data(), tws.data(), q);
      ref->inv_stage(rsti.data(), t_len, blocks, tw.data(), tws.data(), q);

      for (simd::Tier t : supported_tiers()) {
        const simd::Kernels* k = table_for(t);
        std::vector<u64> vst(stage_in), vsti(stage_in2q);
        k->fwd_stage(vst.data(), t_len, blocks, tw.data(), tws.data(), q);
        k->inv_stage(vsti.data(), t_len, blocks, tw.data(), tws.data(), q);
        EXPECT_EQ(vst, rst) << simd::tier_name(t) << " fwd_stage n=" << n
                            << " blocks=" << blocks;
        EXPECT_EQ(vsti, rsti) << simd::tier_name(t) << " inv_stage n=" << n
                              << " blocks=" << blocks;
      }
    }
  }
}

TEST(SimdKernels, LiftCenteredMatchesFromSignedOnEveryPrimePair) {
  // A 60-bit q_0, 40-bit middle primes and the 60-bit special prime, plus
  // two 50-bit primes and a 51-bit one (both sides of the IFMA tier's 2^50
  // bound): a lift from a 60-bit prime into a 40- to 51-bit row, or from a
  // 50- or 51-bit prime into a 40-bit row, takes the wide path
  // (q_src/2 >= q), every other pair the compare-and-add.
  const CkksContext ctx(CkksParams::for_depth(2048, 3, 40));
  std::vector<u64> primes;
  for (int i = 0; i < ctx.q_count(); ++i) primes.push_back(ctx.q(i).value());
  primes.push_back(ctx.special().value());
  for (u64 q : ntt_test_primes())
    if (q > (u64{1} << 49) && q < (u64{1} << 51)) primes.push_back(q);
  bool saw_wide = false, saw_narrow = false;
  for (u64 q_src : primes) {
    const std::vector<u64> edges = {0, 1, q_src / 2, q_src / 2 + 1, q_src - 1};
    for (u64 q : primes) {
      (q_src / 2 >= q ? saw_wide : saw_narrow) = true;
      const Modulus m(q);
      for (std::size_t n : kSizes) {
        sp::Rng rng(q_src ^ (q << 1) ^ n);
        std::vector<u64> src = random_below(rng, n, q_src);
        for (std::size_t i = 0; i < n; i += 3) src[i] = edges[(i / 3) % edges.size()];
        std::vector<u64> want(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto x = static_cast<std::int64_t>(src[i]);
          want[i] = m.from_signed(src[i] > q_src / 2 ? x - static_cast<std::int64_t>(q_src) : x);
        }
        for (simd::Tier t : supported_tiers()) {
          const simd::Kernels* k = table_for(t);
          std::vector<u64> got(n), in_place(src);
          k->lift_centered(got.data(), src.data(), n, q_src, q);
          k->lift_centered(in_place.data(), in_place.data(), n, q_src, q);
          EXPECT_EQ(got, want) << simd::tier_name(t) << " " << q_src << " -> " << q
                               << " n=" << n;
          EXPECT_EQ(in_place, want) << simd::tier_name(t) << " in place n=" << n;
        }
      }
    }
  }
  EXPECT_TRUE(saw_wide);
  EXPECT_TRUE(saw_narrow);
}

TEST(SimdKernels, KeyInnerProductTiersMatchScalar) {
  // The scalar tier must equal a direct u128 sum reduced by
  // Modulus::reduce128, and every other tier the scalar tier, at every
  // prime on both sides of the IFMA tier's 2^50 bound. Digit counts reach
  // lenet's 19 and serve_open's 21, and 4095 / 4096 straddle the IFMA
  // tier's 2^12-digit bound (at n = 9, below the 60-bit prime, for which
  // count·q² would pass 2^128); rows of all q - 1 give the largest sums and
  // carries; lengths 1, 7, 9 and 2053 run the lane tails.
  const simd::Kernels* ref = simd::detail::scalar_kernels();
  for (u64 q : ntt_test_primes()) {
    const Modulus m(q);
    for (std::size_t count : {1, 2, 11, 19, 21, 4095, 4096}) {
      for (std::size_t n : {1, 7, 8, 9, 2053}) {
        if (count > 21 && (n != 9 || q == test_prime())) continue;
        for (bool worst : {false, true}) {
          sp::Rng rng(q ^ (count << 24) ^ (n << 4) ^ (worst ? 1 : 0));
          const auto row = [&] {
            return worst ? std::vector<u64>(n, q - 1) : random_below(rng, n, q);
          };
          std::vector<std::vector<u64>> d, k0, k1;
          std::vector<const u64*> dp, k0p, k1p;
          for (std::size_t i = 0; i < count; ++i) {
            d.push_back(row());
            k0.push_back(row());
            k1.push_back(row());
          }
          for (std::size_t i = 0; i < count; ++i) {
            dp.push_back(d[i].data());
            k0p.push_back(k0[i].data());
            k1p.push_back(k1[i].data());
          }
          std::vector<u64> want0(n), want1(n);
          for (std::size_t j = 0; j < n; ++j) {
            u128 a = 0, b = 0;
            for (std::size_t i = 0; i < count; ++i) {
              a += static_cast<u128>(d[i][j]) * k0[i][j];
              b += static_cast<u128>(d[i][j]) * k1[i][j];
            }
            want0[j] = m.reduce128(a);
            want1[j] = m.reduce128(b);
          }
          const std::string tag = "q=" + std::to_string(q) + " count=" + std::to_string(count) +
                                  " n=" + std::to_string(n) + (worst ? " all q-1" : " random");
          std::vector<u64> r0(n), r1(n);
          ref->key_inner_product(r0.data(), r1.data(), dp.data(), k0p.data(), k1p.data(), count, n,
                                 q, m.ratio_hi(), m.ratio_lo());
          EXPECT_EQ(r0, want0) << "scalar out0 " << tag;
          EXPECT_EQ(r1, want1) << "scalar out1 " << tag;
          for (simd::Tier t : supported_tiers()) {
            std::vector<u64> v0(n), v1(n);
            table_for(t)->key_inner_product(v0.data(), v1.data(), dp.data(), k0p.data(),
                                            k1p.data(), count, n, q, m.ratio_hi(), m.ratio_lo());
            EXPECT_EQ(v0, r0) << simd::tier_name(t) << " out0 " << tag;
            EXPECT_EQ(v1, r1) << simd::tier_name(t) << " out1 " << tag;
          }
        }
      }
    }
  }
}

TEST(SimdNtt, ForwardInverseTiersMatchScalarAndRoundTrip) {
  // Per prime, size and row kind (random, all zero, all q - 1): NttTables
  // under each tier against NttTables under the scalar tier, and each
  // tier's ntt_forward / ntt_inverse entries called directly. Sizes below
  // 16 run every tier's delegation path on the IFMA tier.
  for (u64 q : ntt_test_primes()) {
    for (std::size_t n : {1, 2, 4, 8, 16, 32, 1024, 8192}) {
      const NttTables tables(n, Modulus(q));
      const Twiddles tw(n, q);
      sp::Rng rng(n + 17 + (q & 0xffff));
      for (const std::vector<u64>& in :
           {random_below(rng, n, q), std::vector<u64>(n, 0), std::vector<u64>(n, q - 1)}) {
        const std::string tag = " q=" + std::to_string(q) + " n=" + std::to_string(n) +
                                " in[0]=" + std::to_string(in[0]);
        std::vector<u64> ref_fwd(in), ref_inv(in);
        {
          TierGuard g(simd::Tier::kScalar);
          tables.forward(ref_fwd.data());
          ref_inv = ref_fwd;
          tables.inverse(ref_inv.data());
        }
        EXPECT_EQ(ref_inv, in) << "scalar round-trip" << tag;

        for (simd::Tier t : supported_tiers()) {
          {
            TierGuard g(t);
            std::vector<u64> fwd(in);
            tables.forward(fwd.data());
            EXPECT_EQ(fwd, ref_fwd) << simd::tier_name(t) << " forward" << tag;
            tables.inverse(fwd.data());
            EXPECT_EQ(fwd, in) << simd::tier_name(t) << " round-trip" << tag;
          }
          const simd::Kernels* k = table_for(t);
          std::vector<u64> direct(in);
          k->ntt_forward(direct.data(), n, tw.w.data(), tw.ws.data(), q);
          EXPECT_EQ(direct, ref_fwd) << simd::tier_name(t) << " ntt_forward" << tag;
          k->ntt_inverse(direct.data(), n, tw.inv_w.data(), tw.inv_ws.data(), tw.n_inv,
                         tw.n_inv_shoup, q);
          EXPECT_EQ(direct, in) << simd::tier_name(t) << " ntt_inverse" << tag;
        }
      }
    }
  }
}

TEST(SimdNtt, BatchedTransformsMatchPerRow) {
  // The batch entry points run one whole-row transform per job on the pool;
  // every (prime, tier, thread count, row count) combination must reproduce
  // the plain per-row transforms bit for bit.
  const std::size_t n = 4096;
  for (u64 q : ntt_test_primes()) {
    const NttTables tables(n, Modulus(q));
    for (int rows : {1, 3, 5}) {
      sp::Rng rng(static_cast<std::uint64_t>(rows) * 97 + (q & 0xffff));
      std::vector<std::vector<u64>> base(static_cast<std::size_t>(rows));
      for (auto& r : base) r = random_below(rng, n, q);

      std::vector<std::vector<u64>> ref_fwd = base;
      {
        TierGuard g(simd::Tier::kScalar);
        for (auto& r : ref_fwd) tables.forward(r.data());
      }

      for (simd::Tier t : supported_tiers()) {
        TierGuard g(t);
        for (int threads : {1, 2, 7}) {
          ThreadPool::set_global_threads(threads);
          std::vector<std::vector<u64>> got = base;
          std::vector<NttJob> jobs;
          for (auto& r : got) jobs.push_back({r.data(), &tables});
          ntt_forward_batch(jobs);
          EXPECT_EQ(got, ref_fwd) << simd::tier_name(t) << " fwd q=" << q
                                  << " rows=" << rows << " threads=" << threads;
          ntt_inverse_batch(jobs);
          EXPECT_EQ(got, base) << simd::tier_name(t) << " inv q=" << q << " rows=" << rows
                               << " threads=" << threads;
        }
      }
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(SimdDispatch, TierGrammarAndOverride) {
  bool ok = false;
  EXPECT_EQ(simd::parse_tier("scalar", &ok), simd::Tier::kScalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_tier("avx2", &ok), simd::Tier::kAvx2);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_tier("avx512", &ok), simd::Tier::kAvx512);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_tier("avx512ifma", &ok), simd::Tier::kAvx512Ifma);
  EXPECT_TRUE(ok);
  simd::parse_tier("AVX2", &ok);  // grammar is exact-match lowercase
  EXPECT_FALSE(ok);
  simd::parse_tier(nullptr, &ok);
  EXPECT_FALSE(ok);

  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  const simd::Tier before = simd::active_tier();
  for (simd::Tier t : supported_tiers()) {
    EXPECT_TRUE(simd::set_tier(t));
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_EQ(std::strcmp(simd::tier_name(simd::active_tier()), simd::tier_name(t)), 0);
  }
  simd::set_tier(before);
}

TEST(RnsPolyFlat, DropRowsPreservesSurvivingRows) {
  // Flat-buffer regression: drop_last_q removes a middle row (the special row
  // trails it), so surviving rows must slide without corruption.
  const CkksContext ctx(CkksParams::test_small());
  RnsPoly p(&ctx, ctx.q_count(), /*with_special=*/true, /*ntt_form=*/false);
  sp::Rng rng(3);
  std::vector<std::vector<u64>> rows(static_cast<std::size_t>(p.row_count()));
  for (int i = 0; i < p.row_count(); ++i) {
    rows[static_cast<std::size_t>(i)] =
        random_below(rng, p.n(), p.row_mod(i).value());
    std::memcpy(p.row(i), rows[static_cast<std::size_t>(i)].data(),
                p.n() * sizeof(u64));
  }
  const int q0 = p.q_count();
  p.drop_last_q();
  ASSERT_EQ(p.q_count(), q0 - 1);
  ASSERT_TRUE(p.has_special());
  for (int i = 0; i < p.q_count(); ++i)
    EXPECT_EQ(std::memcmp(p.row(i), rows[static_cast<std::size_t>(i)].data(),
                          p.n() * sizeof(u64)),
              0)
        << "chain row " << i;
  // The special row (was index q0) now lives at index q0-1.
  EXPECT_EQ(std::memcmp(p.row(p.q_count()), rows[static_cast<std::size_t>(q0)].data(),
                        p.n() * sizeof(u64)),
            0);
  p.drop_special();
  ASSERT_FALSE(p.has_special());
  for (int i = 0; i < p.row_count(); ++i)
    EXPECT_EQ(std::memcmp(p.row(i), rows[static_cast<std::size_t>(i)].data(),
                          p.n() * sizeof(u64)),
              0);
}

/// Degree-7 odd PAF, same shape as the pipeline acceptance tests.
approx::CompositePaf e2e_paf(std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> c(8, 0.0);
  for (int k = 1; k <= 7; k += 2)
    c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 8.0;
  return approx::CompositePaf("deg7", {approx::Polynomial(c)});
}

std::vector<u64> run_pipeline_e2e(simd::Tier tier, int threads) {
  TierGuard g(tier);
  ThreadPool::set_global_threads(threads);
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 12, 40), /*seed=*/77);
  const auto pipe = smartpaf::FhePipeline::builder()
                        .window({0.5, 0.3, 0.2})
                        .paf_relu(e2e_paf(41), 2.0)
                        .linear(0.7)
                        .paf_maxpool(e2e_paf(43), 2.0, /*pool_window=*/2)
                        .build();
  const auto plan =
      smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  sp::Rng rng(9);
  std::vector<double> slots(rt.ctx().slot_count());
  for (auto& x : slots) x = rng.uniform(-0.8, 0.8);
  const Ciphertext out = pipe.run(rt, plan, rt.encrypt(slots));
  std::vector<u64> flat;
  for (const auto& part : out.parts)
    for (int r = 0; r < part.row_count(); ++r)
      flat.insert(flat.end(), part.row(r), part.row(r) + part.n());
  return flat;
}

TEST(SimdEndToEnd, PipelineRunBitIdenticalAcrossTiersAndThreads) {
  // keygen, encrypt, the full lowered pipeline (rotations, PAF evals,
  // rescales), all bit-identical for every (tier, thread count).
  const std::vector<u64> ref = run_pipeline_e2e(simd::Tier::kScalar, 1);
  ASSERT_FALSE(ref.empty());
  for (simd::Tier t : supported_tiers()) {
    for (int threads : {1, 3}) {
      if (t == simd::Tier::kScalar && threads == 1) continue;
      const std::vector<u64> got = run_pipeline_e2e(t, threads);
      ASSERT_EQ(got.size(), ref.size());
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < ref.size(); ++i)
        if (got[i] != ref[i]) ++mismatches;
      EXPECT_EQ(mismatches, 0u)
          << simd::tier_name(t) << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

}  // namespace
