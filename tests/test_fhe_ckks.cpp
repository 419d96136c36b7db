#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "approx/presets.h"
#include "common/check.h"
#include "common/rng.h"
#include "fhe/encryptor.h"
#include "fhe/evaluator.h"
#include "fhe/poly_eval.h"

namespace {

using namespace sp::fhe;

/// Shared CKKS fixture: N=2048, 4 chain primes (depth 3), scale 2^30.
class CkksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    params_ = std::make_unique<CkksParams>(CkksParams::test_small());
    ctx_ = std::make_unique<CkksContext>(*params_);
    encoder_ = std::make_unique<Encoder>(*ctx_);
    keygen_ = std::make_unique<KeyGenerator>(*ctx_, 2024);
    encryptor_ = std::make_unique<Encryptor>(*ctx_, keygen_->public_key());
    decryptor_ = std::make_unique<Decryptor>(*ctx_, keygen_->secret_key());
    evaluator_ = std::make_unique<Evaluator>(*ctx_);
    relin_ = std::make_unique<KSwitchKey>(keygen_->relin_key());
  }
  static void TearDownTestSuite() {
    relin_.reset();
    evaluator_.reset();
    decryptor_.reset();
    encryptor_.reset();
    keygen_.reset();
    encoder_.reset();
    ctx_.reset();
    params_.reset();
  }

  static std::vector<double> ramp(std::size_t count, double lo, double hi) {
    std::vector<double> v(count);
    for (std::size_t i = 0; i < count; ++i)
      v[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(count - 1);
    return v;
  }

  static double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
    double worst = 0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
      worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
  }

  static std::unique_ptr<CkksParams> params_;
  static std::unique_ptr<CkksContext> ctx_;
  static std::unique_ptr<Encoder> encoder_;
  static std::unique_ptr<KeyGenerator> keygen_;
  static std::unique_ptr<Encryptor> encryptor_;
  static std::unique_ptr<Decryptor> decryptor_;
  static std::unique_ptr<Evaluator> evaluator_;
  static std::unique_ptr<KSwitchKey> relin_;
};

std::unique_ptr<CkksParams> CkksTest::params_;
std::unique_ptr<CkksContext> CkksTest::ctx_;
std::unique_ptr<Encoder> CkksTest::encoder_;
std::unique_ptr<KeyGenerator> CkksTest::keygen_;
std::unique_ptr<Encryptor> CkksTest::encryptor_;
std::unique_ptr<Decryptor> CkksTest::decryptor_;
std::unique_ptr<Evaluator> CkksTest::evaluator_;
std::unique_ptr<KSwitchKey> CkksTest::relin_;

TEST_F(CkksTest, EncodeDecodeRoundTrip) {
  const auto v = ramp(ctx_->slot_count(), -3.0, 3.0);
  const Plaintext pt = encoder_->encode(v, ctx_->scale(), ctx_->q_count());
  const auto back = encoder_->decode(pt);
  EXPECT_LT(max_abs_diff(v, back), 1e-6);
}

TEST_F(CkksTest, EncodeScalarBroadcasts) {
  const Plaintext pt = encoder_->encode_scalar(0.75, ctx_->scale(), 2);
  const auto back = encoder_->decode(pt);
  for (double x : back) EXPECT_NEAR(x, 0.75, 1e-6);
}

TEST_F(CkksTest, EncryptDecryptRoundTrip) {
  const auto v = ramp(ctx_->slot_count(), -1.0, 1.0);
  const Plaintext pt = encoder_->encode(v, ctx_->scale(), ctx_->q_count());
  const Ciphertext ct = encryptor_->encrypt(pt);
  const auto back = encoder_->decode(decryptor_->decrypt(ct));
  EXPECT_LT(max_abs_diff(v, back), 1e-4);
}

TEST_F(CkksTest, HomomorphicAddAndSub) {
  const auto a = ramp(ctx_->slot_count(), -1.0, 1.0);
  const auto b = ramp(ctx_->slot_count(), 2.0, 4.0);
  const Ciphertext ca = encryptor_->encrypt(encoder_->encode(a, ctx_->scale(), ctx_->q_count()));
  const Ciphertext cb = encryptor_->encrypt(encoder_->encode(b, ctx_->scale(), ctx_->q_count()));
  const auto sum = encoder_->decode(decryptor_->decrypt(evaluator_->add(ca, cb)));
  const auto diff = encoder_->decode(decryptor_->decrypt(evaluator_->sub(ca, cb)));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(sum[i], a[i] + b[i], 1e-3);
    EXPECT_NEAR(diff[i], a[i] - b[i], 1e-3);
  }
}

TEST_F(CkksTest, AddPlainAndMultiplyPlain) {
  const auto a = ramp(ctx_->slot_count(), -1.0, 1.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(a, ctx_->scale(), ctx_->q_count()));
  evaluator_->add_plain_inplace(ct, encoder_->encode_scalar(2.5, ct.scale, ct.q_count()));
  evaluator_->multiply_plain_inplace(ct, encoder_->encode_scalar(3.0, ctx_->scale(), ct.q_count()));
  evaluator_->rescale_inplace(ct);
  const auto back = encoder_->decode(decryptor_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(back[i], 3.0 * (a[i] + 2.5), 2e-3);
}

TEST_F(CkksTest, MultiplyRelinRescale) {
  const auto a = ramp(ctx_->slot_count(), -1.0, 1.0);
  const auto b = ramp(ctx_->slot_count(), 0.5, 1.5);
  Ciphertext ca = encryptor_->encrypt(encoder_->encode(a, ctx_->scale(), ctx_->q_count()));
  Ciphertext cb = encryptor_->encrypt(encoder_->encode(b, ctx_->scale(), ctx_->q_count()));
  Ciphertext prod = evaluator_->multiply(ca, cb);
  EXPECT_EQ(prod.size(), 3);
  evaluator_->relinearize_inplace(prod, *relin_);
  EXPECT_EQ(prod.size(), 2);
  evaluator_->rescale_inplace(prod);
  EXPECT_EQ(prod.level(), ctx_->q_count() - 2);
  const auto back = encoder_->decode(decryptor_->decrypt(prod));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(back[i], a[i] * b[i], 5e-3);
}

TEST_F(CkksTest, ThreePartDecryptionWithoutRelin) {
  const auto a = ramp(ctx_->slot_count(), -1.0, 1.0);
  Ciphertext ca = encryptor_->encrypt(encoder_->encode(a, ctx_->scale(), ctx_->q_count()));
  Ciphertext prod = evaluator_->multiply(ca, ca);
  const auto back = encoder_->decode(decryptor_->decrypt(prod));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(back[i], a[i] * a[i], 5e-3);
}

TEST_F(CkksTest, SequentialMultiplicationsToDepth) {
  // x^8 via 3 squarings uses the full depth-3 budget.
  std::vector<double> v(ctx_->slot_count(), 0.9);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  for (int i = 0; i < 3; ++i) {
    ct = evaluator_->multiply(ct, ct);
    evaluator_->relinearize_inplace(ct, *relin_);
    evaluator_->rescale_inplace(ct);
  }
  const auto back = encoder_->decode(decryptor_->decrypt(ct));
  EXPECT_NEAR(back[0], std::pow(0.9, 8.0), 2e-2);
}

TEST_F(CkksTest, DropToLevelPreservesValues) {
  const auto a = ramp(ctx_->slot_count(), -2.0, 2.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(a, ctx_->scale(), ctx_->q_count()));
  evaluator_->drop_to_level(ct, 1);
  EXPECT_EQ(ct.level(), 1);
  const auto back = encoder_->decode(decryptor_->decrypt(ct));
  EXPECT_LT(max_abs_diff(a, back), 1e-4);
}

TEST_F(CkksTest, RescaleDividesScale) {
  std::vector<double> v(ctx_->slot_count(), 1.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  const double s0 = ct.scale;
  evaluator_->multiply_plain_inplace(ct, encoder_->encode_scalar(1.0, ctx_->scale(), ct.q_count()));
  evaluator_->rescale_inplace(ct);
  const double q_last = static_cast<double>(ctx_->q(ctx_->q_count() - 1).value());
  EXPECT_NEAR(ct.scale, s0 * ctx_->scale() / q_last, 1.0);
}

TEST_F(CkksTest, RotationShiftsSlots) {
  const auto gk = keygen_->galois_keys({1, 3});
  auto v = ramp(ctx_->slot_count(), 0.0, 1.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  const auto r1 = encoder_->decode(decryptor_->decrypt(evaluator_->rotate(ct, 1, gk)));
  for (std::size_t i = 0; i + 1 < v.size(); ++i) EXPECT_NEAR(r1[i], v[i + 1], 1e-3);
  const auto r3 = encoder_->decode(decryptor_->decrypt(evaluator_->rotate(ct, 3, gk)));
  for (std::size_t i = 0; i + 3 < v.size(); ++i) EXPECT_NEAR(r3[i], v[i + 3], 1e-3);
}

TEST_F(CkksTest, RotationWrapsAround) {
  const auto gk = keygen_->galois_keys({1});
  auto v = ramp(ctx_->slot_count(), 0.0, 1.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  const auto r = encoder_->decode(decryptor_->decrypt(evaluator_->rotate(ct, 1, gk)));
  EXPECT_NEAR(r[ctx_->slot_count() - 1], v[0], 1e-3);
}

TEST_F(CkksTest, PolyEvalLinear) {
  PafEvaluator pe(*ctx_, *encoder_, *relin_);
  const auto v = ramp(ctx_->slot_count(), -1.0, 1.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  const sp::approx::Polynomial p({0.25, 2.0});  // 0.25 + 2x
  const Ciphertext out = pe.eval_poly(*evaluator_, ct, p);
  const auto back = encoder_->decode(decryptor_->decrypt(out));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], 0.25 + 2.0 * v[i], 5e-3);
}

TEST_F(CkksTest, PolyEvalCubicOdd) {
  PafEvaluator pe(*ctx_, *encoder_, *relin_);
  const auto v = ramp(ctx_->slot_count(), -1.0, 1.0);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  const sp::approx::Polynomial f1({0.0, 1.5, 0.0, -0.5});
  EvalStats stats;
  const Ciphertext out = pe.eval_poly(*evaluator_, ct, f1, &stats);
  const auto back = encoder_->decode(decryptor_->decrypt(out));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], f1(v[i]), 1e-2);
  // Cubic needs depth 2: x2 then x3, each one ct mult.
  EXPECT_EQ(stats.ct_mults, 2);
}

TEST_F(CkksTest, PolyEvalDepthMatchesLadderRule) {
  PafEvaluator pe(*ctx_, *encoder_, *relin_);
  std::vector<double> v(ctx_->slot_count(), 0.5);
  Ciphertext ct = encryptor_->encrypt(encoder_->encode(v, ctx_->scale(), ctx_->q_count()));
  // Degree-7 odd polynomial must consume ceil(log2(8)) = 3 levels.
  const sp::approx::Polynomial p({0.0, 0.5, 0.0, 0.25, 0.0, 0.125, 0.0, 0.0625});
  const Ciphertext out = pe.eval_poly(*evaluator_, ct, p);
  EXPECT_EQ(ct.level() - out.level(), 3);
  const auto back = encoder_->decode(decryptor_->decrypt(out));
  EXPECT_NEAR(back[0], p(0.5), 1e-2);
}

// encode_scalar writes the constant straight into NTT form. The reference
// here is the coefficient path it replaced: coefficient 0 set, then
// set_from_signed and a forward NTT per row.
TEST(EncodeScalar, MatchesCoefficientPathBitForBit) {
  const double largest = std::nextafter(4.6e18, 0.0);
  for (const CkksParams& params : {CkksParams::for_depth(8192, 10, 40), CkksParams::test_small()}) {
    const CkksContext ctx(params);
    const Encoder encoder(ctx);
    std::vector<std::pair<double, double>> cases;  // (value, scale)
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 3.7e-7, -3.7e-7})
      for (double scale : {1.0, ctx.scale()}) cases.emplace_back(v, scale);
    cases.emplace_back(largest, 1.0);
    cases.emplace_back(-largest, 1.0);
    for (int q_count = 1; q_count <= ctx.q_count(); ++q_count) {
      for (const auto& [value, scale] : cases) {
        std::vector<std::int64_t> coeffs(ctx.n(), 0);
        coeffs[0] = std::llround(value * scale);
        RnsPoly want(&ctx, q_count, /*with_special=*/false, /*ntt_form=*/false);
        want.set_from_signed(coeffs);
        want.to_ntt();

        const Plaintext got = encoder.encode_scalar(value, scale, q_count);
        ASSERT_TRUE(got.poly.is_ntt());
        ASSERT_FALSE(got.poly.has_special());
        ASSERT_EQ(got.poly.q_count(), q_count);
        EXPECT_EQ(got.scale, scale);
        bool same = true;
        for (int r = 0; r < q_count; ++r)
          for (std::size_t j = 0; j < ctx.n(); ++j)
            same = same && got.poly.row(r)[j] == want.row(r)[j];
        EXPECT_TRUE(same) << "n=" << ctx.n() << " q_count=" << q_count << " value=" << value
                          << " scale=" << scale;
      }
    }
  }
}

// multiply_scalar_inplace multiplies each row by its prime's residue with
// the Shoup kernel instead of building a plaintext; it must equal the
// product with the encode_scalar plaintext bit for bit.
TEST(MultiplyScalar, MatchesPlaintextProductBitForBit) {
  const CkksContext ctx(CkksParams::for_depth(8192, 10, 40));
  const Encoder encoder(ctx);
  const Evaluator ev(ctx);
  sp::Rng rng(41);
  for (int q_count = 1; q_count <= ctx.q_count(); ++q_count) {
    Ciphertext ct;  // uniform residues: every lane of every row is exercised
    ct.scale = ctx.scale();
    for (int part = 0; part < 2; ++part) {
      RnsPoly p(&ctx, q_count, /*with_special=*/false, /*ntt_form=*/true);
      p.sample_uniform(rng);
      ct.parts.push_back(std::move(p));
    }
    for (double value : {0.0, 1.0, -1.0, 0.5, -0.5, 3.7e-7, -3.7e-7}) {
      for (double scale : {1.0, ctx.scale()}) {
        Ciphertext want = ct, got = ct;
        ev.multiply_plain_inplace(want, encoder.encode_scalar(value, scale, q_count));
        const std::size_t plain_mults = ev.counters.plain_mults;
        ev.multiply_scalar_inplace(got, value, scale);
        EXPECT_EQ(ev.counters.plain_mults.load(), plain_mults + 1);
        EXPECT_EQ(got.scale, want.scale);
        bool same = true;
        for (int part = 0; part < 2; ++part)
          for (int r = 0; r < q_count; ++r)
            for (std::size_t j = 0; j < ctx.n(); ++j)
              same = same && got.parts[static_cast<std::size_t>(part)].row(r)[j] ==
                                 want.parts[static_cast<std::size_t>(part)].row(r)[j];
        EXPECT_TRUE(same) << "q_count=" << q_count << " value=" << value << " scale=" << scale;
      }
    }
  }
}

TEST(MultiplyScalar, NanAndOverflowThrowLikeEncodeScalar) {
  const CkksContext ctx(CkksParams::test_small());
  const Encoder encoder(ctx);
  const Evaluator ev(ctx);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto message = [](const auto& body) {
    try {
      body();
    } catch (const sp::Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::pair<double, double> cases[] = {{nan, ctx.scale()},
                                             {1.0, nan},
                                             {4.6e18, 1.0},
                                             {-4.6e18, 1.0},
                                             {1e7, ctx.scale() * 1e6},
                                             {std::numeric_limits<double>::infinity(), 1.0}};
  for (const auto& [value, scale] : cases) {
    Ciphertext ct;
    ct.scale = ctx.scale();
    for (int part = 0; part < 2; ++part)
      ct.parts.emplace_back(&ctx, ctx.q_count(), /*with_special=*/false, /*ntt_form=*/true);
    const std::string want =
        message([&] { encoder.encode_scalar(value, scale, ctx.q_count()); });
    EXPECT_FALSE(want.empty()) << "value=" << value << " scale=" << scale;
    EXPECT_EQ(message([&] { ev.multiply_scalar_inplace(ct, value, scale); }), want);
    EXPECT_EQ(ct.scale, ctx.scale());  // refused before any work
  }
}

TEST(EncodeScalar, NanAndOverflowThrow) {
  const CkksContext ctx(CkksParams::test_small());
  const Encoder encoder(ctx);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(encoder.encode_scalar(nan, ctx.scale(), ctx.q_count()), sp::Error);
  EXPECT_THROW(encoder.encode_scalar(1.0, nan, ctx.q_count()), sp::Error);
  EXPECT_THROW(encoder.encode_scalar(4.6e18, 1.0, ctx.q_count()), sp::Error);
  EXPECT_THROW(encoder.encode_scalar(-4.6e18, 1.0, ctx.q_count()), sp::Error);
  EXPECT_THROW(encoder.encode_scalar(1e7, ctx.scale() * 1e6, ctx.q_count()), sp::Error);
  EXPECT_THROW(encoder.encode_scalar(std::numeric_limits<double>::infinity(), 1.0, 1), sp::Error);
}

}  // namespace
