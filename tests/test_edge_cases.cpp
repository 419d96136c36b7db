#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/table.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/techniques.h"

namespace {

using namespace sp;
using namespace sp::fhe;

/// Small shared runtime (N=2048, depth 5) for error-path and property tests.
class EdgeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CkksParams p = CkksParams::for_depth(2048, 5, 30);
    p.q_bits[0] = 45;
    p.special_bits = 45;
    rt_ = std::make_unique<smartpaf::FheRuntime>(p);
  }
  static void TearDownTestSuite() { rt_.reset(); }
  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};
std::unique_ptr<smartpaf::FheRuntime> EdgeTest::rt_;

TEST_F(EdgeTest, AddRejectsMismatchedLevels) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  Ciphertext a = rt_->encrypt(v), b = rt_->encrypt(v);
  rt_->evaluator().drop_to_level(b, b.level() - 1);
  EXPECT_THROW(rt_->evaluator().add(a, b), sp::Error);
}

TEST_F(EdgeTest, AddRejectsMismatchedScales) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  Ciphertext a = rt_->encrypt(v), b = rt_->encrypt(v);
  b.scale *= 2.0;
  EXPECT_THROW(rt_->evaluator().add(a, b), sp::Error);
}

TEST_F(EdgeTest, RescaleAtLevelZeroThrows) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  Ciphertext a = rt_->encrypt(v);
  rt_->evaluator().drop_to_level(a, 0);
  EXPECT_THROW(rt_->evaluator().rescale_inplace(a), sp::Error);
}

TEST_F(EdgeTest, DropToLevelRejectsUpwardMoves) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  Ciphertext a = rt_->encrypt(v);
  rt_->evaluator().drop_to_level(a, 1);
  EXPECT_THROW(rt_->evaluator().drop_to_level(a, 3), sp::Error);
}

TEST_F(EdgeTest, RelinearizeRequiresThreeParts) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  Ciphertext a = rt_->encrypt(v);
  EXPECT_THROW(rt_->evaluator().relinearize_inplace(a, rt_->relin_key()), sp::Error);
}

TEST_F(EdgeTest, RotateRequiresMatchingGaloisKey) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  const Ciphertext a = rt_->encrypt(v);
  GaloisKeys empty;
  EXPECT_THROW(rt_->evaluator().rotate(a, 1, empty), sp::Error);
}

TEST_F(EdgeTest, EvalPolyRejectsExcessDegreeForRemainingLevels) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  Ciphertext a = rt_->encrypt(v);
  rt_->evaluator().drop_to_level(a, 1);
  const approx::Polynomial deg7({0, 1, 0, 1, 0, 1, 0, 1});
  EXPECT_THROW(rt_->paf_evaluator().eval_poly(rt_->evaluator(), a, deg7), sp::Error);
}

TEST_F(EdgeTest, ReluRejectsNonPositiveScale) {
  std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  const Ciphertext a = rt_->encrypt(v);
  const auto paf = approx::make_paf(approx::PafForm::F1_G2);
  EXPECT_THROW(rt_->paf_evaluator().relu(rt_->evaluator(), a, paf, 0.0), sp::Error);
  // max shares relu's sign half and its check: a non-positive bound on
  // |a - b| is an error, not a silently wrong (or unrelated) result. The
  // depth-2 sign stage fits this 5-level chain, so only the check can fail.
  const approx::CompositePaf deg3("deg3", {approx::Polynomial({0.0, 1.5, 0.0, -0.5})});
  const Ciphertext b = rt_->encrypt(std::vector<double>(rt_->ctx().slot_count(), -0.25));
  for (const double bad : {0.0, -1.0}) {
    std::string msg;
    try {
      rt_->paf_evaluator().max(rt_->evaluator(), a, b, deg3, bad);
    } catch (const sp::Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("input_scale must be positive"), std::string::npos)
        << "input_scale " << bad << ": '" << msg << "'";
  }
}

TEST_F(EdgeTest, RotationsCompose) {
  // rot(rot(x, a), b) == rot(x, a+b)
  sp::fhe::KeyGenerator kg(rt_->ctx(), 2024);  // FheRuntime's seed -> same secret
  const auto gk = kg.galois_keys({2, 3, 5});
  std::vector<double> v(rt_->ctx().slot_count());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.001 * static_cast<double>(i % 97);
  fhe::Encryptor enc(rt_->ctx(), kg.public_key(), 9);
  fhe::Decryptor dec(rt_->ctx(), kg.secret_key());
  const Ciphertext ct =
      enc.encrypt(rt_->encoder().encode(v, rt_->ctx().scale(), rt_->ctx().q_count()));
  const Ciphertext two_step =
      rt_->evaluator().rotate(rt_->evaluator().rotate(ct, 2, gk), 3, gk);
  const Ciphertext one_step = rt_->evaluator().rotate(ct, 5, gk);
  const auto a = rt_->encoder().decode(dec.decrypt(two_step));
  const auto b = rt_->encoder().decode(dec.decrypt(one_step));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-2);
}

/// Property sweep: homomorphic evaluation of random odd polynomials matches
/// the plaintext Horner evaluation for every degree 3..13.
class OddPolyDegree : public EdgeTest, public ::testing::WithParamInterface<int> {};

TEST_P(OddPolyDegree, HomomorphicMatchesPlaintext) {
  const int degree = GetParam();
  sp::Rng rng(static_cast<std::uint64_t>(degree) * 7 + 1);
  std::vector<double> coeffs(static_cast<std::size_t>(degree) + 1, 0.0);
  for (int k = 1; k <= degree; k += 2) coeffs[static_cast<std::size_t>(k)] = rng.uniform(-1.5, 1.5);
  const approx::Polynomial p(coeffs);

  std::vector<double> v(rt_->ctx().slot_count());
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt_->encrypt(v);
  EvalStats stats;
  const Ciphertext out = rt_->paf_evaluator().eval_poly(rt_->evaluator(), ct, p, &stats);
  // Depth is exactly the power-ladder bound.
  EXPECT_EQ(ct.level() - out.level(),
            static_cast<int>(std::ceil(std::log2(degree + 1.0))));
  const auto got = rt_->decrypt(out);
  for (std::size_t i = 0; i < v.size(); i += 97)
    EXPECT_NEAR(got[i], p(v[i]), 2e-2) << "slot " << i;
}

INSTANTIATE_TEST_SUITE_P(Degrees, OddPolyDegree, ::testing::Values(3, 5, 7, 9, 11, 13));

TEST(EdgeChecks, TableRejectsArityMismatch) {
  sp::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), sp::Error);
}

TEST(EdgeChecks, ContextRejectsNonPowerOfTwoN) {
  CkksParams p = CkksParams::test_small();
  p.poly_degree = 3000;
  EXPECT_THROW(CkksContext ctx(p), sp::Error);
}

TEST(EdgeChecks, ContextRejectsEmptyChain) {
  CkksParams p = CkksParams::test_small();
  p.q_bits.clear();
  EXPECT_THROW(CkksContext ctx(p), sp::Error);
}

TEST(EdgeChecks, ContextRejectsUnsafeNoiseWidth) {
  // sigma = 0 samples no error; NaN, inf and 1e300 overflow the sampler into
  // one constant; 1.0 and -3.2 sit below the HE-standard width. Each would
  // let the public key reveal the secret key.
  for (const double sigma : {0.0, -3.2, std::nan(""), HUGE_VAL, 1.0, 1e300}) {
    CkksParams p = CkksParams::test_small();
    p.noise_stddev = sigma;
    std::string what = "(accepted)";
    try {
      CkksContext ctx(p);
    } catch (const sp::Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("noise_stddev"), std::string::npos) << "sigma " << sigma << ": " << what;
  }
  CkksParams p = CkksParams::test_small();
  p.noise_stddev = 3.19;
  EXPECT_NO_THROW(CkksContext ctx(p));
}

TEST(EdgeChecks, CompositeRejectsEmptyStageList) {
  EXPECT_THROW(approx::CompositePaf("x", {}), sp::Error);
}

TEST(EdgeChecks, LoadCoeffsRejectsWrongArity) {
  auto paf = approx::make_paf(approx::PafForm::F1_G2);
  EXPECT_THROW(paf.load_coeffs({1.0, 2.0}), sp::Error);
}

}  // namespace
