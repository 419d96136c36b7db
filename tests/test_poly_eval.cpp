#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "approx/presets.h"
#include "common/rng.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

/// 2^-20: the parity budget between homomorphic evaluation (either strategy)
/// and the plaintext Horner reference, as max-abs error relative to
/// max(1, ||reference||_inf).
const double kParityTol = std::ldexp(1.0, -20);

/// Shared CKKS runtime: N = 4096 with depth 6 at Delta = 2^40, enough for
/// degree-31 polynomials (depth 5) with precision far below 2^-20.
class PolyEvalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(4096, 6, 40),
                                                 /*seed=*/2025);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  /// Dense random polynomial with coefficients ~1/(degree+1) so values on
  /// [-1, 1] stay O(1); the leading coefficient is kept solidly nonzero.
  static approx::Polynomial random_poly(int degree, std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> c(static_cast<std::size_t>(degree) + 1);
    for (auto& v : c) v = rng.uniform(-1.0, 1.0) / (degree + 1);
    if (std::abs(c.back()) < 1e-3) c.back() = 0.25 / (degree + 1);
    return approx::Polynomial(c);
  }

  /// Random odd polynomial (every PAF stage in the paper is odd).
  static approx::Polynomial random_odd_poly(int degree, std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> c(static_cast<std::size_t>(degree) + 1, 0.0);
    for (int k = 1; k <= degree; k += 2)
      c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / (degree + 1);
    if (std::abs(c.back()) < 1e-3) c.back() = 0.25 / (degree + 1);
    return approx::Polynomial(c);
  }

  static std::vector<double> random_inputs(std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> v(rt_->ctx().slot_count());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    return v;
  }

  /// Decoded output, levels consumed and the evaluator's ct-mult and relin
  /// counts over one eval_poly call.
  struct Run {
    std::vector<double> values;
    int ct_mults = 0;
    int relins = 0;
    int levels = 0;
  };

  static Run eval_with(PafEvaluator::Strategy strategy, const approx::Polynomial& p,
                       const Ciphertext& ct) {
    PafEvaluator pe(rt_->ctx(), rt_->encoder(), rt_->relin_key(), strategy);
    Evaluator& ev = rt_->evaluator();
    Run r;
    const OpCounters before = ev.counters;
    const Ciphertext out = pe.eval_poly(ev, ct, p);
    const OpCounters ops = ev.counters.delta_since(before);
    r.ct_mults = static_cast<int>(ops.ct_mults.load());
    r.relins = static_cast<int>(ops.relins.load());
    r.levels = ct.level() - out.level();
    r.values = rt_->decrypt(out);
    return r;
  }

  /// max |got - p(v)| / max(1, ||p(v)||_inf).
  static double relative_error(const std::vector<double>& got,
                               const std::vector<double>& inputs,
                               const approx::Polynomial& p) {
    double worst = 0.0, norm = 1.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const double ref = p(inputs[i]);
      norm = std::max(norm, std::abs(ref));
      worst = std::max(worst, std::abs(got[i] - ref));
    }
    return worst / norm;
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> PolyEvalTest::rt_;

/// Parity + cost sweep over dense random polynomials of every degree 3..31.
class DensePolyDegree : public PolyEvalTest, public ::testing::WithParamInterface<int> {};

TEST_P(DensePolyDegree, BsgsAndLadderAgreeWithHorner) {
  const int degree = GetParam();
  const approx::Polynomial p = random_poly(degree, 1000 + static_cast<std::uint64_t>(degree));
  const auto inputs = random_inputs(77);
  const Ciphertext ct = rt_->encrypt(inputs);

  const Run ladder = eval_with(PafEvaluator::Strategy::Ladder, p, ct);
  const Run bsgs = eval_with(PafEvaluator::Strategy::BSGS, p, ct);

  // Both strategies reproduce the plaintext Horner evaluation to < 2^-20.
  EXPECT_LT(relative_error(ladder.values, inputs, p), kParityTol) << "degree " << degree;
  EXPECT_LT(relative_error(bsgs.values, inputs, p), kParityTol) << "degree " << degree;

  // BSGS consumes exactly the same levels as the ladder bound...
  EXPECT_EQ(ladder.levels, static_cast<int>(std::ceil(std::log2(degree + 1.0))));
  EXPECT_EQ(bsgs.levels, ladder.levels);

  // ...and never more ct-ct mults. Strictly fewer from degree 8 up: degree 7
  // is the one depth wall (7 + 1 = 2^3 leaves zero level slack, and any
  // depth-3 schedule for a dense degree-7 polynomial needs the full ladder's
  // 5 multiplications), so there BSGS falls back to the identical schedule.
  EXPECT_LE(bsgs.ct_mults, ladder.ct_mults) << "degree " << degree;
  if (degree >= 8) {
    EXPECT_LT(bsgs.ct_mults, ladder.ct_mults) << "degree " << degree;
  }

  // The pure planner predicts each executed schedule exactly, so a saving
  // read off predict_poly() is the saving the evaluator delivers.
  EXPECT_EQ(PafEvaluator::predict_poly(p, PafEvaluator::Strategy::Ladder).ct_mults,
            ladder.ct_mults);
  EXPECT_EQ(PafEvaluator::predict_poly(p, PafEvaluator::Strategy::BSGS).ct_mults,
            bsgs.ct_mults);
  // Lazy relinearization defers window-product relins to the joins: never
  // more relins than mults.
  EXPECT_LE(bsgs.relins, bsgs.ct_mults);
}

INSTANTIATE_TEST_SUITE_P(Degrees, DensePolyDegree,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                           16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26,
                                           27, 28, 29, 30, 31));

/// The paper's PAF stages are odd; the sweep repeats on odd polynomials.
class OddPolyDegree : public PolyEvalTest, public ::testing::WithParamInterface<int> {};

TEST_P(OddPolyDegree, BsgsAndLadderAgreeWithHorner) {
  const int degree = GetParam();
  const approx::Polynomial p = random_odd_poly(degree, 500 + static_cast<std::uint64_t>(degree));
  const auto inputs = random_inputs(91);
  const Ciphertext ct = rt_->encrypt(inputs);

  const Run ladder = eval_with(PafEvaluator::Strategy::Ladder, p, ct);
  const Run bsgs = eval_with(PafEvaluator::Strategy::BSGS, p, ct);

  EXPECT_LT(relative_error(ladder.values, inputs, p), kParityTol) << "degree " << degree;
  EXPECT_LT(relative_error(bsgs.values, inputs, p), kParityTol) << "degree " << degree;
  EXPECT_EQ(bsgs.levels, ladder.levels);
  EXPECT_LE(bsgs.ct_mults, ladder.ct_mults) << "degree " << degree;
  if (degree >= 9) {
    EXPECT_LT(bsgs.ct_mults, ladder.ct_mults) << "degree " << degree;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, OddPolyDegree,
                         ::testing::Values(7, 9, 11, 13, 15, 21, 27, 31));

TEST_F(PolyEvalTest, PowerBasisIsDepthOptimalAndMemoized) {
  const auto inputs = random_inputs(5);
  const Ciphertext ct = rt_->encrypt(inputs);
  Evaluator& ev = rt_->evaluator();
  const OpCounters before = ev.counters;
  PowerBasis basis(rt_->relin_key(), ct);
  for (int e = 1; e <= 16; ++e) {
    const Ciphertext& xe = basis.power(ev, e);
    EXPECT_EQ(ct.level() - xe.level(),
              static_cast<int>(std::ceil(std::log2(static_cast<double>(e)))))
        << "x^" << e;
  }
  // All of x^1..x^16 takes exactly 15 multiplications (one per new power)...
  EXPECT_EQ(ev.counters.delta_since(before).ct_mults.load(), 15u);
  // ...and re-requesting any of them is free.
  basis.power(ev, 16);
  basis.power(ev, 7);
  EXPECT_EQ(ev.counters.delta_since(before).ct_mults.load(), 15u);
}

TEST_F(PolyEvalTest, MultDepthHelperMatchesLadderBound) {
  EXPECT_EQ(PafEvaluator::mult_depth(approx::Polynomial({0.0, 1.0})), 1);
  EXPECT_EQ(PafEvaluator::mult_depth(random_poly(7, 1)), 3);
  EXPECT_EQ(PafEvaluator::mult_depth(random_poly(8, 2)), 4);
  EXPECT_EQ(PafEvaluator::mult_depth(random_poly(31, 3)), 5);
  // Trailing structural zeros do not count toward depth.
  EXPECT_EQ(PafEvaluator::mult_depth(approx::Polynomial({0.0, 1.0, 0.5, 0.0, 0.0})), 2);
}

// The planner runs every unforced PAF stage under BSGS without pricing
// Ladder; that is only sound while BSGS never predicts more of any op.
TEST(PredictComposite, BsgsNeverExceedsLadderOnAnyPreset) {
  for (const approx::PafForm form : approx::all_forms()) {
    const approx::CompositePaf paf = approx::make_paf(form);
    const SchedulePrediction bsgs =
        PafEvaluator::predict_composite(paf, PafEvaluator::Strategy::BSGS);
    const SchedulePrediction ladder =
        PafEvaluator::predict_composite(paf, PafEvaluator::Strategy::Ladder);
    const std::string name = approx::form_name(form);
    EXPECT_LE(bsgs.ct_mults, ladder.ct_mults) << name;
    EXPECT_LE(bsgs.relins, ladder.relins) << name;
    EXPECT_LE(bsgs.rescales, ladder.rescales) << name;
    EXPECT_LE(bsgs.plain_mults, ladder.plain_mults) << name;
    EXPECT_EQ(bsgs.levels, ladder.levels) << name;
  }
}

}  // namespace
