#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "approx/composite.h"
#include "approx/distribution.h"
#include "approx/fit.h"
#include "approx/polynomial.h"
#include "approx/presets.h"
#include "approx/remez.h"
#include "common/check.h"
#include "common/hash.h"

namespace {

using sp::approx::CompositePaf;
using sp::approx::Polynomial;

TEST(Polynomial, HornerMatchesDirectEvaluation) {
  const Polynomial p({1.0, -2.0, 0.5, 3.0});
  for (double x : {-2.0, -0.5, 0.0, 0.3, 1.7}) {
    const double direct = 1.0 - 2.0 * x + 0.5 * x * x + 3.0 * x * x * x;
    EXPECT_NEAR(p(x), direct, 1e-12);
  }
}

TEST(Polynomial, DegreeAndCoeffAccess) {
  const Polynomial p({0.0, 1.0, 0.0, -0.5});
  EXPECT_EQ(p.degree(), 3);
  EXPECT_DOUBLE_EQ(p.coeff(3), -0.5);
  EXPECT_DOUBLE_EQ(p.coeff(7), 0.0);
  EXPECT_DOUBLE_EQ(p.coeff(-1), 0.0);
}

TEST(Polynomial, DerivativeMatchesFiniteDifference) {
  const Polynomial p({0.3, -1.0, 2.0, 0.7, -0.2});
  const double h = 1e-6;
  for (double x : {-1.0, -0.2, 0.0, 0.9}) {
    const double fd = (p(x + h) - p(x - h)) / (2 * h);
    EXPECT_NEAR(p.derivative_at(x), fd, 1e-5);
  }
}

TEST(Polynomial, DerivativePolynomialAgreesWithPointwise) {
  const Polynomial p({1.0, 2.0, 3.0, 4.0});
  const Polynomial d = p.derivative();
  for (double x : {-1.5, 0.0, 2.0}) EXPECT_NEAR(d(x), p.derivative_at(x), 1e-12);
}

TEST(Polynomial, ArithmeticOperators) {
  const Polynomial a({1.0, 2.0});
  const Polynomial b({0.0, -1.0, 3.0});
  const Polynomial sum = a + b;
  EXPECT_DOUBLE_EQ(sum.coeff(0), 1.0);
  EXPECT_DOUBLE_EQ(sum.coeff(1), 1.0);
  EXPECT_DOUBLE_EQ(sum.coeff(2), 3.0);
  const Polynomial prod = a * b;
  // (1 + 2x)(-x + 3x^2) = -x + 3x^2 - 2x^2 + 6x^3 = -x + x^2 + 6x^3
  EXPECT_DOUBLE_EQ(prod.coeff(1), -1.0);
  EXPECT_DOUBLE_EQ(prod.coeff(2), 1.0);
  EXPECT_DOUBLE_EQ(prod.coeff(3), 6.0);
}

TEST(Polynomial, SymbolicComposeMatchesNestedEvaluation) {
  const Polynomial inner({0.0, 1.5, 0.0, -0.5});
  const Polynomial outer({0.0, 2.0, 0.0, -1.0});
  const Polynomial composed = outer.compose(inner);
  for (double x : {-0.9, -0.3, 0.0, 0.4, 1.0})
    EXPECT_NEAR(composed(x), outer(inner(x)), 1e-9);
}

TEST(Polynomial, OddDetection) {
  EXPECT_TRUE(Polynomial({0.0, 1.5, 0.0, -0.5}).is_odd());
  EXPECT_FALSE(Polynomial({0.1, 1.5, 0.0, -0.5}).is_odd());
  EXPECT_FALSE(Polynomial({0.0, 1.5, 0.2, -0.5}).is_odd());
}

TEST(Composite, EvalOrderIsPaperNotation) {
  // "f ∘ g" applies f first, g last (Eq. 8): stages [f, g] -> g(f(x)).
  const Polynomial f({0.0, 2.0});        // 2x
  const Polynomial g({1.0, 0.0, 1.0});   // 1 + x^2
  const CompositePaf c("test", {f, g});
  EXPECT_NEAR(c(3.0), 1.0 + 36.0, 1e-12);  // g(f(3)) = g(6) = 37
}

TEST(Composite, DegreeSumAndProduct) {
  const CompositePaf c("test", {Polynomial({0.0, 1.0, 0.0, 1.0}),
                                Polynomial({0.0, 1.0, 0.0, 0.0, 0.0, 1.0})});
  EXPECT_EQ(c.degree_sum(), 8);
  EXPECT_EQ(c.degree_product(), 15);
}

TEST(Composite, FlattenLoadRoundTrip) {
  CompositePaf c("test", {Polynomial({0.0, 1.5, 0.0, -0.5}), Polynomial({0.0, 2.0})});
  auto flat = c.flatten_coeffs();
  ASSERT_EQ(flat.size(), 6u);
  flat[1] = 9.0;
  c.load_coeffs(flat);
  EXPECT_DOUBLE_EQ(c.stages()[0].coeff(1), 9.0);
}

TEST(Composite, BackwardMatchesFiniteDifferenceInput) {
  CompositePaf c("test", {Polynomial({0.0, 1.5, 0.0, -0.5}),
                          Polynomial({0.0, 2.1, 0.0, -1.3})});
  CompositePaf::Tape tape;
  const double x = 0.37;
  c.forward(x, tape);
  std::vector<double> cg(static_cast<std::size_t>(c.num_coeffs()), 0.0);
  const double dx = c.backward(tape, 1.0, cg);
  const double h = 1e-6;
  EXPECT_NEAR(dx, (c(x + h) - c(x - h)) / (2 * h), 1e-6);
}

TEST(Composite, BackwardMatchesFiniteDifferenceCoeffs) {
  CompositePaf c("test", {Polynomial({0.0, 1.5, 0.0, -0.5}),
                          Polynomial({0.0, 2.1, 0.0, -1.3})});
  const double x = -0.61;
  CompositePaf::Tape tape;
  c.forward(x, tape);
  std::vector<double> cg(static_cast<std::size_t>(c.num_coeffs()), 0.0);
  c.backward(tape, 1.0, cg);
  auto flat = c.flatten_coeffs();
  const double h = 1e-6;
  for (std::size_t k = 0; k < flat.size(); ++k) {
    auto up = flat, dn = flat;
    up[k] += h;
    dn[k] -= h;
    CompositePaf cu = c, cd = c;
    cu.load_coeffs(up);
    cd.load_coeffs(dn);
    EXPECT_NEAR(cg[k], (cu(x) - cd(x)) / (2 * h), 1e-5) << "coeff " << k;
  }
}

TEST(Composite, PafReluApproximatesRelu) {
  // A crude sign approximation still yields a recognisable ReLU shape.
  const CompositePaf c("f1", {Polynomial({0.0, 1.5, 0.0, -0.5})});
  EXPECT_NEAR(sp::approx::paf_relu(c, 1.0), 1.0, 1e-9);
  EXPECT_NEAR(sp::approx::paf_relu(c, -1.0), 0.0, 1e-9);
  EXPECT_NEAR(sp::approx::paf_relu(c, 0.0), 0.0, 1e-12);
}

TEST(Composite, PafMaxIsSymmetricallyWrong) {
  const CompositePaf c("f1", {Polynomial({0.0, 1.5, 0.0, -0.5})});
  // Exact when |a-b| = 1 (sign(±1) exact for f1).
  EXPECT_NEAR(sp::approx::paf_max(c, 1.0, 0.0), 1.0, 1e-9);
  EXPECT_NEAR(sp::approx::paf_max(c, 0.0, 1.0), 1.0, 1e-9);
}

TEST(Fit, SolveLinearSolvesRandomSystem) {
  const std::vector<long double> a = {2.0L, 1.0L, -1.0L,  //
                                      -3.0L, -1.0L, 2.0L, //
                                      -2.0L, 1.0L, 2.0L};
  const std::vector<long double> b = {8.0L, -11.0L, -3.0L};
  const auto x = sp::approx::solve_linear(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
  EXPECT_NEAR(x[2], -1.0, 1e-10);
}

class RemezDegree : public ::testing::TestWithParam<int> {};

TEST_P(RemezDegree, ErrorDecreasesAndEquioscillates) {
  const int degree = GetParam();
  const auto r = sp::approx::remez_sign(degree, 0.1);
  EXPECT_GT(r.minimax_error, 0.0);
  EXPECT_LT(r.minimax_error, 1.0);
  EXPECT_TRUE(r.poly.is_odd(1e-9));
  // Verify the achieved max error on a fine grid is close to the reported E.
  double worst = 0.0;
  for (int i = 0; i <= 4000; ++i) {
    const double x = 0.1 + 0.9 * i / 4000.0;
    worst = std::max(worst, std::abs(r.poly(x) - 1.0));
  }
  EXPECT_NEAR(worst, r.minimax_error, 0.05 * r.minimax_error + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Degrees, RemezDegree, ::testing::Values(3, 5, 7, 9, 13));

TEST(Remez, HigherDegreeIsMoreAccurate) {
  const auto r5 = sp::approx::remez_sign(5, 0.05);
  const auto r13 = sp::approx::remez_sign(13, 0.05);
  EXPECT_LT(r13.minimax_error, r5.minimax_error);
}

TEST(Remez, EntryPointsRejectCoarseGridAndZeroIterations) {
  using sp::approx::RemezResult;
  const auto expect_error = [](const std::string& entry, const char* field,
                               const std::function<RemezResult()>& fit) {
    std::string msg;
    try {
      fit();
    } catch (const sp::Error& e) {
      msg = e.what();
    }
    EXPECT_EQ(msg.rfind(entry + ": " + field, 0), 0u) << entry << ": '" << msg << "'";
  };
  const auto smooth = [](double x) { return std::atan(2.0 * x); };
  const struct {
    int max_iters, grid;
    const char* field;
  } bad[] = {{50, 2, "grid"}, {0, 8192, "max_iters"}};
  for (const auto& b : bad) {
    expect_error("remez_fit", b.field, [&] {
      return sp::approx::remez_fit(smooth, -1.0, 1.0, 6, b.max_iters, b.grid);
    });
    expect_error("remez_fit_odd", b.field, [&] {
      return sp::approx::remez_fit_odd(smooth, 1.0, 7, b.max_iters, b.grid);
    });
    expect_error("remez_sign", b.field,
                 [&] { return sp::approx::remez_sign(7, 0.1, b.max_iters, b.grid); });
  }
  // The bound is 4 grid points per reference point: 20 at degree 7.
  EXPECT_NO_THROW(sp::approx::remez_sign(7, 0.1, 50, 20));
}

// Bit pins of every Remez fit the library builds: the FNV digest of the
// coefficients, the exact minimax_error bits and the exchange count. A change
// to the exchange loop must keep all three.
struct FitPin {
  std::uint64_t coeffs, error;
  int iterations;  // -1: the entry point does not report it
};

std::uint64_t double_bits(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

void expect_fit_pin(const std::string& what, const std::vector<double>& coeffs,
                    double error, int iterations, const FitPin& pin) {
  const std::uint64_t digest = sp::fnv_doubles(sp::kFnvOffset, coeffs);
  EXPECT_EQ(digest, pin.coeffs) << what << ": coeffs 0x" << std::hex << digest;
  EXPECT_EQ(double_bits(error), pin.error)
      << what << ": error 0x" << std::hex << double_bits(error);
  if (pin.iterations >= 0) {
    EXPECT_EQ(iterations, pin.iterations) << what;
  }
}

TEST(RemezPins, SignFits) {
  const struct {
    int degree;
    FitPin pin;
  } pins[] = {
      {3, {0xa769abbea5152cedULL, 0x3fe36e6de0199901ULL, 3}},
      {5, {0x83d4ac90e93f0222ULL, 0x3fdd04c84f1be706ULL, 4}},
      {7, {0x26c927e1cbcf6fbcULL, 0x3fd5e801fc3a22b2ULL, 4}},
      {9, {0x1109f8d6795792a9ULL, 0x3fd0b2bd8ce99897ULL, 6}},
      {13, {0x9465ec59a260937aULL, 0x3fc3d9f5176ac21cULL, 6}},
      {27, {0xa770ea9eeeb5c9a9ULL, 0x3f9d836e9b19076dULL, 7}},
  };
  for (const auto& p : pins) {
    const auto r = sp::approx::remez_sign(p.degree, 0.1);
    expect_fit_pin("remez_sign degree " + std::to_string(p.degree), r.poly.coeffs(),
                   r.minimax_error, r.iterations, p.pin);
  }
}

TEST(RemezPins, Alpha10D27Composite) {
  const auto paf = sp::approx::make_paf(sp::approx::PafForm::ALPHA10_D27);
  const std::uint64_t digest = sp::fnv_doubles(sp::kFnvOffset, paf.flatten_coeffs());
  EXPECT_EQ(digest, 0x617880a232db1df4ULL) << "0x" << std::hex << digest;
}

TEST(RemezPins, SigmoidAndInvSqrtFits) {
  const struct {
    int degree;
    double range;
    FitPin pin;
  } sigmoid[] = {
      {3, 8.0, {0x05e84cbee35d2c19ULL, 0x3fb6e6e004dcbd7fULL, -1}},
      {5, 8.0, {0xd6e7eccb50cb7e65ULL, 0x3fa4eab9bad78537ULL, -1}},
      {7, 8.0, {0x51aa2470ad27e7a9ULL, 0x3f9358812dc57b23ULL, -1}},
      {3, 4.0, {0xe4db066466b1e67aULL, 0x3f974e85a4ea6e4cULL, -1}},
  };
  for (const auto& p : sigmoid) {
    const auto s = sp::approx::sigmoid_paf(p.degree, p.range);
    expect_fit_pin("sigmoid_paf degree " + std::to_string(p.degree) + " range " +
                       std::to_string(p.range),
                   s.poly.coeffs(), s.max_error, -1, p.pin);
  }
  const struct {
    int degree;
    FitPin pin;
  } invsqrt[] = {
      {3, {0x6ea7b9ddf6d035bcULL, 0x3fb9f9e20d7f3541ULL, -1}},
      {5, {0x47d87222f4a2dcd4ULL, 0x3f9940301d350eb1ULL, -1}},
  };
  for (const auto& p : invsqrt) {
    const auto s = sp::approx::invsqrt_paf(p.degree, 1.0, 0.1);
    expect_fit_pin("invsqrt_paf degree " + std::to_string(p.degree), s.poly.coeffs(),
                   s.max_error, -1, p.pin);
  }
}

TEST(RemezPins, FullAndOddBasisFits) {
  const auto full = sp::approx::remez_fit([](double x) { return std::exp(x); }, -1.0, 1.0, 6);
  expect_fit_pin("remez_fit exp", full.poly.coeffs(), full.minimax_error, full.iterations,
                 {0x3963d571585e267dULL, 0x3ecaef4de5f2cef4ULL, 4});
  const auto odd = sp::approx::remez_fit_odd([](double x) { return std::atan(2.0 * x); }, 1.0, 7);
  expect_fit_pin("remez_fit_odd atan", odd.poly.coeffs(), odd.minimax_error, odd.iterations,
                 {0x23d32a3ba0466b64ULL, 0x3f6a92b1c9e1cbe5ULL, 5});
}

TEST(Distribution, RunningStatsAndReservoir) {
  sp::approx::DistributionProfile prof(1024);
  for (int i = 0; i < 5000; ++i) prof.record(static_cast<double>(i % 100) - 50.0);
  EXPECT_EQ(prof.count(), 5000u);
  EXPECT_DOUBLE_EQ(prof.min(), -50.0);
  EXPECT_DOUBLE_EQ(prof.max(), 49.0);
  EXPECT_DOUBLE_EQ(prof.abs_max(), 50.0);
  EXPECT_EQ(prof.reservoir().size(), 1024u);
  EXPECT_NEAR(prof.quantile(0.5), -0.5, 5.0);
}

TEST(Distribution, HistogramNormalized) {
  sp::approx::DistributionProfile prof(4096);
  for (int i = 0; i < 4096; ++i) prof.record(i % 2 == 0 ? -1.0 : 1.0);
  const auto h = prof.histogram(4);
  double total = 0;
  for (double v : h) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(h.front(), 0.4);
  EXPECT_GT(h.back(), 0.4);
}

}  // namespace
