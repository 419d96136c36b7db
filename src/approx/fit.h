#pragma once

#include <vector>

#include "approx/polynomial.h"

namespace sp::approx {

/// One weighted regression sample for polynomial fitting.
struct Sample {
  double x = 0.0;
  double y = 0.0;
  double w = 1.0;
};

/// Weighted least-squares polynomial fit (normal equations, long-double
/// Gaussian elimination with partial pivoting and a small ridge term).
///
/// If `odd_only` is set, the basis is {x, x^3, x^5, ...} which preserves the
/// odd symmetry of sign-approximating PAFs. `degree` is the highest power.
Polynomial lsq_fit(const std::vector<Sample>& samples, int degree, bool odd_only,
                   double ridge = 1e-12);

/// Solves the dense linear system A x = b (row-major A) with partial
/// pivoting. Exposed for reuse by the Remez solver and tests.
std::vector<double> solve_linear(std::vector<long double> a, std::vector<long double> b);

}  // namespace sp::approx
