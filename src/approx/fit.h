#pragma once

#include <vector>

namespace sp::approx {

/// Solves the dense linear system A x = b (row-major A) with partial
/// pivoting. Exposed for reuse by the Remez solver and tests.
std::vector<double> solve_linear(std::vector<long double> a, std::vector<long double> b);

}  // namespace sp::approx
