#include "approx/fit.h"

#include <cmath>

#include "common/check.h"

namespace sp::approx {

std::vector<double> solve_linear(std::vector<long double> a,
                                 std::vector<long double> b) {
  const std::size_t n = b.size();
  check(a.size() == n * n, "solve_linear: dimension mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(static_cast<double>(a[r * n + col])) >
          std::abs(static_cast<double>(a[pivot * n + col])))
        pivot = r;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    check(a[col * n + col] != 0.0L, "solve_linear: singular matrix");
    for (std::size_t r = col + 1; r < n; ++r) {
      const long double factor = a[r * n + col] / a[col * n + col];
      if (factor == 0.0L) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t r = n; r-- > 0;) {
    long double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * x[c];
    x[r] = static_cast<double>(acc / a[r * n + r]);
  }
  return x;
}

}  // namespace sp::approx
