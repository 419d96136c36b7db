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

Polynomial lsq_fit(const std::vector<Sample>& samples, int degree, bool odd_only,
                   double ridge) {
  check(degree >= 1, "lsq_fit: degree must be >= 1");
  check(!samples.empty(), "lsq_fit: no samples");
  // Basis exponents.
  std::vector<int> expo;
  for (int e = odd_only ? 1 : 0; e <= degree; e += odd_only ? 2 : 1)
    expo.push_back(e);
  const std::size_t m = expo.size();

  std::vector<long double> ata(m * m, 0.0L), atb(m, 0.0L);
  std::vector<long double> powers(static_cast<std::size_t>(degree) + 1);
  for (const auto& s : samples) {
    powers[0] = 1.0L;
    for (int e = 1; e <= degree; ++e) powers[static_cast<std::size_t>(e)] = powers[static_cast<std::size_t>(e - 1)] * s.x;
    for (std::size_t i = 0; i < m; ++i) {
      const long double bi = powers[static_cast<std::size_t>(expo[i])];
      atb[i] += s.w * bi * s.y;
      for (std::size_t j = i; j < m; ++j)
        ata[i * m + j] += s.w * bi * powers[static_cast<std::size_t>(expo[j])];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    ata[i * m + i] += ridge;
    for (std::size_t j = 0; j < i; ++j) ata[i * m + j] = ata[j * m + i];
  }
  const std::vector<double> sol = solve_linear(std::move(ata), std::move(atb));

  std::vector<double> coeffs(static_cast<std::size_t>(degree) + 1, 0.0);
  for (std::size_t i = 0; i < m; ++i) coeffs[static_cast<std::size_t>(expo[i])] = sol[i];
  return Polynomial(std::move(coeffs));
}

}  // namespace sp::approx
