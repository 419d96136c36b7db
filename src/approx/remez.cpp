#include "approx/remez.h"

#include <cmath>
#include <vector>

#include "approx/fit.h"
#include "common/check.h"

namespace sp::approx {
namespace {

/// Builds the odd polynomial whose odd coefficients are `c` (c[k] multiplies
/// x^(2k+1)).
Polynomial odd_poly(const std::vector<double>& c) {
  std::vector<double> coeffs(2 * c.size(), 0.0);
  for (std::size_t k = 0; k < c.size(); ++k) coeffs[2 * k + 1] = c[k];
  return Polynomial(std::move(coeffs));
}

/// m + 1 Chebyshev-like starting points on [lo, hi].
std::vector<double> chebyshev_ref(double lo, double hi, std::size_t m) {
  std::vector<double> ref(m + 1);
  for (std::size_t i = 0; i <= m; ++i) {
    const double t = std::cos(M_PI * static_cast<double>(m - i) / static_cast<double>(m));
    ref[i] = lo + (hi - lo) * 0.5 * (t + 1.0);
  }
  return ref;
}

/// `grid` evenly spaced scan points from lo to hi, both included.
std::function<double(int)> even_grid(double lo, double hi, int grid) {
  return [=](int i) { return lo + (hi - lo) * static_cast<double>(i) / (grid - 1); };
}

/// The Remez exchange behind all three entry points. It fits the m
/// coefficients of {1, x, ..., x^(m-1)}, or of {x, x^3, ..., x^(2m-1)} when
/// `odd`, to `f`, starting from the m + 1 reference points `ref` and
/// scanning the error at grid_point(0 .. grid-1). Each iteration solves
/// p(x_i) + (-1)^i E = f(x_i) on the reference, keeps the largest |p - f| of
/// each sign run on the grid, trims to m + 1 points from the end with the
/// smaller error, and stops once E moves by < 1e-14 or the grid shows fewer
/// than m + 1 sign runs. `entry` names the caller in argument errors.
RemezResult exchange(const char* entry, bool odd, const std::function<double(double)>& f,
                     std::vector<double> ref, int grid,
                     const std::function<double(int)>& grid_point, int max_iters) {
  const std::size_t m = ref.size() - 1;  // free coefficients
  check_fmt(max_iters >= 1, entry, ": max_iters must be >= 1, got ", max_iters);
  check_fmt(grid >= 4 * static_cast<int>(m + 1), entry, ": grid ", grid,
            " too coarse for the degree, needs >= ", 4 * (m + 1));
  std::vector<double> xs(static_cast<std::size_t>(grid)), es(xs.size());
  for (int i = 0; i < grid; ++i) xs[static_cast<std::size_t>(i)] = grid_point(i);

  RemezResult result;
  double prev_err = -1.0;
  for (int iter = 0; iter < max_iters; ++iter) {
    // Solve p(x_i) + (-1)^i E = f(x_i) for the m coefficients and E.
    const std::size_t n = m + 1;
    std::vector<long double> a(n * n, 0.0L), b(n, 0.0L);
    for (std::size_t i = 0; i < n; ++i) {
      const long double x = ref[i];
      const long double step = odd ? x * x : x;
      long double xp = odd ? x : 1.0L;
      for (std::size_t k = 0; k < m; ++k) {
        a[i * n + k] = xp;
        xp *= step;
      }
      a[i * n + m] = (i % 2 == 0) ? 1.0L : -1.0L;
      b[i] = f(ref[i]);
    }
    const std::vector<double> sol = solve_linear(std::move(a), std::move(b));
    std::vector<double> coeffs(sol.begin(), sol.begin() + static_cast<long>(m));
    const double level = std::abs(sol[m]);
    Polynomial p = odd ? odd_poly(coeffs) : Polynomial(std::move(coeffs));

    // Greedy scan: keep the largest |e| in each run of constant sign of
    // e(x) = p(x) - f(x).
    for (std::size_t i = 0; i < xs.size(); ++i) es[i] = p(xs[i]) - f(xs[i]);
    std::vector<double> new_ref;
    std::size_t i = 0;
    while (i < xs.size()) {
      const bool pos = es[i] >= 0.0;
      std::size_t best = i;
      while (i < xs.size() && (es[i] >= 0.0) == pos) {
        if (std::abs(es[i]) > std::abs(es[best])) best = i;
        ++i;
      }
      new_ref.push_back(xs[best]);
    }
    // Keep exactly m+1 alternating points: trim from the side with the
    // smaller error if we found more sign runs than needed.
    while (new_ref.size() > m + 1) {
      const double e_front = std::abs(p(new_ref.front()) - f(new_ref.front()));
      const double e_back = std::abs(p(new_ref.back()) - f(new_ref.back()));
      if (e_front < e_back)
        new_ref.erase(new_ref.begin());
      else
        new_ref.pop_back();
    }
    result.poly = std::move(p);
    result.minimax_error = level;
    result.iterations = iter + 1;
    if (new_ref.size() < m + 1) break;  // error already below grid resolution
    ref = std::move(new_ref);
    if (prev_err >= 0.0 && std::abs(level - prev_err) < 1e-14) break;
    prev_err = level;
  }
  return result;
}

}  // namespace

RemezResult remez_fit(const std::function<double(double)>& f, double lo,
                      double hi, int degree, int max_iters, int grid) {
  check(degree >= 1, "remez_fit: degree >= 1 required");
  check(lo < hi, "remez_fit: empty interval");
  return exchange("remez_fit", /*odd=*/false, f,
                  chebyshev_ref(lo, hi, static_cast<std::size_t>(degree) + 1), grid,
                  even_grid(lo, hi, grid), max_iters);
}

RemezResult remez_fit_odd(const std::function<double(double)>& f, double hi,
                          int degree, int max_iters, int grid) {
  check(degree >= 1 && degree % 2 == 1, "remez_fit_odd: degree must be odd");
  check(hi > 0.0, "remez_fit_odd: hi > 0 required");
  const std::size_t m = static_cast<std::size_t>((degree + 1) / 2);  // free coefficients
  // Initial reference and grid on (0, hi] — x = 0 is excluded because the
  // odd error vanishes there and can never carry an alternation.
  std::vector<double> ref(m + 1);
  for (std::size_t i = 0; i <= m; ++i) {
    const double t = std::cos(M_PI * static_cast<double>(m - i) / static_cast<double>(m + 1));
    ref[i] = hi * 0.5 * (t + 1.0) + hi * 0.25 / static_cast<double>(grid);
  }
  return exchange("remez_fit_odd", /*odd=*/true, f, std::move(ref), grid,
                  [=](int i) { return hi * static_cast<double>(i + 1) / grid; }, max_iters);
}

RemezResult remez_sign(int degree, double eps, int max_iters, int grid) {
  check(degree >= 1 && degree % 2 == 1, "remez_sign: degree must be odd");
  check(eps > 0.0 && eps < 1.0, "remez_sign: eps in (0,1) required");
  // By odd symmetry: approximate the constant 1 on [eps, 1].
  const std::size_t m = static_cast<std::size_t>((degree + 1) / 2);
  return exchange("remez_sign", /*odd=*/true, [](double) { return 1.0; },
                  chebyshev_ref(eps, 1.0, m), grid, even_grid(eps, 1.0, grid), max_iters);
}

CompositePaf make_minimax_composite(const std::vector<int>& degrees, double eps0,
                                    const std::string& name) {
  check(!degrees.empty(), "make_minimax_composite: no stages");
  double lo = eps0, hi = 1.0;
  std::vector<Polynomial> stages;
  for (int d : degrees) {
    const RemezResult r = remez_sign(d, lo / hi);
    // The fit lives on [lo/hi, 1]; substitute x -> x/hi so the stage accepts
    // the previous stage's raw output range [lo, hi].
    std::vector<double> c = r.poly.coeffs();
    double p = 1.0;
    for (auto& ck : c) {
      ck /= p;
      p *= hi;
    }
    stages.emplace_back(std::move(c));
    lo = 1.0 - r.minimax_error;
    hi = 1.0 + r.minimax_error;
  }
  return CompositePaf(name, std::move(stages));
}

}  // namespace sp::approx
