#pragma once

#include <functional>
#include <string>
#include <vector>

#include "approx/composite.h"
#include "approx/polynomial.h"

namespace sp::approx {

/// Result of a Remez exchange run. The three fits below share one exchange
/// loop; each throws sp::Error, naming itself, when max_iters < 1 or when
/// grid < 4 (m + 1) for its m + 1 reference points.
struct RemezResult {
  Polynomial poly;          ///< minimax polynomial (odd for remez_sign)
  double minimax_error = 0; ///< achieved equioscillating error magnitude
  int iterations = 0;       ///< exchange iterations performed
};

/// Minimax approximation of an arbitrary continuous `f` on [lo, hi] with the
/// full basis {1, x, ..., x^degree}, via the Remez exchange algorithm.
///
/// Generalizes `remez_sign` (which exploits odd symmetry) to any target: the
/// exchange keeps degree+2 alternation points, solves p(x_i) + (-1)^i E =
/// f(x_i), and re-seats the reference on the extrema of the error until the
/// levels equalize. Callers fitting over wide ranges should normalize the
/// interval first (fit f(R*u) on [-1, 1], then substitute u -> x/R) so the
/// Vandermonde solve stays well-conditioned — see sigmoid_paf.
RemezResult remez_fit(const std::function<double(double)>& f, double lo,
                      double hi, int degree, int max_iters = 50,
                      int grid = 8192);

/// Minimax approximation of an *odd* continuous `f` on [-hi, hi] by an odd
/// polynomial with basis {x, x^3, ..., x^degree} (degree odd).
///
/// Symmetric targets degenerate the full-basis exchange: the best
/// approximation is odd, so its error is odd and cannot alternate degree+2
/// times across a symmetric interval — remez_fit's solve then collapses to
/// E = 0 interpolation. By odd symmetry the problem instead reduces to the
/// half interval [0, hi] with m = (degree+1)/2 free coefficients and m+1
/// alternation points, which is what this exchange runs (the remez_sign
/// construction with an arbitrary odd target).
RemezResult remez_fit_odd(const std::function<double(double)>& f, double hi,
                          int degree, int max_iters = 50, int grid = 8192);

/// Minimax approximation of sign(x) on [-1,-eps] ∪ [eps,1] by an *odd*
/// polynomial of odd degree `degree`, via the Remez exchange algorithm.
///
/// By odd symmetry this reduces to the Chebyshev problem of approximating the
/// constant 1 on [eps, 1] with the basis {x, x^3, ..., x^degree}. This is the
/// classical construction used by the minimax baselines (Lee et al. 2021)
/// that SMART-PAF compares against.
RemezResult remez_sign(int degree, double eps, int max_iters = 50,
                       int grid = 8192);

/// Iterative composite minimax sign approximation (Lee et al. 2021 style):
/// stage k is the minimax fit on the output range of the previous stages, so
/// each stage contracts the residual interval [1-e, 1+e] toward ±1.
///
/// `degrees` lists the (odd) stage degrees applied first-to-last; `eps0` is
/// the smallest input magnitude the composite must classify. The returned
/// composite has multiplication depth sum(ceil(log2(d_i + 1))).
CompositePaf make_minimax_composite(const std::vector<int>& degrees, double eps0,
                                    const std::string& name = "minimax");

}  // namespace sp::approx
