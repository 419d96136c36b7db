#pragma once

#include "approx/distribution.h"
#include "approx/presets.h"
#include "nn/container.h"
#include "nn/dataset.h"

namespace sp::smartpaf {

/// Coefficient Tuning configuration (paper §4.2).
struct CtConfig {
  int calib_batches = 3;    ///< calibration forward passes
  int batch_size = 32;
  int fit_samples = 2048;   ///< reservoir samples used in the refit
  int fit_iters = 300;      ///< Adam iterations on the PAF coefficients
  double lr = 0.02;
  std::uint64_t seed = 99;
};

/// Result of Coefficient Tuning: per-site tuned coefficients (indexed by
/// non-polynomial site order) plus the profiled |input| maxima (the scales
/// the tuned coefficients assume, also the initial Static-Scaling values).
struct CtResult {
  std::vector<std::vector<double>> coeffs;
  std::vector<double> abs_max;
};

/// Runs Coefficient Tuning offline on a model that still contains its
/// original ReLU/MaxPool operators:
///  1. starts from the form's regression/minimax initial coefficients,
///  2. profiles each operator's input distribution on calibration batches,
///  3. refits each site's PAF to minimise the *operator-output* error
///     (relu/max built from the PAF) under the profiled distribution,
///  4. returns per-site coefficients for the replacement pass.
CtResult coefficient_tuning(nn::Model& model, const nn::Dataset& calib,
                            approx::PafForm form, const CtConfig& cfg = {});

/// The single-site refit used by step 3; exposed for tests and ablations.
/// For ReLU sites the samples are input values; for MaxPool sites they are
/// pairwise tournament differences d, fitted with the same ReLU objective
/// at x = d. Returns the tuned flat coefficients.
std::vector<double> fit_paf_to_profile(const approx::CompositePaf& init,
                                       const std::vector<double>& samples, double scale,
                                       const CtConfig& cfg);

}  // namespace sp::smartpaf
