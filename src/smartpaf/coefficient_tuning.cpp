#include "smartpaf/coefficient_tuning.h"

#include <cmath>
#include <functional>

#include "common/check.h"
#include "nn/layers.h"
#include "smartpaf/replace.h"

namespace sp::smartpaf {
namespace {

constexpr int kCalibBatchSize = 32;     ///< samples per calibration forward pass
constexpr double kLearningRate = 0.02;  ///< Adam step on the PAF coefficients
constexpr std::uint64_t kSeed = 99;     ///< calibration shuffle and profile reservoirs

/// Sets the profiling hook of a ReLU or exact max pool site; nullptr
/// detaches it.
void set_site_profile(const NonPolySite& site, std::function<void(float)> hook) {
  auto* layer = dynamic_cast<nn::NonPolyLayer*>(site.slot->get());
  if (layer == nullptr)
    throw sp::Error("coefficient_tuning: site " + site.path + " is not a ReLU or MaxPool");
  layer->set_profile(std::move(hook));
}

}  // namespace

std::vector<double> fit_paf_to_profile(const approx::CompositePaf& init,
                                       const std::vector<double>& samples, double scale,
                                       const CtConfig& cfg) {
  sp::check(!samples.empty(), "fit_paf_to_profile: no samples");
  sp::check(scale > 0, "fit_paf_to_profile: bad scale");
  approx::CompositePaf paf = init;
  std::vector<double> flat = paf.flatten_coeffs();
  const std::size_t nc = flat.size();

  // Weighted sample set: the profiled values carry 75% of the mass and a
  // uniform grid over [-scale, scale] carries 25%. Dynamic Scaling
  // normalizes by the *batch* max at deployment, so inputs do reach |t|=1;
  // without the anchors the fit is unconstrained near the interval ends and
  // multi-stage forms explode there.
  struct WSample {
    double x, w;
  };
  std::vector<WSample> ws;
  ws.reserve(samples.size() + 256);
  for (double x : samples) ws.push_back({x, 1.0});
  const int grid = 256;
  // 15% anchor mass: enough to pin the tails, light enough to keep the fit
  // distribution-weighted (the point of CT).
  const double anchor_w =
      0.15 / 0.85 * static_cast<double>(samples.size()) / static_cast<double>(grid);
  for (int i = 0; i < grid; ++i)
    ws.push_back({scale * (-1.0 + 2.0 * i / (grid - 1)), anchor_w});

  // Parity mask: only odd-degree coefficients move (sign PAFs are odd).
  std::vector<bool> even;
  for (const auto& stage : paf.stages())
    for (std::size_t k = 0; k < stage.coeffs().size(); ++k) even.push_back(k % 2 == 0);

  // Adam state. CT must never *hurt*: we track the best-in-sample iterate
  // (including the untouched initialization) and return that. This protects
  // delicately balanced minimax forms (alpha=7/alpha=10), whose large
  // coefficients Adam would otherwise unbalance.
  std::vector<double> m(nc, 0.0), v(nc, 0.0), grad(nc, 0.0), local(nc, 0.0);
  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;
  approx::CompositePaf::Tape tape;

  double best_loss = 0.0;
  std::vector<double> best = flat;
  for (int it = 1; it <= cfg.fit_iters; ++it) {
    paf.load_coeffs(flat);
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = 0.0;
    for (const WSample& sm : ws) {
      const double x = sm.x;
      const double t = x / scale;
      const double p = paf.forward(t, tape);
      // Operator-output error. ReLU sites: relu(x) ≈ 0.5 (x + x p(x/s));
      // max sites feed pairwise differences d, whose max-error term
      // 0.5 (d p - |d|) reduces to the same expression with x = d.
      const double pred = 0.5 * (x + x * p);
      const double target = 0.5 * (x + std::abs(x));  // = max(x, 0)
      const double err = pred - target;
      loss += sm.w * err * err;
      std::fill(local.begin(), local.end(), 0.0);
      paf.backward(tape, 1.0, local);
      const double coeff_fac = sm.w * 2.0 * err * 0.5 * x;
      for (std::size_t k = 0; k < nc; ++k) grad[k] += coeff_fac * local[k];
    }
    if (it == 1 || loss < best_loss) {
      best_loss = loss;
      best = flat;  // snapshot of the coefficients that *produced* this loss
    }
    const double inv = 1.0 / static_cast<double>(samples.size());
    for (std::size_t k = 0; k < nc; ++k) {
      if (even[k]) continue;
      const double g = grad[k] * inv;
      m[k] = b1 * m[k] + (1 - b1) * g;
      v[k] = b2 * v[k] + (1 - b2) * g * g;
      const double mh = m[k] / (1 - std::pow(b1, it));
      const double vh = v[k] / (1 - std::pow(b2, it));
      flat[k] -= kLearningRate * mh / (std::sqrt(vh) + eps);
    }
  }
  return best;
}

CtResult coefficient_tuning(nn::Model& model, const nn::Dataset& calib,
                            approx::PafForm form, const CtConfig& cfg) {
  auto sites = find_nonpoly_sites(model);
  CtResult result;
  result.coeffs.resize(sites.size());
  result.abs_max.resize(sites.size(), 1.0);
  if (sites.empty()) return result;

  // Step 2: profile every site's input distribution in one calibration run.
  std::vector<approx::DistributionProfile> profiles;
  profiles.reserve(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i)
    profiles.emplace_back(16384, kSeed + i);
  for (std::size_t i = 0; i < sites.size(); ++i)
    set_site_profile(sites[i], [prof = &profiles[i]](float x) { prof->record(x); });
  {
    // The hooks point into `profiles`: detach them however calibration ends.
    // Every site took a hook above, so detaching cannot throw.
    struct Detach {
      const std::vector<NonPolySite>& sites;
      ~Detach() {
        for (const NonPolySite& site : sites) set_site_profile(site, nullptr);
      }
    } detach{sites};
    sp::Rng rng(kSeed);
    nn::BatchIterator it(calib, kCalibBatchSize, rng, /*shuffle=*/true);
    nn::Batch b;
    for (int k = 0; k < cfg.calib_batches && it.next(b); ++k)
      model.forward(b.x, /*train=*/false);
  }

  // Steps 1+3: per-site refit from the form's initial coefficients.
  const approx::CompositePaf init = approx::make_paf(form);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto& prof = profiles[i];
    if (prof.empty()) {
      result.coeffs[i] = init.flatten_coeffs();
      continue;
    }
    result.abs_max[i] = std::max(prof.abs_max(), 1e-6);
    std::vector<double> samples = prof.reservoir();
    if (static_cast<int>(samples.size()) > cfg.fit_samples)
      samples.resize(static_cast<std::size_t>(cfg.fit_samples));
    result.coeffs[i] = fit_paf_to_profile(init, samples, result.abs_max[i], cfg);
  }
  return result;
}

}  // namespace sp::smartpaf
