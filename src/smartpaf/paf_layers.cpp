#include "smartpaf/paf_layers.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sp::smartpaf {

// ------------------------------------------------------------ PafLayerBase --

PafLayerBase::PafLayerBase(approx::CompositePaf paf, std::string name, ScaleMode mode)
    : paf_(std::move(paf)), name_(std::move(name)), mode_(mode) {
  const auto flat = paf_.flatten_coeffs();
  coeff_.name = name_ + ".paf";
  coeff_.group = nn::ParamGroup::PafCoeff;
  coeff_.value = nn::Tensor({static_cast<int>(flat.size())});
  coeff_.grad = nn::Tensor({static_cast<int>(flat.size())});
  for (std::size_t i = 0; i < flat.size(); ++i)
    coeff_.value[i] = static_cast<float>(flat[i]);
  // Flat layout parity: within each stage, position k has degree k.
  even_mask_.reserve(flat.size());
  for (const auto& stage : paf_.stages())
    for (std::size_t k = 0; k < stage.coeffs().size(); ++k)
      even_mask_.push_back(k % 2 == 0);
}

std::vector<double> PafLayerBase::coeffs() const {
  std::vector<double> flat(coeff_.value.numel());
  for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = coeff_.value[i];
  return flat;
}

void PafLayerBase::set_static_scale(float s) {
  sp::check(s > 0, "PafLayerBase::set_static_scale: scale must be positive");
  mode_ = ScaleMode::Static;
  static_scale_ = s;
}

void PafLayerBase::convert_to_static() {
  mode_ = ScaleMode::Static;
  static_scale_ = std::max(running_max_, 1e-6f);
}

void PafLayerBase::collect_params(std::vector<nn::Param*>& out) { out.push_back(&coeff_); }

void PafLayerBase::sync_coeffs() { paf_.load_coeffs(coeffs()); }

float PafLayerBase::resolve_scale(float batch_max, bool train) {
  if (train) running_max_ = std::max(running_max_, batch_max);
  if (mode_ == ScaleMode::Static) return std::max(static_scale_, 1e-6f);
  return std::max(batch_max, 1e-6f);
}

void PafLayerBase::mask_even_grads() {
  for (std::size_t i = 0; i < even_mask_.size(); ++i)
    if (even_mask_[i]) coeff_.grad[i] = 0.0f;
}

// ----------------------------------------------------------- PafActivation --

PafActivation::PafActivation(approx::CompositePaf paf, std::string name, ScaleMode mode)
    : PafLayerBase(std::move(paf), std::move(name), mode) {}

nn::Tensor PafActivation::forward(const nn::Tensor& x, bool train) {
  sync_coeffs();
  scale_used_ = resolve_scale(x.abs_max(), train);
  nn::Tensor y(x.shape());
  const double s = scale_used_;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const double xi = x[i];
    y[i] = static_cast<float>(0.5 * (xi + xi * paf_(xi / s)));
  }
  if (train) x_cache_ = x;
  guard_.record(y, train);
  return y;
}

nn::Tensor PafActivation::backward(const nn::Tensor& gy) {
  guard_.check(name_, gy);
  const nn::Tensor& x = x_cache_;
  nn::Tensor gx(gy.shape());
  const double s = scale_used_;
  const auto n_coeff = static_cast<std::size_t>(paf_.num_coeffs());
  std::vector<double> cg(n_coeff, 0.0);
  std::vector<double> cg_local(n_coeff);
  approx::CompositePaf::Tape tape;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const double xi = x[i];
    const double t = xi / s;
    const double p = paf_.forward(t, tape);
    std::fill(cg_local.begin(), cg_local.end(), 0.0);
    const double dp_dt = paf_.backward(tape, 1.0, cg_local);
    const double g = gy[i];
    gx[i] = static_cast<float>(g * 0.5 * (1.0 + p + t * dp_dt));
    const double cfac = g * 0.5 * xi;
    for (std::size_t k = 0; k < n_coeff; ++k) cg[k] += cfac * cg_local[k];
  }
  for (std::size_t k = 0; k < n_coeff; ++k) coeff_.grad[k] += static_cast<float>(cg[k]);
  mask_even_grads();
  return gx;
}

// -------------------------------------------------------- PafMaxTournament --

PafMaxTournament::PafMaxTournament(approx::CompositePaf paf, std::string name,
                                   ScaleMode mode, nn::PoolWindows windows)
    : PafLayerBase(std::move(paf), std::move(name), mode),
      windows_(std::move(windows)) {}

nn::Tensor PafMaxTournament::forward(const nn::Tensor& x, bool train) {
  sync_coeffs();
  windows_.tabulate(x);
  nn::Tensor y(windows_.out_shape());

  float spread = 0.0f;
  windows_.for_each([&](std::size_t, nn::PoolWindows::Window w) {
    float lo = x[w[0]], hi = lo;
    for (std::size_t k = 1; k < w.size; ++k) {
      lo = std::min(lo, x[w[k]]);
      hi = std::max(hi, x[w[k]]);
    }
    spread = std::max(spread, hi - lo);
  });
  scale_used_ = resolve_scale(spread, train);
  const double s = scale_used_;

  windows_.for_each([&](std::size_t o, nn::PoolWindows::Window w) {
    double m = x[w[0]];
    for (std::size_t k = 1; k < w.size; ++k) {
      const double v = x[w[k]];
      const double d = m - v;
      m = 0.5 * ((m + v) + d * paf_(d / s));
    }
    y[o] = static_cast<float>(m);
  });
  if (train) x_cache_ = x;
  guard_.record(y, train);
  return y;
}

nn::Tensor PafMaxTournament::backward(const nn::Tensor& gy) {
  guard_.check(name_, gy);
  const nn::Tensor& x = x_cache_;
  nn::Tensor gx(x.shape());
  const double s = scale_used_;
  const auto n_coeff = static_cast<std::size_t>(paf_.num_coeffs());
  std::vector<double> cg(n_coeff, 0.0);
  std::vector<double> cg_local(n_coeff);
  approx::CompositePaf::Tape tape;
  // Per-step partials of one fold, reused across outputs.
  std::vector<double> dprev, dv, dc;

  windows_.for_each([&](std::size_t o, nn::PoolWindows::Window in) {
    const std::size_t count = in.size;
    dprev.resize(count);
    dv.resize(count);
    dc.resize(count * n_coeff);
    // Re-run the fold, keeping each step's partials.
    double m = x[in[0]];
    for (std::size_t i = 1; i < count; ++i) {
      const double b = x[in[i]];
      const double d = m - b;
      const double t = d / s;
      const double p = paf_.forward(t, tape);
      std::fill(cg_local.begin(), cg_local.end(), 0.0);
      const double dp_dt = paf_.backward(tape, 1.0, cg_local);
      m = 0.5 * ((m + b) + d * p);
      dprev[i] = 0.5 * (1.0 + p + t * dp_dt);
      dv[i] = 0.5 * (1.0 - p - t * dp_dt);
      for (std::size_t k = 0; k < n_coeff; ++k) dc[i * n_coeff + k] = 0.5 * d * cg_local[k];
    }
    // Backward through the fold.
    double g = gy[o];
    for (std::size_t i = count; i-- > 1;) {
      gx[in[i]] += static_cast<float>(g * dv[i]);
      for (std::size_t k = 0; k < n_coeff; ++k) cg[k] += g * dc[i * n_coeff + k];
      g *= dprev[i];
    }
    gx[in[0]] += static_cast<float>(g);
  });
  for (std::size_t k = 0; k < n_coeff; ++k) coeff_.grad[k] += static_cast<float>(cg[k]);
  mask_even_grads();
  return gx;
}

// ------------------------------------------------------------ PafMaxPool1d --

PafMaxPool1d::PafMaxPool1d(approx::CompositePaf paf, int window, std::string name,
                           ScaleMode mode)
    : PafMaxPool1d(std::move(paf), window, 1, std::move(name), mode) {}

PafMaxPool1d::PafMaxPool1d(approx::CompositePaf paf, int window, int stride,
                           std::string name, ScaleMode mode)
    : PafMaxTournament(std::move(paf), std::move(name), mode,
                       nn::PoolWindows::cyclic("PafMaxPool1d", window, stride)) {}

// -------------------------------------------------------------- PafMaxPool --

PafMaxPool::PafMaxPool(approx::CompositePaf paf, int kernel, int stride, int pad,
                       std::string name, ScaleMode mode)
    : PafMaxTournament(std::move(paf), std::move(name), mode,
                       nn::PoolWindows::padded("PafMaxPool", kernel, stride, pad)) {}

}  // namespace sp::smartpaf
