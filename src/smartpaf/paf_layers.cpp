#include "smartpaf/paf_layers.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sp::smartpaf {

// ------------------------------------------------------------ PafLayerBase --

PafLayerBase::PafLayerBase(approx::CompositePaf paf, std::string name, ScaleMode mode,
                           bool odd_only)
    : paf_(std::move(paf)), name_(std::move(name)), mode_(mode), odd_only_(odd_only) {
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
  if (!odd_only_) return;
  for (std::size_t i = 0; i < even_mask_.size(); ++i)
    if (even_mask_[i]) coeff_.grad[i] = 0.0f;
}

// ----------------------------------------------------------- PafActivation --

PafActivation::PafActivation(approx::CompositePaf paf, std::string name, ScaleMode mode,
                             bool odd_only)
    : PafLayerBase(std::move(paf), std::move(name), mode, odd_only) {}

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
  return y;
}

nn::Tensor PafActivation::backward(const nn::Tensor& gy) {
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

nn::Tensor PafMaxTournament::forward(const nn::Tensor& x, bool train) {
  sync_coeffs();
  if (x.shape() != folds_shape_) {
    folds_ = folds(x);
    folds_shape_ = x.shape();
  }
  const std::vector<std::size_t>& start = folds_.start;
  const std::vector<std::size_t>& idx = folds_.idx;

  float spread = 0.0f;
  for (std::size_t o = 0; o + 1 < start.size(); ++o) {
    float lo = x[idx[start[o]]], hi = lo;
    for (std::size_t k = start[o] + 1; k < start[o + 1]; ++k) {
      lo = std::min(lo, x[idx[k]]);
      hi = std::max(hi, x[idx[k]]);
    }
    spread = std::max(spread, hi - lo);
  }
  scale_used_ = resolve_scale(spread, train);
  const double s = scale_used_;

  nn::Tensor y(folds_.out_shape);
  for (std::size_t o = 0; o + 1 < start.size(); ++o) {
    double m = x[idx[start[o]]];
    for (std::size_t k = start[o] + 1; k < start[o + 1]; ++k) {
      const double v = x[idx[k]];
      const double d = m - v;
      m = 0.5 * ((m + v) + d * paf_(d / s));
    }
    y[o] = static_cast<float>(m);
  }
  if (train) x_cache_ = x;
  return y;
}

nn::Tensor PafMaxTournament::backward(const nn::Tensor& gy) {
  const nn::Tensor& x = x_cache_;
  sp::check(x.shape() == folds_shape_ && gy.shape() == folds_.out_shape,
            name_ + ": backward needs a training forward of the same shape");
  nn::Tensor gx(x.shape());
  const double s = scale_used_;
  const auto n_coeff = static_cast<std::size_t>(paf_.num_coeffs());
  std::vector<double> cg(n_coeff, 0.0);
  std::vector<double> cg_local(n_coeff);
  approx::CompositePaf::Tape tape;
  // Per-step partials of one fold, reused across outputs.
  std::vector<double> dprev, dv, dc;

  for (std::size_t o = 0; o + 1 < folds_.start.size(); ++o) {
    const std::size_t* in = folds_.idx.data() + folds_.start[o];
    const std::size_t count = folds_.start[o + 1] - folds_.start[o];
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
  }
  for (std::size_t k = 0; k < n_coeff; ++k) coeff_.grad[k] += static_cast<float>(cg[k]);
  mask_even_grads();
  return gx;
}

// ------------------------------------------------------------ PafMaxPool1d --

PafMaxPool1d::PafMaxPool1d(approx::CompositePaf paf, int window, std::string name,
                           ScaleMode mode, bool odd_only)
    : PafMaxPool1d(std::move(paf), window, 1, std::move(name), mode, odd_only) {}

PafMaxPool1d::PafMaxPool1d(approx::CompositePaf paf, int window, int stride,
                           std::string name, ScaleMode mode, bool odd_only)
    : PafMaxTournament(std::move(paf), std::move(name), mode, odd_only),
      window_(window),
      stride_(stride) {
  sp::check(window_ >= 2, "PafMaxPool1d: window must be >= 2");
  sp::check(stride_ >= 1, "PafMaxPool1d: stride must be >= 1");
}

PafMaxTournament::Folds PafMaxPool1d::folds(const nn::Tensor& x) const {
  sp::check(x.ndim() == 2, "PafMaxPool1d: expects [B, W], got " + x.shape_str());
  const int batch = x.dim(0), w = x.dim(1);
  sp::check(window_ <= w, "PafMaxPool1d: window wider than the slot count");
  sp::check(w % stride_ == 0, "PafMaxPool1d: stride must divide the width");
  Folds f;
  f.out_shape = {batch, w / stride_};
  for (int n = 0; n < batch; ++n)
    for (int j = 0; j < w; j += stride_) {
      for (int t = 0; t < window_; ++t)
        f.idx.push_back(static_cast<std::size_t>(n) * w + (j + t) % w);
      f.start.push_back(f.idx.size());
    }
  return f;
}

// -------------------------------------------------------------- PafMaxPool --

PafMaxPool::PafMaxPool(approx::CompositePaf paf, int kernel, int stride, int pad,
                       std::string name, ScaleMode mode, bool odd_only)
    : PafMaxTournament(std::move(paf), std::move(name), mode, odd_only), k_(kernel),
      stride_(stride), pad_(pad) {
  sp::check(k_ >= 1 && stride_ >= 1 && pad_ >= 0 && pad_ < k_,
            "PafMaxPool: needs kernel >= 1, stride >= 1 and 0 <= pad < kernel");
}

PafMaxTournament::Folds PafMaxPool::folds(const nn::Tensor& x) const {
  sp::check(x.ndim() == 4, "PafMaxPool: expects [N, C, H, W], got " + x.shape_str());
  const int planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  sp::check(h + 2 * pad_ >= k_ && w + 2 * pad_ >= k_,
            "PafMaxPool: kernel larger than the padded input");
  const int oh = (h + 2 * pad_ - k_) / stride_ + 1, ow = (w + 2 * pad_ - k_) / stride_ + 1;
  Folds f;
  f.out_shape = {x.dim(0), x.dim(1), oh, ow};
  for (int plane = 0; plane < planes; ++plane)
    for (int oy = 0; oy < oh; ++oy)
      for (int ox = 0; ox < ow; ++ox) {
        for (int iy = oy * stride_ - pad_; iy < oy * stride_ - pad_ + k_; ++iy)
          for (int ix = ox * stride_ - pad_; ix < ox * stride_ - pad_ + k_; ++ix)
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              f.idx.push_back((static_cast<std::size_t>(plane) * h + iy) * w + ix);
        f.start.push_back(f.idx.size());
      }
  return f;
}

}  // namespace sp::smartpaf
