#include "smartpaf/paf_layers.h"

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

void PafLayerBase::sync_coeffs() {
  std::vector<double> flat(coeff_.value.numel());
  for (std::size_t i = 0; i < flat.size(); ++i) flat[i] = coeff_.value[i];
  paf_.load_coeffs(flat);
}

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

// ------------------------------------------------------------ PafMaxPool1d --

PafMaxPool1d::PafMaxPool1d(approx::CompositePaf paf, int window, std::string name,
                           ScaleMode mode, bool odd_only)
    : PafLayerBase(std::move(paf), std::move(name), mode, odd_only), window_(window) {
  sp::check(window_ >= 2, "PafMaxPool1d: window must be >= 2");
}

PafMaxPool1d::PafMaxPool1d(approx::CompositePaf paf, int window, int stride,
                           std::string name, ScaleMode mode, bool odd_only)
    : PafLayerBase(std::move(paf), std::move(name), mode, odd_only),
      window_(window),
      stride_(stride) {
  sp::check(window_ >= 2, "PafMaxPool1d: window must be >= 2");
  sp::check(stride_ >= 1, "PafMaxPool1d: stride must be >= 1");
}

nn::Tensor PafMaxPool1d::forward(const nn::Tensor& x, bool train) {
  sync_coeffs();
  sp::check(x.ndim() == 2, "PafMaxPool1d: expects [B, W], got " + x.shape_str());
  const int batch = x.dim(0), w = x.dim(1);
  sp::check(window_ <= w, "PafMaxPool1d: window wider than the slot count");
  sp::check(w % stride_ == 0, "PafMaxPool1d: stride must divide the width");
  const int ow = w / stride_;

  // Scale = batch max per-window spread, an upper bound on every pairwise
  // difference the tournament feeds to the PAF.
  float spread = 0.0f;
  for (int n = 0; n < batch; ++n)
    for (int j = 0; j < ow; ++j) {
      const int base = j * stride_;
      float lo = x.at(n, base), hi = lo;
      for (int t = 1; t < window_; ++t) {
        const float v = x.at(n, (base + t) % w);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      spread = std::max(spread, hi - lo);
    }
  scale_used_ = resolve_scale(spread, train);
  const double s = scale_used_;

  nn::Tensor y({batch, ow});
  for (int n = 0; n < batch; ++n)
    for (int j = 0; j < ow; ++j) {
      // The fold runs in double and rounds once on store, matching the
      // encrypted tournament's step order exactly.
      const int base = j * stride_;
      double m = x.at(n, base);
      for (int t = 1; t < window_; ++t) {
        const double v = x.at(n, (base + t) % w);
        const double d = m - v;
        m = 0.5 * ((m + v) + d * paf_(d / s));
      }
      y.at(n, j) = static_cast<float>(m);
    }
  if (train) x_cache_ = x;
  return y;
}

nn::Tensor PafMaxPool1d::backward(const nn::Tensor& gy) {
  const nn::Tensor& x = x_cache_;
  const int batch = x.dim(0), w = x.dim(1);
  const int ow = w / stride_;
  nn::Tensor gx({batch, w});
  const double s = scale_used_;
  const auto n_coeff = static_cast<std::size_t>(paf_.num_coeffs());
  std::vector<double> cg(n_coeff, 0.0);
  std::vector<double> cg_local(n_coeff);
  approx::CompositePaf::Tape tape;
  const auto count = static_cast<std::size_t>(window_);
  fold_m_.resize(count);
  fold_dprev_.resize(count);
  fold_dv_.resize(count);
  fold_dc_.resize(count * n_coeff);

  for (int n = 0; n < batch; ++n)
    for (int jo = 0; jo < ow; ++jo) {
      const int j = jo * stride_;
      fold_m_[0] = x.at(n, j);
      for (std::size_t i = 1; i < count; ++i) {
        const double a = fold_m_[i - 1];
        const double b = x.at(n, (j + static_cast<int>(i)) % w);
        const double d = a - b;
        const double t = d / s;
        const double p = paf_.forward(t, tape);
        std::fill(cg_local.begin(), cg_local.end(), 0.0);
        const double dp_dt = paf_.backward(tape, 1.0, cg_local);
        fold_m_[i] = 0.5 * ((a + b) + d * p);
        fold_dprev_[i] = 0.5 * (1.0 + p + t * dp_dt);
        fold_dv_[i] = 0.5 * (1.0 - p - t * dp_dt);
        for (std::size_t k = 0; k < n_coeff; ++k)
          fold_dc_[i * n_coeff + k] = 0.5 * d * cg_local[k];
      }
      double g = gy.at(n, jo);
      for (std::size_t i = count; i-- > 1;) {
        gx.at(n, (j + static_cast<int>(i)) % w) += static_cast<float>(g * fold_dv_[i]);
        for (std::size_t k = 0; k < n_coeff; ++k) cg[k] += g * fold_dc_[i * n_coeff + k];
        g *= fold_dprev_[i];
      }
      gx.at(n, j) += static_cast<float>(g);
    }
  for (std::size_t k = 0; k < n_coeff; ++k) coeff_.grad[k] += static_cast<float>(cg[k]);
  mask_even_grads();
  return gx;
}

// -------------------------------------------------------------- PafMaxPool --

namespace {
int pool_out(int in, int k, int stride, int pad) { return (in + 2 * pad - k) / stride + 1; }
}  // namespace

PafMaxPool::PafMaxPool(approx::CompositePaf paf, int kernel, int stride, int pad,
                       std::string name, ScaleMode mode, bool odd_only)
    : PafLayerBase(std::move(paf), std::move(name), mode, odd_only), k_(kernel),
      stride_(stride), pad_(pad) {}

void PafMaxPool::window_values(const nn::Tensor& x, int n, int c, int oy, int ox,
                               std::vector<float>& vals,
                               std::vector<std::size_t>& idx) const {
  vals.clear();
  idx.clear();
  const int h = x.dim(2), w = x.dim(3);
  for (int dy = 0; dy < k_; ++dy)
    for (int dx = 0; dx < k_; ++dx) {
      const int iy = oy * stride_ + dy - pad_;
      const int ix = ox * stride_ + dx - pad_;
      if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
      vals.push_back(x.at(n, c, iy, ix));
      idx.push_back(((static_cast<std::size_t>(n) * x.dim(1) + c) * h + iy) * w + ix);
    }
}

nn::Tensor PafMaxPool::forward(const nn::Tensor& x, bool train) {
  sync_coeffs();
  const int batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  oh_ = pool_out(h, k_, stride_, pad_);
  ow_ = pool_out(w, k_, stride_, pad_);

  // Scale = batch max of per-window value spread (an upper bound on every
  // pairwise difference fed to the PAF, computable without the PAF itself).
  std::vector<float> vals;
  std::vector<std::size_t> idx;
  float spread = 0.0f;
  for (int n = 0; n < batch; ++n)
    for (int cc = 0; cc < c; ++cc)
      for (int oy = 0; oy < oh_; ++oy)
        for (int ox = 0; ox < ow_; ++ox) {
          window_values(x, n, cc, oy, ox, vals, idx);
          float lo = vals[0], hi = vals[0];
          for (float v : vals) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          spread = std::max(spread, hi - lo);
        }
  scale_used_ = resolve_scale(spread, train);
  const double s = scale_used_;

  nn::Tensor y({batch, c, oh_, ow_});
  for (int n = 0; n < batch; ++n)
    for (int cc = 0; cc < c; ++cc)
      for (int oy = 0; oy < oh_; ++oy)
        for (int ox = 0; ox < ow_; ++ox) {
          window_values(x, n, cc, oy, ox, vals, idx);
          double m = vals[0];
          for (std::size_t i = 1; i < vals.size(); ++i) {
            const double d = m - vals[i];
            m = 0.5 * ((m + vals[i]) + d * paf_(d / s));
          }
          y.at(n, cc, oy, ox) = static_cast<float>(m);
        }
  if (train) x_cache_ = x;
  return y;
}

nn::Tensor PafMaxPool::backward(const nn::Tensor& gy) {
  const nn::Tensor& x = x_cache_;
  nn::Tensor gx(x.shape());
  const double s = scale_used_;
  const auto n_coeff = static_cast<std::size_t>(paf_.num_coeffs());
  std::vector<double> cg(n_coeff, 0.0);
  std::vector<double> cg_local(n_coeff);
  std::vector<float> vals;
  std::vector<std::size_t> idx;
  approx::CompositePaf::Tape tape;

  for (int n = 0; n < gy.dim(0); ++n)
    for (int cc = 0; cc < gy.dim(1); ++cc)
      for (int oy = 0; oy < oh_; ++oy)
        for (int ox = 0; ox < ow_; ++ox) {
          window_values(x, n, cc, oy, ox, vals, idx);
          const std::size_t count = vals.size();
          // Re-run the fold, keeping per-step partials in flat scratch
          // buffers (window size <= 16; no per-pixel allocation).
          fold_m_.resize(count);
          fold_dprev_.resize(count);
          fold_dv_.resize(count);
          fold_dc_.resize(count * n_coeff);
          fold_m_[0] = vals[0];
          for (std::size_t i = 1; i < count; ++i) {
            const double a = fold_m_[i - 1], b = vals[i];
            const double d = a - b;
            const double t = d / s;
            const double p = paf_.forward(t, tape);
            std::fill(cg_local.begin(), cg_local.end(), 0.0);
            const double dp_dt = paf_.backward(tape, 1.0, cg_local);
            fold_m_[i] = 0.5 * ((a + b) + d * p);
            fold_dprev_[i] = 0.5 * (1.0 + p + t * dp_dt);
            fold_dv_[i] = 0.5 * (1.0 - p - t * dp_dt);
            for (std::size_t k = 0; k < n_coeff; ++k)
              fold_dc_[i * n_coeff + k] = 0.5 * d * cg_local[k];
          }
          // Backward through the fold.
          double g = gy.at(n, cc, oy, ox);
          for (std::size_t i = count; i-- > 1;) {
            gx[idx[i]] += static_cast<float>(g * fold_dv_[i]);
            for (std::size_t k = 0; k < n_coeff; ++k) cg[k] += g * fold_dc_[i * n_coeff + k];
            g *= fold_dprev_[i];
          }
          gx[idx[0]] += static_cast<float>(g);
        }
  for (std::size_t k = 0; k < n_coeff; ++k) coeff_.grad[k] += static_cast<float>(cg[k]);
  mask_even_grads();
  return gx;
}

}  // namespace sp::smartpaf
