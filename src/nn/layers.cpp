#include "nn/layers.h"

#include <cmath>

#include "common/check.h"

namespace sp::nn {
namespace {

void kaiming_init(Tensor& w, int fan_in, sp::Rng& rng) {
  const double bound = std::sqrt(6.0 / fan_in);
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] = static_cast<float>(rng.uniform(-bound, bound));
}

int out_size(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace

// ----------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad, sp::Rng& rng,
               bool bias, const std::string& name)
    : in_ch_(in_ch), out_ch_(out_ch), k_(kernel), stride_(stride), pad_(pad),
      has_bias_(bias), name_(name) {
  w_.name = name + ".w";
  w_.value = Tensor({out_ch, in_ch, kernel, kernel});
  w_.grad = Tensor({out_ch, in_ch, kernel, kernel});
  kaiming_init(w_.value, in_ch * kernel * kernel, rng);
  if (has_bias_) {
    b_.name = name + ".b";
    b_.value = Tensor({out_ch});
    b_.grad = Tensor({out_ch});
  }
}

void Conv2d::im2col(const Tensor& x, int n, std::vector<float>& col) const {
  const int h = x.dim(2), w = x.dim(3);
  const int kk = k_ * k_;
  std::size_t idx = 0;
  for (int c = 0; c < in_ch_; ++c) {
    for (int p = 0; p < kk; ++p) {
      const int dy = p / k_, dx = p % k_;
      for (int oy = 0; oy < oh_; ++oy) {
        const int iy = oy * stride_ + dy - pad_;
        for (int ox = 0; ox < ow_; ++ox) {
          const int ix = ox * stride_ + dx - pad_;
          col[idx++] = (iy >= 0 && iy < h && ix >= 0 && ix < w) ? x.at(n, c, iy, ix) : 0.0f;
        }
      }
    }
  }
}

void Conv2d::col2im(const std::vector<float>& col, int n, Tensor& gx) const {
  const int h = gx.dim(2), w = gx.dim(3);
  const int kk = k_ * k_;
  std::size_t idx = 0;
  for (int c = 0; c < in_ch_; ++c) {
    for (int p = 0; p < kk; ++p) {
      const int dy = p / k_, dx = p % k_;
      for (int oy = 0; oy < oh_; ++oy) {
        const int iy = oy * stride_ + dy - pad_;
        for (int ox = 0; ox < ow_; ++ox) {
          const int ix = ox * stride_ + dx - pad_;
          if (iy >= 0 && iy < h && ix >= 0 && ix < w) gx.at(n, c, iy, ix) += col[idx];
          ++idx;
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  sp::check(x.ndim() == 4 && x.dim(1) == in_ch_, "Conv2d: bad input " + x.shape_str());
  const int batch = x.dim(0);
  oh_ = out_size(x.dim(2), k_, stride_, pad_);
  ow_ = out_size(x.dim(3), k_, stride_, pad_);
  Tensor y({batch, out_ch_, oh_, ow_});
  const int cols = oh_ * ow_;
  const int rows = in_ch_ * k_ * k_;
  std::vector<float> col(static_cast<std::size_t>(rows) * cols);
  for (int n = 0; n < batch; ++n) {
    im2col(x, n, col);
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float* wrow = &w_.value.vec()[static_cast<std::size_t>(oc) * rows];
      float* out = &y.vec()[(static_cast<std::size_t>(n) * out_ch_ + oc) * cols];
      const double bv =
          has_bias_ ? static_cast<double>(b_.value[static_cast<std::size_t>(oc)]) : 0.0;
      for (int i = 0; i < cols; ++i) {
        double acc = bv;
        for (int r = 0; r < rows; ++r)
          acc += static_cast<double>(wrow[r]) *
                 static_cast<double>(col[static_cast<std::size_t>(r) * cols + i]);
        out[i] = static_cast<float>(acc);
      }
    }
  }
  if (train) x_cache_ = x;
  guard_.record(y, train);
  return y;
}

Tensor Conv2d::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  const Tensor& x = x_cache_;
  const int batch = x.dim(0);
  const int cols = oh_ * ow_;
  const int rows = in_ch_ * k_ * k_;
  Tensor gx(x.shape());
  std::vector<float> col(static_cast<std::size_t>(rows) * cols);
  std::vector<float> gcol(static_cast<std::size_t>(rows) * cols);
  for (int n = 0; n < batch; ++n) {
    const float* gyn = &gy.vec()[static_cast<std::size_t>(n) * out_ch_ * cols];
    im2col(x, n, col);
    // dW += gy * col^T
    matmul_nt(gyn, col.data(), w_.grad.data(), out_ch_, cols, rows, /*accumulate=*/true);
    // dcol = W^T * gy
    matmul_tn(w_.value.data(), gyn, gcol.data(), rows, out_ch_, cols);
    col2im(gcol, n, gx);
    if (has_bias_) {
      for (int oc = 0; oc < out_ch_; ++oc) {
        float acc = 0.0f;
        const float* row = gyn + static_cast<std::size_t>(oc) * cols;
        for (int i = 0; i < cols; ++i) acc += row[i];
        b_.grad[static_cast<std::size_t>(oc)] += acc;
      }
    }
  }
  return gx;
}

std::vector<double> Conv2d::weight_values() const {
  std::vector<double> out(w_.value.numel());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(w_.value[i]);
  return out;
}

std::vector<double> Conv2d::bias_values() const {
  if (!has_bias_) return {};
  std::vector<double> out(b_.value.numel());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(b_.value[i]);
  return out;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

// ----------------------------------------------------------------- Linear --

Linear::Linear(int in, int out, sp::Rng& rng, bool bias, const std::string& name)
    : in_(in), out_(out), has_bias_(bias), name_(name) {
  w_.name = name + ".w";
  w_.value = Tensor({out, in});
  w_.grad = Tensor({out, in});
  kaiming_init(w_.value, in, rng);
  if (has_bias_) {
    b_.name = name + ".b";
    b_.value = Tensor({out});
    b_.grad = Tensor({out});
  }
}

Tensor Linear::forward(const Tensor& x, bool train) {
  sp::check(x.ndim() == 2 && x.dim(1) == in_, "Linear: bad input " + x.shape_str());
  const int batch = x.dim(0);
  Tensor y({batch, out_});
  // Accumulate in double so the output rounds to float exactly once — this
  // keeps the lowered FHE matmul within its 2^-20 parity budget (same
  // contract as Window1d::forward).
  for (int n = 0; n < batch; ++n)
    for (int o = 0; o < out_; ++o) {
      double acc = has_bias_ ? static_cast<double>(b_.value[static_cast<std::size_t>(o)])
                             : 0.0;
      const float* wrow = &w_.value.vec()[static_cast<std::size_t>(o) * in_];
      for (int i = 0; i < in_; ++i)
        acc += static_cast<double>(x.at(n, i)) * static_cast<double>(wrow[i]);
      y.at(n, o) = static_cast<float>(acc);
    }
  if (train) x_cache_ = x;
  guard_.record(y, train);
  return y;
}

Tensor Linear::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  const int batch = x_cache_.dim(0);
  // dW += gy^T * x
  matmul_tn(gy.data(), x_cache_.data(), w_.grad.data(), out_, batch, in_, true);
  if (has_bias_)
    for (int n = 0; n < batch; ++n)
      for (int o = 0; o < out_; ++o) b_.grad[static_cast<std::size_t>(o)] += gy.at(n, o);
  Tensor gx({batch, in_});
  matmul(gy.data(), w_.value.data(), gx.data(), batch, out_, in_);
  return gx;
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

std::vector<double> Linear::weight_values() const {
  std::vector<double> out(w_.value.numel());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(w_.value[i]);
  return out;
}

std::vector<double> Linear::bias_values() const {
  if (!has_bias_) return {};
  std::vector<double> out(b_.value.numel());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(b_.value[i]);
  return out;
}

// ------------------------------------------------------------ BatchNorm2d --

BatchNorm2d::BatchNorm2d(int channels, const std::string& name)
    : ch_(channels), name_(name) {
  gamma_.name = name + ".gamma";
  gamma_.value = Tensor({channels});
  gamma_.value.fill(1.0f);
  gamma_.grad = Tensor({channels});
  beta_.name = name + ".beta";
  beta_.value = Tensor({channels});
  beta_.grad = Tensor({channels});
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  sp::check(x.ndim() == 4 && x.dim(1) == ch_, "BatchNorm2d: bad input " + x.shape_str());
  const int batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int cnt = batch * h * w;
  count_per_ch_ = cnt;

  mean_.assign(static_cast<std::size_t>(ch_), 0.0f);
  invstd_.assign(static_cast<std::size_t>(ch_), 0.0f);
  for (int c = 0; c < ch_; ++c) {
    double s = 0.0, s2 = 0.0;
    for (int n = 0; n < batch; ++n)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const double v = x.at(n, c, i, j);
          s += v;
          s2 += v * v;
        }
    const double mean = s / cnt;
    const double var = s2 / cnt - mean * mean;
    mean_[static_cast<std::size_t>(c)] = static_cast<float>(mean);
    invstd_[static_cast<std::size_t>(c)] = static_cast<float>(1.0 / std::sqrt(var + 1e-5));
  }

  Tensor y(x.shape());
  xhat_ = Tensor(x.shape());
  for (int c = 0; c < ch_; ++c) {
    const float m = mean_[static_cast<std::size_t>(c)];
    const float is = invstd_[static_cast<std::size_t>(c)];
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float b = beta_.value[static_cast<std::size_t>(c)];
    for (int n = 0; n < batch; ++n)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float xh = (x.at(n, c, i, j) - m) * is;
          xhat_.at(n, c, i, j) = xh;
          y.at(n, c, i, j) = g * xh + b;
        }
  }
  guard_.record(y, train);
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  const int batch = gy.dim(0), h = gy.dim(2), w = gy.dim(3);
  const float cnt = static_cast<float>(count_per_ch_);
  Tensor gx(gy.shape());
  for (int c = 0; c < ch_; ++c) {
    float sum_gy = 0.0f, sum_gy_xhat = 0.0f;
    for (int n = 0; n < batch; ++n)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          sum_gy += gy.at(n, c, i, j);
          sum_gy_xhat += gy.at(n, c, i, j) * xhat_.at(n, c, i, j);
        }
    gamma_.grad[static_cast<std::size_t>(c)] += sum_gy_xhat;
    beta_.grad[static_cast<std::size_t>(c)] += sum_gy;
    const float g = gamma_.value[static_cast<std::size_t>(c)];
    const float is = invstd_[static_cast<std::size_t>(c)];
    for (int n = 0; n < batch; ++n)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float xh = xhat_.at(n, c, i, j);
          gx.at(n, c, i, j) =
              g * is / cnt * (cnt * gy.at(n, c, i, j) - sum_gy - xh * sum_gy_xhat);
        }
  }
  return gx;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

// ------------------------------------------------------------ PoolWindows --

PoolWindows PoolWindows::cyclic(const char* who, int window, int stride) {
  sp::check_fmt(window >= 2, who, ": window must be >= 2");
  sp::check_fmt(stride >= 1, who, ": stride must be >= 1");
  return PoolWindows(who, true, window, stride, 0);
}

PoolWindows PoolWindows::padded(const char* who, int window, int stride, int pad) {
  sp::check_fmt(window >= 1 && stride >= 1 && pad >= 0 && pad < window, who,
                ": needs kernel >= 1, stride >= 1 and 0 <= pad < kernel");
  return PoolWindows(who, false, window, stride, pad);
}

void PoolWindows::tabulate(const Tensor& x) {
  if (!in_shape_.empty() && x.shape() == in_shape_) return;
  // Every check runs before the table changes, so a rejected input keeps the
  // table of the last accepted one.
  if (cyclic_) {
    sp::check_fmt(x.ndim() == 2, who_, ": expects [B, W], got ", x.shape_str());
    const int w = x.dim(1);
    sp::check_fmt(window_ <= w, who_, ": window wider than the slot count");
    sp::check_fmt(w % stride_ == 0, who_, ": stride must divide the width");
    start_.assign(1, 0);
    off_.clear();
    for (int j = 0; j < w; j += stride_) {
      for (int t = 0; t < window_; ++t) off_.push_back(static_cast<std::size_t>((j + t) % w));
      start_.push_back(off_.size());
    }
    out_shape_ = {x.dim(0), w / stride_};
    planes_ = static_cast<std::size_t>(x.dim(0));
    plane_inputs_ = static_cast<std::size_t>(w);
  } else {
    sp::check_fmt(x.ndim() == 4, who_, ": expects [N, C, H, W], got ", x.shape_str());
    const int h = x.dim(2), w = x.dim(3);
    // A plane of at least one input leaves every window one (pad < kernel).
    sp::check_fmt(h >= 1 && w >= 1 && h + 2 * pad_ >= window_ && w + 2 * pad_ >= window_,
                  who_, ": kernel larger than the padded input");
    const int oh = out_size(h, window_, stride_, pad_);
    const int ow = out_size(w, window_, stride_, pad_);
    start_.assign(1, 0);
    off_.clear();
    for (int oy = 0; oy < oh; ++oy)
      for (int ox = 0; ox < ow; ++ox) {
        for (int iy = oy * stride_ - pad_; iy < oy * stride_ - pad_ + window_; ++iy)
          for (int ix = ox * stride_ - pad_; ix < ox * stride_ - pad_ + window_; ++ix)
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              off_.push_back(static_cast<std::size_t>(iy) * w + ix);
        start_.push_back(off_.size());
      }
    out_shape_ = {x.dim(0), x.dim(1), oh, ow};
    planes_ = static_cast<std::size_t>(x.dim(0)) * x.dim(1);
    plane_inputs_ = static_cast<std::size_t>(h) * w;
  }
  in_shape_ = x.shape();
}

// ------------------------------------------------------------------- ReLU --

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  if (train) mask_ = Tensor(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (profile_) profile_(x[i]);
    const bool pos = x[i] > 0.0f;
    y[i] = pos ? x[i] : 0.0f;
    if (train) mask_[i] = pos ? 1.0f : 0.0f;
  }
  guard_.record(y, train);
  return y;
}

Tensor ReLU::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  Tensor gx(gy.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i) gx[i] = gy[i] * mask_[i];
  return gx;
}

// ------------------------------------------------------------ ExactMaxPool --

Tensor ExactMaxPool::forward(const Tensor& x, bool train) {
  windows_.tabulate(x);
  Tensor y(windows_.out_shape());
  if (train) argmax_.resize(y.numel());
  windows_.for_each([&](std::size_t o, PoolWindows::Window w) {
    std::size_t arg = w[0];
    float m = x[arg];
    for (std::size_t k = 1; k < w.size; ++k) {
      const float v = x[w[k]];
      if (profile_) profile_(m - v);
      if (v > m) {
        m = v;
        arg = w[k];
      }
    }
    y[o] = m;
    if (train) argmax_[o] = arg;
  });
  guard_.record(y, train);
  return y;
}

Tensor ExactMaxPool::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  Tensor gx(windows_.in_shape());
  for (std::size_t o = 0; o < gy.numel(); ++o) gx[argmax_[o]] += gy[o];
  return gx;
}

MaxPool2d::MaxPool2d(int kernel, int stride, int pad, const std::string& name)
    : ExactMaxPool(PoolWindows::padded("MaxPool2d", kernel, stride, pad), name) {}

// --------------------------------------------------------------- Window1d --

Window1d::Window1d(std::vector<float> taps, float bias, const std::string& name)
    : taps_(static_cast<int>(taps.size())), name_(name) {
  sp::check(taps_ >= 1, "Window1d: needs at least one tap");
  w_.name = name + ".taps";
  w_.value = Tensor({taps_});
  w_.grad = Tensor({taps_});
  for (int t = 0; t < taps_; ++t) w_.value[static_cast<std::size_t>(t)] = taps[static_cast<std::size_t>(t)];
  b_.name = name + ".b";
  b_.value = Tensor({1});
  b_.grad = Tensor({1});
  b_.value[0] = bias;
}

Tensor Window1d::forward(const Tensor& x, bool train) {
  sp::check(x.ndim() == 2, "Window1d: expects [B, W], got " + x.shape_str());
  const int batch = x.dim(0), w = x.dim(1);
  sp::check(taps_ <= w, "Window1d: more taps than slots");
  Tensor y({batch, w});
  const double bias = b_.value[0];
  for (int n = 0; n < batch; ++n)
    for (int j = 0; j < w; ++j) {
      // Accumulate in double so the output rounds to float exactly once —
      // this keeps the lowered FHE pipeline within its 2^-20 parity budget.
      double acc = bias;
      for (int t = 0; t < taps_; ++t)
        acc += static_cast<double>(w_.value[static_cast<std::size_t>(t)]) *
               static_cast<double>(x.at(n, (j + t) % w));
      y.at(n, j) = static_cast<float>(acc);
    }
  if (train) x_cache_ = x;
  guard_.record(y, train);
  return y;
}

Tensor Window1d::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  const Tensor& x = x_cache_;
  const int batch = x.dim(0), w = x.dim(1);
  Tensor gx({batch, w});
  double gb = 0.0;
  std::vector<double> gw(static_cast<std::size_t>(taps_), 0.0);
  for (int n = 0; n < batch; ++n)
    for (int j = 0; j < w; ++j) {
      const double g = gy.at(n, j);
      gb += g;
      for (int t = 0; t < taps_; ++t) {
        gw[static_cast<std::size_t>(t)] += g * static_cast<double>(x.at(n, (j + t) % w));
        gx.at(n, (j + t) % w) +=
            static_cast<float>(g * static_cast<double>(w_.value[static_cast<std::size_t>(t)]));
      }
    }
  for (int t = 0; t < taps_; ++t)
    w_.grad[static_cast<std::size_t>(t)] += static_cast<float>(gw[static_cast<std::size_t>(t)]);
  b_.grad[0] += static_cast<float>(gb);
  return gx;
}

void Window1d::collect_params(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

std::vector<double> Window1d::tap_values() const {
  std::vector<double> out(static_cast<std::size_t>(taps_));
  for (int t = 0; t < taps_; ++t) out[static_cast<std::size_t>(t)] = w_.value[static_cast<std::size_t>(t)];
  return out;
}

// -------------------------------------------------------------- MaxPool1d --

MaxPool1d::MaxPool1d(int window, const std::string& name) : MaxPool1d(window, 1, name) {}

MaxPool1d::MaxPool1d(int window, int stride, const std::string& name)
    : ExactMaxPool(PoolWindows::cyclic("MaxPool1d", window, stride), name) {}

// -------------------------------------------------------------- AvgPool2d --

AvgPool2d::AvgPool2d(int kernel, int stride, const std::string& name)
    : windows_(PoolWindows::padded("AvgPool2d", kernel, stride, 0)), name_(name) {}

Tensor AvgPool2d::forward(const Tensor& x, bool) {
  windows_.tabulate(x);
  Tensor y(windows_.out_shape());
  const float inv = 1.0f / static_cast<float>(windows_.window_inputs());
  windows_.for_each([&](std::size_t o, PoolWindows::Window w) {
    float acc = 0.0f;
    for (std::size_t k = 0; k < w.size; ++k) acc += x[w[k]];
    y[o] = acc * inv;
  });
  return y;
}

Tensor AvgPool2d::backward(const Tensor& gy) {
  sp::check_fmt(windows_.fits_output(gy), name_,
                ": backward needs the output shape of the last forward");
  Tensor gx(windows_.in_shape());
  const float inv = 1.0f / static_cast<float>(windows_.window_inputs());
  windows_.for_each([&](std::size_t o, PoolWindows::Window w) {
    const float g = gy[o] * inv;
    for (std::size_t k = 0; k < w.size; ++k) gx[w[k]] += g;
  });
  return gx;
}

// ----------------------------------------------------------- GlobalAvgPool --

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  sp::check(x.ndim() == 4, "GlobalAvgPool: bad input " + x.shape_str());
  const int batch = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  in_shape_ = x.shape();
  Tensor y({batch, c, 1, 1});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int n = 0; n < batch; ++n)
    for (int cc = 0; cc < c; ++cc) {
      float acc = 0.0f;
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) acc += x.at(n, cc, i, j);
      y.at(n, cc, 0, 0) = acc * inv;
    }
  guard_.record(y, train);
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  Tensor gx(in_shape_);
  const int h = in_shape_[2], w = in_shape_[3];
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int n = 0; n < gy.dim(0); ++n)
    for (int cc = 0; cc < gy.dim(1); ++cc) {
      const float g = gy.at(n, cc, 0, 0) * inv;
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) gx.at(n, cc, i, j) = g;
    }
  return gx;
}

// ---------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x, bool) {
  sp::check(x.ndim() >= 1, "Flatten: bad input " + x.shape_str());
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), static_cast<int>(x.numel()) / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& gy) { return gy.reshaped(in_shape_); }

// ---------------------------------------------------------------- Dropout --

Tensor Dropout::forward(const Tensor& x, bool train) {
  guard_.record(x, train);  // the output has the input's shape
  if (!train || !enabled_ || p_ <= 0.0) {
    mask_ = Tensor();
    return x;
  }
  mask_ = Tensor(x.shape());
  Tensor y(x.shape());
  const float keep = static_cast<float>(1.0 - p_);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const bool on = !rng_.coin(p_);
    mask_[i] = on ? 1.0f / keep : 0.0f;
    y[i] = x[i] * mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& gy) {
  guard_.check(name_, gy);
  if (mask_.numel() == 0) return gy;
  Tensor gx(gy.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i) gx[i] = gy[i] * mask_[i];
  return gx;
}

}  // namespace sp::nn
