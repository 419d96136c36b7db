#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace sp::nn {

/// 2-D convolution (im2col + matmul), Kaiming-uniform initialized.
/// forward() accumulates each output in double and rounds to float once, so
/// the FHE channel-fan lowering (double precision plus ciphertext noise)
/// stays within its 2^-20 parity budget against the plaintext forward.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_ch, int out_ch, int kernel, int stride, int pad, sp::Rng& rng,
         bool bias = true, const std::string& name = "conv");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }

  int out_channels() const { return out_ch_; }
  int in_channels() const { return in_ch_; }
  int kernel() const { return k_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }
  /// [out_ch][in_ch][k][k] weights as doubles (FhePipeline conv lowering).
  std::vector<double> weight_values() const;
  /// Bias as doubles; empty when the layer was built without bias.
  std::vector<double> bias_values() const;

 private:
  void im2col(const Tensor& x, int n, std::vector<float>& col) const;
  void col2im(const std::vector<float>& col, int n, Tensor& gx) const;

  int in_ch_, out_ch_, k_, stride_, pad_;
  bool has_bias_;
  std::string name_;
  Param w_, b_;
  Tensor x_cache_;
  int oh_ = 0, ow_ = 0;
  BackwardGuard guard_;
};

/// Fully-connected layer. forward() accumulates each output in double and
/// rounds to float once, so the FHE diagonal-matmul lowering (which computes
/// in double precision plus ciphertext noise) stays within its 2^-20 parity
/// budget against the plaintext forward.
class Linear final : public Layer {
 public:
  Linear(int in, int out, sp::Rng& rng, bool bias = true,
         const std::string& name = "linear");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }

  int in_features() const { return in_; }
  int out_features() const { return out_; }
  /// Row-major [out, in] weights as doubles (FhePipeline lowering).
  std::vector<double> weight_values() const;
  /// Bias as doubles; empty when the layer was built without bias.
  std::vector<double> bias_values() const;

 private:
  int in_, out_;
  bool has_bias_;
  std::string name_;
  Param w_, b_;
  Tensor x_cache_;
  BackwardGuard guard_;
};

/// Per-channel batch normalization over the batch's own statistics, in
/// training and evaluation alike: no running statistics are kept (the
/// paper's Table-5 setting).
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(int channels, const std::string& name = "bn");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }

 private:
  int ch_;
  std::string name_;
  Param gamma_, beta_;
  // backward cache
  Tensor xhat_;
  std::vector<float> invstd_, mean_;
  int count_per_ch_ = 0;
  BackwardGuard guard_;
};

/// The windows a pooling layer reduces. The geometry is checked once, at
/// construction. Every plane of the input (a row of [B, W], a channel of
/// [N, C, H, W]) has the same windows, so tabulate() lists, for one input
/// shape, the inputs each output of one plane reads, in order, as offsets
/// into that plane; for_each() walks every output of the tensor.
class PoolWindows {
 public:
  /// One output's window: its k-th input is x[base + off[k]], k < size.
  struct Window {
    std::size_t base;
    const std::size_t* off;
    std::size_t size;
    std::size_t operator[](std::size_t k) const { return base + off[k]; }
  };

  /// Cyclic windows over the last axis of [B, W]: output j of row b reads
  /// x[b, (j * stride + t) mod W] for t < window, one output per stride
  /// (stride must divide W). Needs window >= 2 and stride >= 1.
  static PoolWindows cyclic(const char* who, int window, int stride);
  /// window x window windows over [N, C, H, W] at `stride`, padded by `pad`
  /// on each side, each read row-major with the padding skipped. Needs
  /// window >= 1, stride >= 1 and 0 <= pad < window, so no window is all
  /// padding.
  static PoolWindows padded(const char* who, int window, int stride, int pad);

  /// Tables the windows of x's shape, checking it against the geometry;
  /// keeps the table when the shape is that of the last call.
  void tabulate(const Tensor& x);

  int window() const { return window_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }
  /// Inputs of a window clear of the padding: window, or window^2 in 2-D.
  int window_inputs() const { return cyclic_ ? window_ : window_ * window_; }

  const std::vector<int>& in_shape() const { return in_shape_; }
  const std::vector<int>& out_shape() const { return out_shape_; }
  /// Whether t has the output shape of the last tabled input; false before
  /// the first tabulate(), when there is no table to index.
  bool fits_output(const Tensor& t) const {
    return !in_shape_.empty() && t.shape() == out_shape_;
  }

  /// Calls f(o, window) for every output o of the last tabled shape, in
  /// order.
  template <class F>
  void for_each(F&& f) const {
    const std::size_t* start = start_.data();
    const std::size_t* off = off_.data();
    const std::size_t outputs = start_.size() - 1;  // per plane
    for (std::size_t plane = 0, o = 0; plane < planes_; ++plane) {
      const std::size_t base = plane * plane_inputs_;
      for (std::size_t p = 0; p < outputs; ++p, ++o)
        f(o, Window{base, off + start[p], start[p + 1] - start[p]});
    }
  }

 private:
  PoolWindows(const char* who, bool cyclic, int window, int stride, int pad)
      : who_(who), cyclic_(cyclic), window_(window), stride_(stride), pad_(pad) {}

  const char* who_;  // layer named in error messages (a string literal)
  bool cyclic_;
  int window_, stride_, pad_;
  std::vector<int> in_shape_, out_shape_;
  std::size_t planes_ = 0, plane_inputs_ = 0;
  // Output p of a plane reads the plane's inputs at offsets off_[start_[p]],
  // ..., off_[start_[p + 1] - 1].
  std::vector<std::size_t> start_{0}, off_;
};

/// An operator CKKS cannot evaluate natively (ReLU, MaxPool): a replacement
/// target. The optional profiling hook receives every value forward() feeds
/// the operator's non-polynomial part (Coefficient Tuning step 2, §4.2).
class NonPolyLayer : public Layer {
 public:
  bool is_nonpoly() const final { return true; }

  using profile_fn = std::function<void(float)>;
  void set_profile(profile_fn fn) { profile_ = std::move(fn); }

 protected:
  profile_fn profile_;
};

/// ReLU; the profiling hook records every input.
class ReLU final : public NonPolyLayer {
 public:
  explicit ReLU(const std::string& name = "relu") : name_(name) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Tensor mask_;
  BackwardGuard guard_;
};

/// Exact max over each pooling window. Output o folds its window's inputs
/// v_0, v_1, ... in order, m <- max(m, v) from m = v_0, and the profiling
/// hook records m - v before each step: the pairwise differences the PAF-max
/// tournament replacing this layer feeds its PAF. Backward routes each
/// output's gradient to the first input holding its max.
class ExactMaxPool : public NonPolyLayer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return name_; }

 protected:
  ExactMaxPool(PoolWindows windows, const std::string& name)
      : windows_(std::move(windows)), name_(name) {}

  const PoolWindows& windows() const { return windows_; }

 private:
  PoolWindows windows_;
  std::string name_;
  std::vector<std::size_t> argmax_;  // flat input index of each output's max
  BackwardGuard guard_;
};

/// Max pooling over padded k x k windows (PoolWindows::padded).
class MaxPool2d final : public ExactMaxPool {
 public:
  MaxPool2d(int kernel, int stride, int pad = 0, const std::string& name = "maxpool");

  int kernel() const { return windows().window(); }
  int stride() const { return windows().stride(); }
  int pad() const { return windows().pad(); }
};

/// Cyclic 1-D window (circular correlation) over the last axis of a [B, W]
/// tensor: y[b, j] = bias + sum_t taps[t] * x[b, (j + t) mod W]. Taps and
/// bias are trainable. The cyclic boundary matches the FHE rotation-fan
/// window stage (a CKKS rotation is cyclic over all N/2 slots), so
/// `smartpaf::FhePipeline::lower` maps it to a WindowStage — with exact
/// slot parity when the network runs at W == slot_count (the lowered
/// pipeline wraps at the slot boundary, the layer wraps at W; at other
/// widths the last taps-1 outputs differ).
class Window1d final : public Layer {
 public:
  explicit Window1d(std::vector<float> taps, float bias = 0.0f,
                    const std::string& name = "window1d");

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }

  int taps() const { return taps_; }
  /// Current tap values (the trainable parameter, read back as doubles).
  std::vector<double> tap_values() const;
  double bias_value() const { return static_cast<double>(b_.value[0]); }

 private:
  int taps_;
  std::string name_;
  Param w_, b_;
  Tensor x_cache_;
  BackwardGuard guard_;
};

/// Cyclic 1-D max window over the last axis of [B, W]:
/// y[b, j] = max over t < window of x[b, (j * stride + t) mod W], one output
/// per stride (output width W / stride; stride must divide W). A
/// non-polynomial operator (replacement target -> smartpaf::PafMaxPool1d);
/// the cyclic geometry keeps the output slot-aligned for FhePipeline
/// lowering — stride 1 is the slot-identity layout, stride > 1 lowers to a
/// stride-1 tournament stage plus a CompactStage. With window <= stride the
/// pool never wraps at W, so plaintext/FHE parity holds at any width.
class MaxPool1d final : public ExactMaxPool {
 public:
  explicit MaxPool1d(int window, const std::string& name = "maxpool1d");
  MaxPool1d(int window, int stride, const std::string& name = "maxpool1d");

  int window() const { return windows().window(); }
  int stride() const { return windows().stride(); }
};

/// Average pooling over k x k windows without padding: each output sums its
/// window row-major in float and scales by 1/k^2.
class AvgPool2d final : public Layer {
 public:
  AvgPool2d(int kernel, int stride, const std::string& name = "avgpool");
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return name_; }

  int kernel() const { return windows_.window(); }
  int stride() const { return windows_.stride(); }

 private:
  PoolWindows windows_;
  std::string name_;
};

/// Global average pooling to 1x1.
class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(const std::string& name = "gap") : name_(name) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<int> in_shape_;
  BackwardGuard guard_;
};

/// [B,C,H,W] -> [B, C*H*W].
class Flatten final : public Layer {
 public:
  explicit Flatten(const std::string& name = "flatten") : name_(name) {}
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::vector<int> in_shape_;
};

/// Inverted dropout. The SMART-PAF scheduler enables it on detecting
/// overfitting (Fig. 6), so the rate is mutable at runtime.
class Dropout final : public Layer {
 public:
  explicit Dropout(double p = 0.5, std::uint64_t seed = 7,
                   const std::string& name = "dropout")
      : p_(p), enabled_(false), rng_(seed), name_(name) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  std::string name() const override { return name_; }

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

 private:
  double p_;
  bool enabled_;
  sp::Rng rng_;
  std::string name_;
  Tensor mask_;
  BackwardGuard guard_;
};

}  // namespace sp::nn
