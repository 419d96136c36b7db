#pragma once

#include "approx/composite.h"
#include "nn/layer.h"

namespace sp::smartpaf {

/// Input scaling mode of a PAF layer (paper §4.5).
///
/// Dynamic Scaling (training): scale = batch max |input|, so PAF inputs
/// always span [-1, 1]. Static Scaling (FHE deployment): the scale is frozen
/// to the running max observed during training — FHE has no value-dependent
/// operators, so the batch max is unavailable there.
enum class ScaleMode { Dynamic, Static };

/// Common interface of the two PAF replacement layers, used by the
/// replacement pass, Coefficient Tuning, scaling conversion and deployment.
class PafLayerBase : public nn::Layer {
 public:
  PafLayerBase(approx::CompositePaf paf, std::string name, ScaleMode mode, bool odd_only);

  /// The composite PAF with coefficients synced from the trainable param.
  const approx::CompositePaf& paf() const { return paf_; }

  std::vector<double> coeffs() const;

  ScaleMode mode() const { return mode_; }
  float static_scale() const { return static_scale_; }
  float running_max() const { return running_max_; }

  /// Fixes the scale explicitly (Static mode).
  void set_static_scale(float s);

  /// DS -> SS conversion: freezes the scale to the training running max.
  void convert_to_static();

  void collect_params(std::vector<nn::Param*>& out) override;
  std::string name() const override { return name_; }

 protected:
  /// Copies the trainable parameter into paf_ (call at each forward).
  void sync_coeffs();
  /// Batch scale given the observed max magnitude (updates running max when
  /// training).
  float resolve_scale(float batch_max, bool train);
  /// Zeroes gradient entries of even-degree coefficients (odd PAFs).
  void mask_even_grads();

  approx::CompositePaf paf_;
  std::string name_;
  ScaleMode mode_;
  bool odd_only_;
  nn::Param coeff_;
  float static_scale_ = 1.0f;
  float running_max_ = 0.0f;
  std::vector<bool> even_mask_;  // true at even-degree flat positions
};

/// ReLU replaced by relu(x) ≈ 0.5 (x + x · paf(x / s)) with trainable
/// composite-PAF coefficients (parameter group PafCoeff).
class PafActivation final : public PafLayerBase {
 public:
  PafActivation(approx::CompositePaf paf, std::string name,
                ScaleMode mode = ScaleMode::Dynamic, bool odd_only = true);

  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;

 private:
  nn::Tensor x_cache_;
  float scale_used_ = 1.0f;
};

/// nn::MaxPool1d replaced by the cyclic pairwise PAF-max tournament over a
/// [B, W] tensor: y[b, j] folds max over x[b, j*stride..j*stride+window-1]
/// (cyclic) as m <- 0.5 ((m + v) + (m - v) · paf((m - v)/s)), one output per
/// stride (output width W / stride). The fold order matches the encrypted
/// MaxPool stage of smartpaf::FhePipeline step for step — a stride > 1 pool
/// lowers to the stride-1 tournament stage plus a CompactStage — so a
/// lowered network's plaintext forward and its FHE evaluation agree to
/// ciphertext noise.
class PafMaxPool1d final : public PafLayerBase {
 public:
  PafMaxPool1d(approx::CompositePaf paf, int window, std::string name,
               ScaleMode mode = ScaleMode::Dynamic, bool odd_only = true);
  PafMaxPool1d(approx::CompositePaf paf, int window, int stride, std::string name,
               ScaleMode mode = ScaleMode::Dynamic, bool odd_only = true);

  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;

  int window() const { return window_; }
  int stride() const { return stride_; }

 private:
  int window_;
  int stride_ = 1;
  nn::Tensor x_cache_;
  float scale_used_ = 1.0f;
  // Backward scratch (reused across slots to avoid per-slot allocation).
  std::vector<double> fold_m_, fold_dprev_, fold_dv_, fold_dc_;
};

/// MaxPool replaced by a pairwise PAF-max tournament:
/// max(a,b) ≈ 0.5 ((a+b) + (a-b) · paf((a-b)/s)). Nested calls accumulate
/// approximation error — the reason the paper finds MaxPool harder to
/// approximate than ReLU (§5.4.3).
class PafMaxPool final : public PafLayerBase {
 public:
  PafMaxPool(approx::CompositePaf paf, int kernel, int stride, int pad, std::string name,
             ScaleMode mode = ScaleMode::Dynamic, bool odd_only = true);

  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;

  int kernel() const { return k_; }

 private:
  /// Collects the values of one pooling window.
  void window_values(const nn::Tensor& x, int n, int c, int oy, int ox,
                     std::vector<float>& vals, std::vector<std::size_t>& idx) const;

  int k_, stride_, pad_;
  nn::Tensor x_cache_;
  float scale_used_ = 1.0f;
  int oh_ = 0, ow_ = 0;
  // Backward scratch (reused across pixels to avoid per-pixel allocation).
  std::vector<double> fold_m_, fold_dprev_, fold_dv_, fold_dc_;
};

}  // namespace sp::smartpaf
