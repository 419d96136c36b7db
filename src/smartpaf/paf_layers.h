#pragma once

#include "approx/composite.h"
#include "nn/layers.h"

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
  PafLayerBase(approx::CompositePaf paf, std::string name, ScaleMode mode);

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
  /// Zeroes gradient entries of even-degree coefficients (PAFs are odd).
  void mask_even_grads();

  approx::CompositePaf paf_;
  std::string name_;
  ScaleMode mode_;
  nn::Param coeff_;
  float static_scale_ = 1.0f;
  float running_max_ = 0.0f;
  std::vector<bool> even_mask_;  // true at even-degree flat positions
  nn::Tensor x_cache_;           // input of the last training forward
  float scale_used_ = 1.0f;      // scale of the last forward
  nn::BackwardGuard guard_;
};

/// ReLU replaced by relu(x) ≈ 0.5 (x + x · paf(x / s)) with trainable
/// composite-PAF coefficients (parameter group PafCoeff).
class PafActivation final : public PafLayerBase {
 public:
  PafActivation(approx::CompositePaf paf, std::string name,
                ScaleMode mode = ScaleMode::Dynamic);

  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;
};

/// The pairwise PAF-max tournament both pool layers run: output o folds its
/// inputs v_0, v_1, ... in order as m <- 0.5 ((m + v) + (m - v) · paf((m - v)/s)),
/// starting from m = v_0, in double, rounding once on store. Dynamic Scaling
/// sets s to the batch max per-window spread, which bounds every pairwise
/// difference fed to the PAF up to the running max's own PAF error. A pool
/// layer supplies only its window geometry (nn::PoolWindows).
class PafMaxTournament : public PafLayerBase {
 public:
  nn::Tensor forward(const nn::Tensor& x, bool train) override;
  nn::Tensor backward(const nn::Tensor& gy) override;

  const nn::PoolWindows& windows() const { return windows_; }

 protected:
  PafMaxTournament(approx::CompositePaf paf, std::string name, ScaleMode mode,
                   nn::PoolWindows windows);

 private:
  nn::PoolWindows windows_;
};

/// nn::MaxPool1d replaced by the cyclic PAF-max tournament over a [B, W]
/// tensor: y[b, j] folds x[b, j*stride], ..., x[b, j*stride + window - 1]
/// (cyclic), one output per stride (output width W / stride). The fold order
/// matches the encrypted MaxPool stage of smartpaf::FhePipeline step for
/// step — a stride > 1 pool lowers to the stride-1 tournament stage plus a
/// CompactStage — so a lowered network's plaintext forward and its FHE
/// evaluation agree to ciphertext noise.
class PafMaxPool1d final : public PafMaxTournament {
 public:
  PafMaxPool1d(approx::CompositePaf paf, int window, std::string name,
               ScaleMode mode = ScaleMode::Dynamic);
  PafMaxPool1d(approx::CompositePaf paf, int window, int stride, std::string name,
               ScaleMode mode = ScaleMode::Dynamic);

  int window() const { return windows().window(); }
  int stride() const { return windows().stride(); }
};

/// MaxPool replaced by the PAF-max tournament over each k x k window, in
/// row-major order, padding skipped. Nested calls accumulate approximation
/// error — the reason the paper finds MaxPool harder to approximate than
/// ReLU (§5.4.3).
class PafMaxPool final : public PafMaxTournament {
 public:
  PafMaxPool(approx::CompositePaf paf, int kernel, int stride, int pad, std::string name,
             ScaleMode mode = ScaleMode::Dynamic);

  int kernel() const { return windows().window(); }
};

}  // namespace sp::smartpaf
