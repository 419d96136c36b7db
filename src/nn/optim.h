#pragma once

#include <vector>

#include "nn/layer.h"

namespace sp::nn {

/// Per-group training hyperparameters. Defaults follow the paper's Table 5:
/// PAF coefficients use lr 1e-4 / weight decay 0.01; other layers use
/// lr 1e-5 / weight decay 0.1.
struct HyperParams {
  double lr = 1e-3;
  double weight_decay = 0.0;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;

  static HyperParams paper_paf() { return {1e-4, 0.01, 0.9, 0.999, 1e-8}; }
  static HyperParams paper_other() { return {1e-5, 0.1, 0.9, 0.999, 1e-8}; }
};

/// Adam with decoupled per-group hyperparameters and group freezing — the
/// mechanism behind Alternate Training (paper §4.4). Frozen parameters are
/// skipped entirely (their moments do not advance).
class Adam {
 public:
  Adam(std::vector<Param*> params, HyperParams paf_hp, HyperParams other_hp);

  void zero_grad();
  void step();

  /// Freezes/unfreezes an entire parameter group (AT phase switch).
  void set_group_frozen(ParamGroup g, bool frozen);

  /// Rebinds to a new parameter list (after a replacement pass changed the
  /// model structure); optimizer state restarts.
  void rebind(std::vector<Param*> params);

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> m_, v_;
  HyperParams paf_hp_, other_hp_;
  long t_ = 0;
};

/// Plain SGD with momentum (same grouping semantics), used by ablations.
class Sgd {
 public:
  Sgd(std::vector<Param*> params, HyperParams paf_hp, HyperParams other_hp,
      double momentum = 0.9);

  void zero_grad();
  void step();
  void set_group_frozen(ParamGroup g, bool frozen);

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> vel_;
  HyperParams paf_hp_, other_hp_;
  double momentum_;
};

}  // namespace sp::nn
