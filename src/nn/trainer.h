#pragma once

#include "nn/container.h"
#include "nn/dataset.h"
#include "nn/optim.h"

namespace sp::nn {

/// Training-loop configuration. The per-group hyperparameters default to the
/// paper's Table 5 fine-tuning values.
struct TrainConfig {
  int batch_size = 32;
  HyperParams paf_hp = HyperParams::paper_paf();
  HyperParams other_hp = HyperParams::paper_other();
  std::uint64_t seed = 123;
};

/// Per-epoch metrics.
struct EpochResult {
  double train_loss = 0.0;
  double train_acc = 0.0;
  double val_acc = 0.0;
};

/// Top-1 accuracy of `model` on `ds` in eval mode, `batch_size` samples per
/// forward: untracked batch normalization and Dynamic-Scaling PAF layers
/// read the batch, so the accuracy depends on it.
double evaluate_accuracy(Model& model, const Dataset& ds, int batch_size = 64);

/// Minimal supervised trainer: mini-batch Adam over a Model.
class Trainer {
 public:
  Trainer(Model& model, const Dataset& train, const Dataset& val, TrainConfig cfg);

  /// One full pass over the training set followed by validation.
  EpochResult run_epoch();

  Adam& optimizer() { return opt_; }
  /// Re-collects parameters after the model structure changed.
  void rebind();

 private:
  Model* model_;
  const Dataset* train_;
  const Dataset* val_;
  TrainConfig cfg_;
  sp::Rng rng_;
  Adam opt_;
};

}  // namespace sp::nn
