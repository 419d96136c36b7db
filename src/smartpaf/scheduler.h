#pragma once

#include "nn/trainer.h"
#include "smartpaf/coefficient_tuning.h"
#include "smartpaf/techniques.h"

namespace sp::smartpaf {

/// Configuration of the SMART-PAF scheduling framework (paper Fig. 6).
///
/// Flag mapping to the paper's ablation rows (Table 3):
///  - prior-work baseline:        ct=0, progressive_replace=0,
///                                progressive_train=0, at=0, train_paf=false
///  - "+ CT":                     use_ct = true
///  - "+ PA":                     progressive_replace = progressive_train = true
///  - "+ AT":                     use_at = true (phases alternate PAF/other)
/// Dynamic Scaling is always on during fine-tuning; run() reports both the
/// DS accuracy and the accuracy after the Static Scaling conversion. Every
/// ReLU is replaced, every training group ends with the SWA branch pick, and
/// a step whose training accuracy overfits switches dropout on.
struct SchedulerConfig {
  approx::PafForm form = approx::PafForm::F1SQ_G1SQ;
  bool use_ct = true;
  bool progressive_replace = true;
  bool progressive_train = true;
  bool use_at = true;
  /// When false, PAF coefficients are excluded from fine-tuning (the
  /// prior-work baseline of §5.3).
  bool train_paf = true;
  bool replace_maxpool = true;
  int group_epochs = 2;          ///< E — epochs per training group
  int max_groups_per_step = 3;   ///< safety cap on the Fig. 6 inner loop
  bool final_network_train = true;
  nn::TrainConfig train;
  CtConfig ct;
};

/// One point of the training trace (drives the Fig. 9 reproduction).
struct TraceEvent {
  int epoch = 0;
  double val_acc = 0.0;
  std::string tag;  ///< "", "replace:<site>", "swa", "at", "dropout", "final"
};

/// Scheduler outcome.
struct SchedulerResult {
  double initial_acc = 0.0;     ///< post-replacement accuracy before training
  double best_acc_ds = 0.0;     ///< best validation accuracy under DS
  double acc_ss = 0.0;          ///< accuracy after Static Scaling conversion
  std::vector<TraceEvent> trace;
  std::vector<std::vector<double>> final_coeffs;  ///< per PAF layer
  int epochs_run = 0;
};

/// The SMART-PAF framework: orchestrates CT, PA, AT, DS/SS, SWA and dropout
/// over the replacement of a model's non-polynomial operators.
///
/// The model is modified in place (PAFs inserted, weights fine-tuned) and is
/// left in its best-accuracy state with Static Scaling applied (i.e.,
/// FHE-deployable).
class Scheduler {
 public:
  Scheduler(nn::Model& model, const nn::Dataset& train, const nn::Dataset& val,
            SchedulerConfig cfg);

  SchedulerResult run();

 private:
  /// One Fig. 6 step: training groups with SWA + improvement detection +
  /// dropout-on-overfit + AT swaps, until no branch improves.
  void run_step(long site_limit, SchedulerResult& result);

  /// Trains one group of E epochs; returns the best validation accuracy seen
  /// (model left at the better of best-epoch/SWA weights).
  double run_group(long site_limit, TrainTarget target, SchedulerResult& result,
                   double* last_train_acc);

  void set_freezing(long site_limit, TrainTarget target);
  void enable_dropout();

  nn::Model* model_;
  const nn::Dataset* train_;
  const nn::Dataset* val_;
  SchedulerConfig cfg_;
  TrainTarget current_target_ = TrainTarget::Both;
};

}  // namespace sp::smartpaf
