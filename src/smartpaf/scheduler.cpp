#include "smartpaf/scheduler.h"

#include "nn/layers.h"
#include "nn/swa.h"
#include "nn/trainer.h"

namespace sp::smartpaf {
namespace {

/// Dropout switches on when a group's training accuracy exceeds the step's
/// best validation accuracy by more than this ("train acc > val acc + 10%").
constexpr double kOverfitGap = 0.10;

/// Recursively switches on every Dropout layer.
void enable_all_dropout(nn::Layer& layer) {
  layer.visit_children([&](std::unique_ptr<nn::Layer>& slot) {
    if (auto* d = dynamic_cast<nn::Dropout*>(slot.get())) d->set_enabled(true);
    enable_all_dropout(*slot);
  });
}

}  // namespace

Scheduler::Scheduler(nn::Model& model, const nn::Dataset& train, const nn::Dataset& val,
                     SchedulerConfig cfg)
    : model_(&model), train_(&train), val_(&val), cfg_(std::move(cfg)) {}

void Scheduler::set_freezing(long site_limit, TrainTarget target) {
  apply_train_target(*model_, target);
  if (cfg_.progressive_train) freeze_after_site(*model_, site_limit);
}

void Scheduler::enable_dropout() { enable_all_dropout(model_->root()); }

double Scheduler::run_group(long site_limit, TrainTarget target, SchedulerResult& result,
                            double* last_train_acc) {
  set_freezing(site_limit, target);
  nn::Trainer trainer(*model_, *train_, *val_, cfg_.train);
  nn::SwaAverager swa(model_->params());

  double best_acc = -1.0;
  std::vector<nn::Tensor> best_state;
  for (int e = 0; e < cfg_.group_epochs; ++e) {
    const nn::EpochResult er = trainer.run_epoch();
    ++result.epochs_run;
    result.trace.push_back({result.epochs_run, er.val_acc, ""});
    if (last_train_acc) *last_train_acc = er.train_acc;
    swa.update();
    if (er.val_acc > best_acc) {
      best_acc = er.val_acc;
      best_state = model_->state();
    }
  }
  // Branch pick: SWA-averaged weights vs best epoch weights (Fig. 6).
  if (swa.count() > 0) {
    swa.apply();
    const double swa_acc = nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size);
    result.trace.push_back({result.epochs_run, swa_acc, "swa"});
    if (swa_acc >= best_acc) {
      best_acc = swa_acc;
      best_state = model_->state();
    }
  }
  model_->set_state(best_state);
  return best_acc;
}

void Scheduler::run_step(long site_limit, SchedulerResult& result) {
  double step_best = nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size);
  std::vector<nn::Tensor> step_best_state = model_->state();
  bool dropout_applied = false;
  bool at_swapped = false;

  current_target_ = !cfg_.train_paf ? TrainTarget::OtherOnly
                    : cfg_.use_at   ? TrainTarget::PafOnly
                                    : TrainTarget::Both;

  for (int group = 0; group < cfg_.max_groups_per_step; ++group) {
    double train_acc = 0.0;
    const double acc = run_group(site_limit, current_target_, result, &train_acc);
    if (acc > step_best + 1e-9) {
      // Accuracy improved: keep going with a fresh training group.
      step_best = acc;
      step_best_state = model_->state();
      continue;
    }
    // No improvement: try the Fig. 6 recovery branches.
    if (!dropout_applied && train_acc > step_best + kOverfitGap) {
      enable_dropout();
      dropout_applied = true;
      result.trace.push_back({result.epochs_run,
                              nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size),
                              "dropout"});
      continue;
    }
    if (cfg_.use_at && cfg_.train_paf && !at_swapped) {
      at_swapped = true;
      current_target_ = current_target_ == TrainTarget::PafOnly ? TrainTarget::OtherOnly
                                                                : TrainTarget::PafOnly;
      result.trace.push_back({result.epochs_run, step_best, "at"});
      continue;
    }
    break;  // step termination condition
  }
  model_->set_state(step_best_state);
  if (step_best > result.best_acc_ds) result.best_acc_ds = step_best;
}

SchedulerResult Scheduler::run() {
  SchedulerResult result;

  // Coefficient Tuning happens offline, before any replacement (Fig. 6).
  CtResult ct;
  if (cfg_.use_ct) ct = coefficient_tuning(*model_, *train_, cfg_.form, cfg_.ct);

  ReplaceOptions opts;
  opts.form = cfg_.form;
  opts.replace_maxpool = cfg_.replace_maxpool;
  opts.mode = ScaleMode::Dynamic;
  opts.per_site_coeffs = ct.coeffs;

  if (!cfg_.progressive_replace) {
    // Direct replacement: everything at once.
    replace_all(*model_, opts);
    result.initial_acc = nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size);
    result.trace.push_back({0, result.initial_acc, "replace:all"});
    result.best_acc_ds = result.initial_acc;
    const long limit = cfg_.progressive_train
                           ? static_cast<long>(find_paf_layers(*model_).size()) - 1
                           : -1;
    if (cfg_.progressive_train) {
      // Direct replacement + progressive training (Fig. 8 middle bar).
      const auto n = static_cast<long>(find_paf_layers(*model_).size());
      for (long i = 0; i < n; ++i) run_step(i, result);
    } else {
      run_step(limit, result);
    }
  } else {
    // Progressive Approximation: one site per step, inference order.
    const auto all_sites = find_nonpoly_sites(*model_);
    std::vector<std::size_t> targets;
    for (const auto& s : all_sites) {
      if (s.kind == SiteKind::ReLU || cfg_.replace_maxpool) targets.push_back(s.index);
    }
    long paf_count = 0;
    bool first = true;
    for (std::size_t t : targets) {
      // Re-enumerate: earlier replacements shift nothing (slots stable), but
      // indices refer to the original enumeration; map by path instead.
      auto sites = find_nonpoly_sites(*model_);
      const NonPolySite* site = nullptr;
      for (const auto& s : sites)
        if (s.path == all_sites[t].path) site = &s;
      if (site == nullptr) continue;  // already replaced
      approx::CompositePaf paf = approx::make_paf(cfg_.form);
      if (t < ct.coeffs.size() && !ct.coeffs[t].empty()) paf.load_coeffs(ct.coeffs[t]);
      replace_site(*model_, *site, paf, ScaleMode::Dynamic);
      const double acc = nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size);
      result.trace.push_back({result.epochs_run, acc, "replace:" + all_sites[t].path});
      if (first) {
        result.initial_acc = acc;
        first = false;
      }
      run_step(paf_count, result);
      ++paf_count;
    }
  }

  // Optional final network-wide fine-tuning pass (Fig. 9's last segment).
  if (cfg_.final_network_train && cfg_.train_paf) {
    const double before = result.best_acc_ds;
    auto best_state = model_->state();
    double train_acc = 0.0;
    unfreeze_all(*model_);
    const double acc = run_group(-1, TrainTarget::Both, result, &train_acc);
    result.trace.push_back({result.epochs_run, acc, "final"});
    if (acc > before) {
      result.best_acc_ds = acc;
    } else {
      model_->set_state(best_state);
    }
  }

  // Report DS accuracy, then convert to the FHE-deployable Static Scaling.
  result.best_acc_ds =
      std::max(result.best_acc_ds, nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size));
  convert_to_static_scaling(*model_);
  result.acc_ss = nn::evaluate_accuracy(*model_, *val_, cfg_.train.batch_size);
  for (PafLayerBase* p : find_paf_layers(*model_)) result.final_coeffs.push_back(p->coeffs());
  unfreeze_all(*model_);
  return result;
}

}  // namespace sp::smartpaf
