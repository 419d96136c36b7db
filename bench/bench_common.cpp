#include "bench_common.h"

#include <cstdio>
#include <filesystem>

#include "common/table.h"
#include "common/timer.h"

namespace sp::bench {

std::string out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

const data::SyntheticData& imagenet_mini() {
  static const data::SyntheticData ds = [] {
    data::SyntheticSpec spec = data::SyntheticSpec::imagenet_like(16);
    spec.train_count = 1600;
    spec.val_count = 400;
    return data::make_synthetic(spec);
  }();
  return ds;
}

const data::SyntheticData& cifar_mini() {
  static const data::SyntheticData ds = [] {
    data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(32);
    spec.train_count = 900;
    spec.val_count = 300;
    return data::make_synthetic(spec);
  }();
  return ds;
}

models::ModelConfig resnet_cfg() {
  models::ModelConfig cfg;
  cfg.num_classes = 20;
  cfg.width = 8;
  cfg.seed = 3;
  return cfg;
}

models::ModelConfig vgg_cfg() {
  models::ModelConfig cfg;
  cfg.num_classes = 10;
  cfg.width = 4;
  cfg.seed = 5;
  return cfg;
}

nn::Dataset subset(const nn::Dataset& ds, int n) {
  n = std::min(n, ds.size());
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  const nn::Batch b = ds.batch(idx);
  nn::Dataset out;
  out.images = b.x;
  out.labels = b.y;
  out.num_classes = ds.num_classes;
  return out;
}

const nn::Dataset& ft_train_imagenet() {
  static const nn::Dataset ds = subset(imagenet_mini().train, 600);
  return ds;
}
const nn::Dataset& ft_val_imagenet() {
  static const nn::Dataset ds = subset(imagenet_mini().val, 200);
  return ds;
}
const nn::Dataset& ft_train_cifar() {
  static const nn::Dataset ds = subset(cifar_mini().train, 500);
  return ds;
}
const nn::Dataset& ft_val_cifar() {
  static const nn::Dataset ds = subset(cifar_mini().val, 200);
  return ds;
}

nn::TrainConfig base_train_cfg() {
  nn::TrainConfig tc;
  tc.batch_size = 32;
  tc.paf_hp = {1e-3, 0.0, 0.9, 0.999, 1e-8};
  tc.other_hp = {1e-3, 1e-4, 0.9, 0.999, 1e-8};
  return tc;
}

namespace {

nn::Model trained_base(const char* tag, nn::Model model, const data::SyntheticData& ds,
                       int epochs) {
  const std::string path = out_dir() + "/" + tag + ".bin";
  if (model.load(path)) {
    static bool announced = false;
    if (!announced) {
      std::printf("[bench] loaded cached base model %s (val acc %.1f%%)\n", path.c_str(),
                  100.0 * nn::evaluate_accuracy(model, ds.val));
      announced = true;
    }
    return model;
  }
  std::printf("[bench] training base model %s (%d epochs)...\n", tag, epochs);
  sp::Timer t;
  nn::Trainer trainer(model, ds.train, ds.val, base_train_cfg());
  double val = 0;
  for (int e = 0; e < epochs; ++e) val = trainer.run_epoch().val_acc;
  std::printf("[bench] base %s trained: val acc %.1f%% (%.0fs)\n", tag, 100.0 * val,
              t.seconds());
  model.save(path);
  return model;
}

}  // namespace

nn::Model trained_resnet() {
  return trained_base("resnet18_imagenet_mini", models::resnet18(resnet_cfg()),
                      imagenet_mini(), 12);
}

nn::Model trained_vgg() {
  return trained_base("vgg19_cifar_mini", models::vgg19(vgg_cfg()), cifar_mini(), 8);
}

smartpaf::SchedulerConfig combo_cfg(approx::PafForm form, bool ct, bool pa, bool at,
                                    bool train_paf, bool replace_maxpool) {
  smartpaf::SchedulerConfig cfg;
  cfg.form = form;
  cfg.use_ct = ct;
  cfg.progressive_replace = pa;
  cfg.progressive_train = pa;
  cfg.use_at = at;
  cfg.train_paf = train_paf;
  cfg.replace_maxpool = replace_maxpool;
  cfg.group_epochs = 1;
  // Comparable epoch budgets: AT needs a second group per step to swap into.
  cfg.max_groups_per_step = pa ? (at ? 2 : 1) : 3;
  cfg.final_network_train = pa;
  cfg.train.batch_size = 32;
  // Table 5 fine-tuning hyperparameters, scaled up for the mini budget.
  cfg.train.paf_hp = {1e-3, 0.01, 0.9, 0.999, 1e-8};
  cfg.train.other_hp = {1e-4, 0.1, 0.9, 0.999, 1e-8};
  cfg.ct.calib_batches = 2;
  cfg.ct.fit_iters = 120;
  cfg.ct.fit_samples = 1024;
  return cfg;
}

std::string pct(double frac) { return sp::Table::num(100.0 * frac, 1) + "%"; }

}  // namespace sp::bench
