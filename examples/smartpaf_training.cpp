// SMART-PAF end-to-end: take a trained CNN, replace every non-polynomial
// operator (ReLU + MaxPool) with low-degree PAFs, recover accuracy with the
// CT + PA + AT scheduler, convert to Static Scaling and print the
// FHE-deployment report.
//
// Build & run:  ./build/examples/smartpaf_training
#include <cstdio>

#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/trainer.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/scheduler.h"

int main() {
  using namespace sp;

  // --- a small task + model --------------------------------------------------
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(16);
  spec.train_count = 800;
  spec.val_count = 200;
  const data::SyntheticData ds = data::make_synthetic(spec);

  models::ModelConfig mc;
  mc.num_classes = spec.num_classes;
  mc.width = 8;
  nn::Model model = models::cnn7(mc);

  nn::TrainConfig tc;
  tc.batch_size = 32;
  tc.paf_hp = {1e-3, 0.0, 0.9, 0.999, 1e-8};
  tc.other_hp = {1e-3, 1e-4, 0.9, 0.999, 1e-8};
  {
    nn::Trainer trainer(model, ds.train, ds.val, tc);
    for (int e = 0; e < 6; ++e) trainer.run_epoch();
  }
  std::printf("base model:            val acc %.1f%%  (%zu non-poly sites)\n",
              100.0 * nn::evaluate_accuracy(model, ds.val),
              smartpaf::find_nonpoly_sites(model).size());

  // --- the SMART-PAF framework ------------------------------------------------
  smartpaf::SchedulerConfig cfg;
  cfg.form = approx::PafForm::F1SQ_G1SQ;  // the paper's sweet-spot 14-degree PAF
  cfg.group_epochs = 2;
  cfg.max_groups_per_step = 2;
  cfg.train = tc;
  cfg.train.paf_hp = {1e-3, 0.01, 0.9, 0.999, 1e-8};
  cfg.train.other_hp = {1e-4, 0.1, 0.9, 0.999, 1e-8};
  smartpaf::Scheduler sched(model, ds.train, ds.val, cfg);
  const smartpaf::SchedulerResult res = sched.run();

  std::printf("post-replacement:      val acc %.1f%% (before any fine-tuning)\n",
              100.0 * res.initial_acc);
  std::printf("SMART-PAF (DS):        val acc %.1f%% after %d epochs\n",
              100.0 * res.best_acc_ds, res.epochs_run);
  std::printf("SMART-PAF (SS, FHE):   val acc %.1f%% — deployable, no value-dependent ops\n",
              100.0 * res.acc_ss);

  // --- FHE deployment report ---------------------------------------------------
  std::printf("\nper-layer CKKS deployment report (N=4096):\n");
  fhe::CkksParams params = fhe::CkksParams::for_depth(4096, 11, 30);
  params.q_bits[0] = 50;
  params.special_bits = 50;
  smartpaf::FheRuntime rt(params);
  for (const auto& row : smartpaf::deployment_report(model, rt)) {
    std::printf("  %-24s depth %2d  scale %7.2f  %8.1f ms\n", row.path.c_str(),
                row.depth, row.static_scale, row.ms);
  }
  return 0;
}
