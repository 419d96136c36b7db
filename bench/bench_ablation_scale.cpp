// Design-choice ablations beyond the paper's tables (DESIGN.md §4 "extra"):
//  (a) input-scaling policy during fine-tuning — Dynamic Scaling vs a fixed
//      wide range (the [-50,50]-style scale of prior works, §4.5) vs a fixed
//      tight range;
//  (b) latency-vs-depth linearity: PAF-ReLU wall-clock as a function of the
//      multiplication depth (the paper's latency model).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "smartpaf/fhe_deploy.h"

int main() {
  using namespace sp;
  using approx::PafForm;

  // ---- (a) scaling policy ---------------------------------------------------
  const nn::Dataset& ft_train = bench::ft_train_imagenet();
  const nn::Dataset& ft_val = bench::ft_val_imagenet();
  std::printf("=== Ablation A: input scaling policy during fine-tuning ===\n");
  Table ta({"Policy", "post-replacement", "after fine-tune"});
  struct Policy {
    const char* name;
    double fixed_scale;  // <= 0 means Dynamic Scaling
  };
  for (const Policy p : {Policy{"Dynamic Scaling (paper)", -1.0},
                         Policy{"fixed wide scale (50)", 50.0},
                         Policy{"fixed tight scale (2)", 2.0}}) {
    nn::Model m = bench::trained_resnet();
    smartpaf::ReplaceOptions opts;
    opts.form = PafForm::F1SQ_G1SQ;
    auto layers = smartpaf::replace_all(m, opts);
    if (p.fixed_scale > 0)
      for (auto* l : layers) l->set_static_scale(static_cast<float>(p.fixed_scale));
    const double acc0 = nn::evaluate_accuracy(m, ft_val);
    nn::TrainConfig tc = bench::base_train_cfg();
    tc.paf_hp = {1e-3, 0.01, 0.9, 0.999, 1e-8};
    tc.other_hp = {1e-4, 0.1, 0.9, 0.999, 1e-8};
    nn::Trainer tr(m, ft_train, ft_val, tc);
    double acc1 = 0;
    for (int e = 0; e < 3; ++e) acc1 = std::max(acc1, tr.run_epoch().val_acc);
    ta.add_row({p.name, bench::pct(acc0), bench::pct(acc1)});
  }
  ta.print(std::cout);
  ta.write_csv(bench::out_dir() + "/ablation_scale.csv");

  // ---- (b) latency vs depth ---------------------------------------------------
  std::printf("\n=== Ablation B: PAF-ReLU latency vs multiplication depth (N=8192) ===\n");
  smartpaf::FheRuntime rt(fhe::CkksParams::for_depth(8192, 12, 40));
  Table tb({"Form", "Depth", "Latency (ms)", "ms / level"});
  for (PafForm form : approx::all_forms()) {
    const auto paf = approx::make_paf(form);
    const auto res = smartpaf::measure_paf_relu(rt, paf, 8.0, 2);
    const int depth = paf.mult_depth() + 2;  // + scaling + final product
    tb.add_row({approx::form_name(form), std::to_string(depth),
                Table::num(res.ms_median, 1), Table::num(res.ms_median / depth, 1)});
  }
  tb.print(std::cout);
  tb.write_csv(bench::out_dir() + "/ablation_depth.csv");
  std::printf("\nShape check: ms/level is roughly constant — latency is linear in the\n"
              "multiplication depth, the premise of the paper's Table 2 cost model.\n");
  return 0;
}
