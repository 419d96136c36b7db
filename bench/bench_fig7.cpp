// Reproduces Fig. 7: post-replacement validation accuracy *without*
// fine-tuning, Coefficient Tuning (CT) vs baseline initialization, for
// ReLU-only replacement (top panel) and ReLU+MaxPool replacement (bottom).
#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "smartpaf/coefficient_tuning.h"

int main() {
  using namespace sp;
  using approx::PafForm;

  const auto& ds = bench::imagenet_mini();
  const nn::Dataset& val = bench::ft_val_imagenet();
  nn::Model base = bench::trained_resnet();
  const double base_acc = nn::evaluate_accuracy(base, val);
  std::printf("=== Fig. 7: CT vs baseline, no fine-tuning (ResNet-18-mini) ===\n");
  std::printf("original model accuracy: %s\n\n", bench::pct(base_acc).c_str());

  Table table({"Form", "Panel", "baseline", "+CT", "CT gain"});
  for (PafForm form : approx::trainable_forms()) {
    // CT coefficients are computed once on the original model.
    nn::Model profiled = bench::trained_resnet();
    smartpaf::CtConfig cc = bench::combo_cfg(form, true, false, false, true, true).ct;
    const smartpaf::CtResult ct =
        smartpaf::coefficient_tuning(profiled, ds.train, form, cc);

    for (const bool replace_maxpool : {false, true}) {
      double accs[2];
      for (const bool use_ct : {false, true}) {
        nn::Model m = bench::trained_resnet();
        smartpaf::ReplaceOptions opts;
        opts.form = form;
        opts.replace_maxpool = replace_maxpool;
        if (use_ct) opts.per_site_coeffs = ct.coeffs;
        smartpaf::replace_all(m, opts);
        accs[use_ct ? 1 : 0] = nn::evaluate_accuracy(m, val);
      }
      const double gain = accs[0] > 0 ? accs[1] / accs[0] : 0.0;
      table.add_row({approx::form_name(form),
                     replace_maxpool ? "ReLU+MaxPool" : "ReLU only",
                     bench::pct(accs[0]), bench::pct(accs[1]),
                     Table::num(gain, 2) + "x"});
    }
  }
  table.print(std::cout);
  table.write_csv(bench::out_dir() + "/fig7.csv");
  std::printf("\nPaper shape check: CT gains are largest for low-degree forms, and the\n"
              "ReLU+MaxPool panel sits below the ReLU-only panel.\n");
  return 0;
}
