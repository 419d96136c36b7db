// Reproduces Table 3: the technique-combination ablation.
//
// Default (quick) mode runs the headline section — ResNet-18-mini with *all*
// non-polynomial operators replaced — over all five trainable PAF forms:
//   baseline+DS w/o fine-tune, baseline+CT+DS w/o fine-tune,
//   baseline+DS, baseline+SS, SMART-PAF(CT+PA+AT)+DS, SMART-PAF+SS.
// --full adds the ReLU-only ResNet section (with the intermediate technique
// combos) and the VGG-19/cifar section.
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "common/table.h"
#include "common/timer.h"
#include "smartpaf/coefficient_tuning.h"

namespace {

using namespace sp;
using approx::PafForm;

struct NoFtResult {
  double baseline = 0.0;
  double with_ct = 0.0;
};

NoFtResult no_finetune_row(const std::function<nn::Model()>& base,
                           const nn::Dataset& val, const nn::Dataset& train,
                           PafForm form, bool replace_maxpool) {
  NoFtResult out;
  {
    nn::Model m = base();
    smartpaf::ReplaceOptions opts;
    opts.form = form;
    opts.replace_maxpool = replace_maxpool;
    smartpaf::replace_all(m, opts);
    out.baseline = nn::evaluate_accuracy(m, val);
  }
  {
    nn::Model m = base();
    const smartpaf::CtConfig cc = bench::combo_cfg(form, 1, 0, 0, 1, 1).ct;
    const auto ct = smartpaf::coefficient_tuning(m, train, form, cc);
    smartpaf::ReplaceOptions opts;
    opts.form = form;
    opts.replace_maxpool = replace_maxpool;
    opts.per_site_coeffs = ct.coeffs;
    smartpaf::replace_all(m, opts);
    out.with_ct = nn::evaluate_accuracy(m, val);
  }
  return out;
}

smartpaf::SchedulerResult run_combo(const std::function<nn::Model()>& base,
                                    const nn::Dataset& train, const nn::Dataset& val,
                                    PafForm form, bool ct, bool pa, bool at,
                                    bool train_paf, bool replace_maxpool) {
  nn::Model m = base();
  smartpaf::SchedulerConfig cfg = bench::combo_cfg(form, ct, pa, at, train_paf, replace_maxpool);
  smartpaf::Scheduler sched(m, train, val, cfg);
  return sched.run();
}

void run_section(const char* title, const std::function<nn::Model()>& base,
                 const nn::Dataset& ft_train, const nn::Dataset& ft_val,
                 bool replace_maxpool, bool full_rows, const std::string& csv,
                 const std::vector<PafForm>& forms) {
  std::printf("\n--- %s ---\n", title);
  std::vector<std::string> header{"Technique setup"};
  for (PafForm form : forms) header.push_back(approx::form_name(form));
  Table table(std::move(header));

  auto add_row = [&](const std::string& name, const std::function<double(PafForm)>& f) {
    sp::Timer t;
    std::vector<std::string> row{name};
    for (PafForm form : forms) row.push_back(bench::pct(f(form)));
    table.add_row(std::move(row));
    std::printf("  [%s: %.0fs]\n", name.c_str(), t.seconds());
  };

  // Cache the per-form no-fine-tune pairs (used by two rows).
  std::map<PafForm, NoFtResult> noft;
  for (PafForm form : forms)
    noft[form] = no_finetune_row(base, ft_val, ft_train, form, replace_maxpool);

  add_row("baseline + DS w/o fine tune", [&](PafForm f) { return noft[f].baseline; });
  add_row("baseline + CT + DS w/o fine tune", [&](PafForm f) { return noft[f].with_ct; });

  // Trained rows. Each scheduler run reports both DS and SS accuracy.
  std::map<PafForm, smartpaf::SchedulerResult> base_run, smart_run;
  add_row("baseline + DS", [&](PafForm f) {
    base_run[f] = run_combo(base, ft_train, ft_val, f, 0, 0, 0, /*train_paf=*/false, replace_maxpool);
    return base_run[f].best_acc_ds;
  });
  add_row("baseline + SS (prior work)", [&](PafForm f) { return base_run[f].acc_ss; });

  if (full_rows) {
    add_row("baseline + AT + DS", [&](PafForm f) {
      return run_combo(base, ft_train, ft_val, f, 0, 0, 1, 1, replace_maxpool).best_acc_ds;
    });
    add_row("baseline + PA + DS", [&](PafForm f) {
      return run_combo(base, ft_train, ft_val, f, 0, 1, 0, 1, replace_maxpool).best_acc_ds;
    });
    add_row("baseline + PA + AT + DS", [&](PafForm f) {
      return run_combo(base, ft_train, ft_val, f, 0, 1, 1, 1, replace_maxpool).best_acc_ds;
    });
    add_row("baseline + CT + PA + DS", [&](PafForm f) {
      return run_combo(base, ft_train, ft_val, f, 1, 1, 0, 1, replace_maxpool).best_acc_ds;
    });
  }

  add_row("SMART-PAF: CT + PA + AT + DS", [&](PafForm f) {
    smart_run[f] = run_combo(base, ft_train, ft_val, f, 1, 1, 1, 1, replace_maxpool);
    return smart_run[f].best_acc_ds;
  });
  add_row("SMART-PAF: CT + PA + AT + SS", [&](PafForm f) { return smart_run[f].acc_ss; });

  table.print(std::cout);
  table.write_csv(csv);
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;
  std::printf("=== Table 3: technique ablation (quick budgets; --full for all sections) ===\n");

  auto resnet_base = [] { return sp::bench::trained_resnet(); };
  {
    sp::nn::Model m = resnet_base();
    std::printf("ResNet-18-mini original accuracy: %s\n",
                sp::bench::pct(sp::nn::evaluate_accuracy(
                    m, sp::bench::ft_val_imagenet())).c_str());
  }
  const std::vector<PafForm> forms =
      full ? sp::approx::trainable_forms()
           : std::vector<PafForm>{PafForm::F1SQ_G1SQ, PafForm::ALPHA7, PafForm::F1_G2};

  run_section("Replace ALL non-polynomial (ResNet-18-mini / imagenet-like)", resnet_base,
              sp::bench::ft_train_imagenet(), sp::bench::ft_val_imagenet(),
              /*replace_maxpool=*/true, full,
              sp::bench::out_dir() + "/table3_resnet_all.csv", forms);

  if (full) {
    run_section("Replace ReLU only (ResNet-18-mini / imagenet-like)", resnet_base,
                sp::bench::ft_train_imagenet(), sp::bench::ft_val_imagenet(),
                /*replace_maxpool=*/false, true,
                sp::bench::out_dir() + "/table3_resnet_relu.csv", forms);

    auto vgg_base = [] { return sp::bench::trained_vgg(); };
    run_section("Replace ALL non-polynomial (VGG-19-mini / cifar-like)", vgg_base,
                sp::bench::ft_train_cifar(), sp::bench::ft_val_cifar(),
                /*replace_maxpool=*/true, false,
                sp::bench::out_dir() + "/table3_vgg_all.csv", forms);
  }
  return 0;
}
