// End-to-end FhePipeline walkthrough: train-style network construction,
// PAF replacement, Static-Scaling conversion, automatic lowering to a stage
// graph, planning (inspectable BEFORE any ciphertext exists), and a planned
// encrypted forward pass checked against the plaintext network.
//
//   nn::Sequential{ Window1d -> ReLU -> Window1d(1 tap) -> MaxPool1d }
//     | smartpaf::replace_all + set_static_scale      (PAF sites)
//     | FhePipeline::lower                            (stage graph)
//     | Planner::plan(CostModel::heuristic())         (schedule choice)
//     | FhePipeline::run                              (one ciphertext)
//
// Build & run:  ./build/pipeline_inference
// Exits nonzero when the encrypted output differs from the plaintext
// network by 2^-20 or more.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "common/timer.h"
#include "nn/container.h"
#include "nn/layers.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "smartpaf/replace.h"

int main() {
  using namespace sp;

  // --- 1. a slot-aligned network with two non-polynomial sites ---------------
  auto seq = std::make_unique<nn::Sequential>("net");
  seq->add(std::make_unique<nn::Window1d>(std::vector<float>{0.5f, 0.3f, 0.2f}, 0.0f,
                                          "conv"));
  seq->add(std::make_unique<nn::ReLU>("act"));
  seq->add(std::make_unique<nn::Window1d>(std::vector<float>{0.7f}, 0.0f, "scale"));
  seq->add(std::make_unique<nn::MaxPool1d>(2, "pool"));
  nn::Model model(std::move(seq), "two-act");

  // --- 2. replace ReLU/MaxPool with trainable PAFs, freeze the scales --------
  smartpaf::ReplaceOptions opts;
  opts.form = approx::PafForm::F1_G2;  // depth-5 composite
  smartpaf::replace_all(model, opts);
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);  // in training this is the observed running max
  std::printf("replaced %zu PAF sites (Static Scaling)\n",
              smartpaf::find_paf_layers(model).size());

  // --- 3. lower to a stage graph --------------------------------------------
  const auto pipe = smartpaf::FhePipeline::lower(model);
  std::printf("lowered to %zu stages, literal depth %d levels\n", pipe.stages().size(),
              pipe.mult_depth());

  // --- 4. plan against the parameter set (no keys needed yet) ----------------
  // window 1 + relu (5+2) + folded linear + pairwise max (5+2) = 15 levels.
  const fhe::CkksParams params = fhe::CkksParams::for_depth(4096, 16, 40);
  smartpaf::FheRuntime rt(params, /*seed=*/7);
  const auto plan = smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  std::printf("\n%s\n", plan.describe().c_str());

  // --- 5. one encrypted forward pass vs the plaintext network ----------------
  const auto w = static_cast<int>(rt.ctx().slot_count());
  sp::Rng rng(19);
  nn::Tensor x({1, w});
  std::vector<double> slots(static_cast<std::size_t>(w));
  for (int j = 0; j < w; ++j) {
    x.at(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    slots[static_cast<std::size_t>(j)] = static_cast<double>(x.at(0, j));
  }
  const nn::Tensor expect = model.forward(x, /*train=*/false);

  const fhe::Ciphertext in = rt.encrypt(slots);
  (void)rt.rotation_keys(plan.rotation_steps());  // keygen stays off the clock
  fhe::OpCounters paf_ops;
  const sp::Timer timer;
  const fhe::Ciphertext out = pipe.run(rt, plan, in, &paf_ops);
  const double run_ms = timer.ms();
  const std::vector<double> got = rt.decrypt(out);

  double worst = 0.0;
  for (int j = 0; j < w; ++j)
    worst = std::max(worst, std::abs(got[static_cast<std::size_t>(j)] -
                                     static_cast<double>(expect.at(0, j))));
  std::printf("encrypted forward: %.1f ms, %zu PAF ct-mults, %zu rotation keys\n", run_ms,
              paf_ops.ct_mults.load(), rt.rotation_key_count());
  std::printf("max |encrypted - plaintext nn| over %d slots: %.2e (budget 2^-20 = %.2e)\n",
              w, worst, std::ldexp(1.0, -20));
  return worst < std::ldexp(1.0, -20) ? 0 : 1;
}
