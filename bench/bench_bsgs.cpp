// Ladder vs BSGS ciphertext polynomial evaluation: per-degree ct-ct mult
// counts, wall clock, and numerical agreement with the plaintext Horner
// reference. This is the measurement behind the poly_eval strategy switch:
// BSGS must never consume more levels than the ladder and must strictly cut
// ct-ct mults wherever the level budget leaves slack (every dense degree
// >= 8; degree 7 sits exactly on the 2^3 depth wall, so there the schedules
// coincide). Exits 1 when a sweep's parity or savings line reads NO, or when
// a stage of the 27-degree minimax PAF runs more ct-ct mults under BSGS
// than under the ladder.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

approx::Polynomial random_poly(int degree, bool odd_only, std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> c(static_cast<std::size_t>(degree) + 1, 0.0);
  const int step = odd_only ? 2 : 1;
  for (int k = odd_only ? 1 : 0; k <= degree; k += step)
    c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / (degree + 1);
  if (std::abs(c.back()) < 1e-3) c.back() = 0.25 / (degree + 1);
  return approx::Polynomial(c);
}

struct Run {
  int ct_mults = 0;
  double ms = 0.0;
  std::vector<double> values;
  int levels = 0;
};

Run eval_with(smartpaf::FheRuntime& rt, PafEvaluator::Strategy strategy,
              const approx::Polynomial& p, const Ciphertext& ct) {
  PafEvaluator pe(rt.ctx(), rt.encoder(), rt.relin_key(), strategy);
  Evaluator& ev = rt.evaluator();
  Run r;
  const OpCounters before = ev.counters;
  sp::Timer timer;
  const Ciphertext out = pe.eval_poly(ev, ct, p);
  r.ms = timer.ms();
  r.ct_mults = static_cast<int>(ev.counters.delta_since(before).ct_mults.load());
  r.levels = ct.level() - out.level();
  r.values = rt.decrypt(out);
  return r;
}

double rel_error(const std::vector<double>& got, const std::vector<double>& inputs,
                 const approx::Polynomial& p) {
  double worst = 0.0, norm = 1.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double ref = p(inputs[i]);
    norm = std::max(norm, std::abs(ref));
    worst = std::max(worst, std::abs(got[i] - ref));
  }
  return worst / norm;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Prints the sweep's table and its two summary lines; true when both read
/// yes.
bool sweep(smartpaf::FheRuntime& rt, bool odd_only) {
  std::printf("\n== %s random polynomials, degrees 3..31 ==\n",
              odd_only ? "Odd" : "Dense");
  Table table({"deg", "levels", "ladder mults", "bsgs mults", "saved", "ladder ms",
               "bsgs ms", "ladder relerr", "bsgs relerr", "bsgs-vs-ladder"});

  sp::Rng rng(7);
  std::vector<double> inputs(rt.ctx().slot_count());
  for (auto& x : inputs) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt.encrypt(inputs);

  const double tol = std::ldexp(1.0, -20);
  bool all_match = true, savings_hold = true;
  for (int degree = 3; degree <= 31; ++degree) {
    if (odd_only && degree % 2 == 0) continue;
    const approx::Polynomial p =
        random_poly(degree, odd_only, 4000 + static_cast<std::uint64_t>(degree));
    const Run ladder = eval_with(rt, PafEvaluator::Strategy::Ladder, p, ct);
    const Run bsgs = eval_with(rt, PafEvaluator::Strategy::BSGS, p, ct);

    const double diff = max_diff(ladder.values, bsgs.values);
    all_match = all_match && rel_error(ladder.values, inputs, p) < tol &&
                rel_error(bsgs.values, inputs, p) < tol && ladder.levels == bsgs.levels;
    // Strict savings wherever the level budget has slack.
    const bool depth_wall = odd_only ? degree < 9 : degree < 8;
    if (!depth_wall && bsgs.ct_mults >= ladder.ct_mults) savings_hold = false;
    if (bsgs.ct_mults > ladder.ct_mults) savings_hold = false;

    table.add_row({std::to_string(degree), std::to_string(ladder.levels),
                   std::to_string(ladder.ct_mults), std::to_string(bsgs.ct_mults),
                   std::to_string(ladder.ct_mults - bsgs.ct_mults),
                   Table::num(ladder.ms),
                   Table::num(bsgs.ms), Table::num(rel_error(ladder.values, inputs, p), 9),
                   Table::num(rel_error(bsgs.values, inputs, p), 9),
                   Table::num(diff, 9)});
  }
  table.print(std::cout);
  std::printf("parity < 2^-20 and equal levels on every degree: %s\n",
              all_match ? "yes" : "NO");
  std::printf("bsgs strictly fewer ct-ct mults wherever slack exists: %s\n",
              savings_hold ? "yes" : "NO");
  return all_match && savings_hold;
}

/// Prints the 27-degree minimax PAF's stages; true when BSGS runs at most
/// the ladder's ct-ct mults on every one.
bool paf_stages(smartpaf::FheRuntime& rt) {
  std::printf("\n== Paper PAF stages (odd minimax polynomials) ==\n");
  Table table({"stage", "deg", "ladder mults", "bsgs mults", "saved", "agreement"});
  sp::Rng rng(11);
  std::vector<double> inputs(rt.ctx().slot_count());
  for (auto& x : inputs) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt.encrypt(inputs);

  const auto alpha10 = approx::make_paf(approx::PafForm::ALPHA10_D27);
  int idx = 0;
  bool at_most_ladder = true;
  for (const auto& stage : alpha10.stages()) {
    const Run ladder = eval_with(rt, PafEvaluator::Strategy::Ladder, stage, ct);
    const Run bsgs = eval_with(rt, PafEvaluator::Strategy::BSGS, stage, ct);
    at_most_ladder = at_most_ladder && bsgs.ct_mults <= ladder.ct_mults;
    table.add_row({"alpha10[" + std::to_string(idx++) + "]",
                   std::to_string(stage.degree()), std::to_string(ladder.ct_mults),
                   std::to_string(bsgs.ct_mults),
                   std::to_string(ladder.ct_mults - bsgs.ct_mults),
                   Table::num(max_diff(ladder.values, bsgs.values), 9)});
  }
  table.print(std::cout);
  std::printf("bsgs at most ladder ct-ct mults on every stage: %s\n",
              at_most_ladder ? "yes" : "NO");
  return at_most_ladder;
}

}  // namespace

int main() {
  std::printf("BSGS vs ladder ciphertext polynomial evaluation (N=4096, depth 6, "
              "Delta=2^40)\n");
  smartpaf::FheRuntime rt(CkksParams::for_depth(4096, 6, 40), /*seed=*/2025);
  const bool dense = sweep(rt, /*odd_only=*/false);
  const bool odd = sweep(rt, /*odd_only=*/true);
  const bool stages = paf_stages(rt);
  return dense && odd && stages ? 0 : 1;
}
