// Quickstart: the SmartPAF public API in five minutes.
//
//  1. Build a composite PAF (Table 2 form) and inspect its cost metrics.
//  2. Fit a minimax sign approximation with the Remez engine.
//  3. Evaluate a PAF-ReLU homomorphically under CKKS and compare against
//     the plaintext computation; exits nonzero when they differ by more
//     than 2^-10.
//
// Build & run:  ./build/quickstart
#include <cmath>
#include <cstdio>

#include "approx/presets.h"
#include "approx/remez.h"
#include "common/timer.h"
#include "smartpaf/fhe_deploy.h"

int main() {
  using namespace sp;
  using approx::PafForm;

  // --- 1. PAF forms ---------------------------------------------------------
  std::printf("--- PAF forms (Table 2) ---\n");
  for (PafForm form : approx::all_forms()) {
    const approx::CompositePaf paf = approx::make_paf(form);
    std::printf("%-14s degree-sum %2d  mult-depth %2d  max sign err@0.15 %.4f\n",
                approx::form_name(form).c_str(), paf.degree_sum(), paf.mult_depth(),
                paf.sign_error_max(0.15));
  }

  // --- 2. Remez minimax fit ---------------------------------------------------
  std::printf("\n--- Remez minimax fit of sign(x) on [0.1, 1] ---\n");
  for (int degree : {5, 9, 13}) {
    const approx::RemezResult r = approx::remez_sign(degree, 0.1);
    std::printf("degree %2d: minimax error %.3e (%d exchange iterations)\n", degree,
                r.minimax_error, r.iterations);
  }

  // --- 3. Encrypted PAF-ReLU --------------------------------------------------
  std::printf("\n--- Encrypted PAF-ReLU under CKKS (N=4096) ---\n");
  const approx::CompositePaf paf = approx::make_paf(PafForm::F1SQ_G1SQ);
  fhe::CkksParams params = fhe::CkksParams::for_depth(4096, 11, 30);
  params.q_bits[0] = 50;
  params.special_bits = 50;
  smartpaf::FheRuntime rt(params);

  const std::vector<double> inputs = {-2.0, -1.0, -0.25, 0.0, 0.25, 1.0, 2.0};
  std::vector<double> slots(rt.ctx().slot_count(), 0.0);
  std::copy(inputs.begin(), inputs.end(), slots.begin());

  fhe::Ciphertext ct = rt.encrypt(slots);
  const double input_scale = 2.0;
  const fhe::OpCounters before = rt.evaluator().counters;
  const sp::Timer timer;
  const fhe::Ciphertext out = rt.paf_evaluator().relu(rt.evaluator(), ct, paf, input_scale);
  const double relu_ms = timer.ms();
  const auto ct_mults =
      static_cast<int>(rt.evaluator().counters.delta_since(before).ct_mults.load());
  const std::vector<double> got = rt.decrypt(out);

  std::printf("%8s %12s %12s\n", "x", "relu(x)", "enc-PAF-relu");
  for (std::size_t i = 0; i < inputs.size(); ++i)
    std::printf("%8.2f %12.4f %12.4f\n", inputs[i], std::max(inputs[i], 0.0), got[i]);
  std::printf("\none encrypted ReLU over %zu slots: %.1f ms, %d ct-mults, %d levels\n",
              rt.ctx().slot_count(), relu_ms, ct_mults, ct.level() - out.level());
  // The executed schedule is BSGS; the ladder's count is its exact
  // prediction plus the envelope's one ct-mult.
  const int ladder =
      fhe::PafEvaluator::predict_composite(paf, fhe::PafEvaluator::Strategy::Ladder).ct_mults + 1;
  std::printf("BSGS schedule vs pure ladder: %d vs %d ct-mults (%d saved at equal depth)\n",
              ct_mults, ladder, ladder - ct_mults);

  // Gate: every slot against the plaintext PAF-ReLU (zero-padded slots too).
  double worst = 0.0;
  for (std::size_t i = 0; i < slots.size(); ++i)
    worst = std::max(worst, std::abs(got[i] - approx::paf_relu(paf, slots[i] / input_scale) *
                                                  input_scale));
  const double tol = std::ldexp(1.0, -10);
  std::printf("max |enc - plaintext PAF-ReLU| = %.3e (gate 2^-10): %s\n", worst,
              worst <= tol ? "ok" : "FAIL");
  return worst <= tol ? 0 : 1;
}
