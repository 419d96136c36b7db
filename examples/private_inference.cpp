// Private inference end-to-end: a 2-layer MLP evaluated *entirely under
// CKKS* — both linear layers (diagonal-free rotate-and-sum matvec) and the
// PAF-ReLU activation — exactly the deployment the paper targets (Fig. 2):
// no operator in the encrypted path is value-dependent.
//
// Pipeline:
//   1. train  Flatten -> Linear(64,16) -> ReLU -> Linear(16,4)  in plaintext
//   2. SMART-PAF: replace the ReLU with a PAF, fine-tune, Static Scaling
//   3. encrypt one input image and run the whole forward pass homomorphically
//   4. compare encrypted logits with the plaintext model's logits
//
// Packing scheme (slots): the 64 input features are replicated once per
// hidden unit (16 blocks of 64 slots). One plaintext multiplication by the
// concatenated W1 rows + a log2(64) rotate-and-sum ladder leaves each hidden
// pre-activation at its block's first slot; a mask zeroes the in-between
// partial sums (they would otherwise blow up inside the PAF polynomial);
// the PAF-ReLU is applied SIMD-style; the second layer repeats the pattern
// with stride-64 rotations.
//
// Build & run:  ./build/examples/private_inference
#include <cstdio>

#include "common/timer.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/layers.h"
#include "nn/trainer.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/scheduler.h"

namespace {

constexpr int kFeat = 64;    // 8x8 grayscale input
constexpr int kHidden = 16;
constexpr int kClasses = 4;

/// Extracts {weight, bias} tensors from a Linear layer.
std::pair<const sp::nn::Tensor*, const sp::nn::Tensor*> linear_params(sp::nn::Layer* l) {
  std::vector<sp::nn::Param*> ps;
  l->collect_params(ps);
  return {&ps[0]->value, &ps[1]->value};
}

}  // namespace

int main() {
  using namespace sp;

  // --- 1. data + plaintext training -----------------------------------------
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(8);
  spec.channels = 1;
  spec.num_classes = kClasses;
  spec.train_count = 600;
  spec.val_count = 200;
  const data::SyntheticData ds = data::make_synthetic(spec);

  sp::Rng rng(11);
  auto seq = std::make_unique<nn::Sequential>("mlp");
  seq->add(std::make_unique<nn::Flatten>());
  nn::Layer* fc1 = seq->add(std::make_unique<nn::Linear>(kFeat, kHidden, rng, true, "fc1"));
  seq->add(std::make_unique<nn::ReLU>("act"));
  nn::Layer* fc2 = seq->add(std::make_unique<nn::Linear>(kHidden, kClasses, rng, true, "fc2"));
  nn::Model model(std::move(seq), "mlp");

  nn::TrainConfig tc;
  tc.batch_size = 32;
  tc.paf_hp = {5e-3, 0.0, 0.9, 0.999, 1e-8};
  tc.other_hp = {5e-3, 1e-4, 0.9, 0.999, 1e-8};
  {
    nn::Trainer trainer(model, ds.train, ds.val, tc);
    for (int e = 0; e < 10; ++e) trainer.run_epoch();
  }
  std::printf("plaintext model:  val acc %.1f%%\n",
              100.0 * nn::evaluate_accuracy(model, ds.val));

  // --- 2. SMART-PAF conversion ------------------------------------------------
  smartpaf::SchedulerConfig cfg;
  cfg.form = approx::PafForm::ALPHA7;
  cfg.group_epochs = 2;
  cfg.max_groups_per_step = 2;
  cfg.train = tc;
  cfg.train.paf_hp = {1e-3, 0.01, 0.9, 0.999, 1e-8};
  cfg.train.other_hp = {1e-4, 0.1, 0.9, 0.999, 1e-8};
  smartpaf::Scheduler sched(model, ds.train, ds.val, cfg);
  const auto res = sched.run();
  std::printf("PAF model (SS):   val acc %.1f%%\n", 100.0 * res.acc_ss);

  auto pafs = smartpaf::find_paf_layers(model);
  const smartpaf::PafLayerBase* paf_layer = pafs.at(0);
  const double act_scale = paf_layer->static_scale();

  // --- 3. homomorphic forward pass ---------------------------------------------
  std::printf("\nbuilding CKKS runtime (N=8192, depth 12)...\n");
  fhe::CkksParams params = fhe::CkksParams::for_depth(8192, 12, 30);
  params.q_bits[0] = 50;
  params.special_bits = 50;
  smartpaf::FheRuntime rt(params);  // provides context + encoder
  // One standalone key set for the whole pipeline: encryption, relin, and
  // the rotation ladder (block-local steps 1..32, stride-64 steps for the
  // second layer).
  fhe::KeyGenerator kg(rt.ctx(), 2024);
  const fhe::GaloisKeys gk = kg.galois_keys({1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  fhe::Encryptor enc(rt.ctx(), kg.public_key(), 31);
  fhe::Decryptor dec(rt.ctx(), kg.secret_key());
  const fhe::KSwitchKey relin = kg.relin_key();
  fhe::Evaluator ev(rt.ctx());
  fhe::PafEvaluator pe(rt.ctx(), rt.encoder(), relin);

  const auto [w1, b1] = linear_params(fc1);
  const auto [w2, b2] = linear_params(fc2);

  // Pick one validation sample.
  const nn::Batch sample = ds.val.batch({0});
  const nn::Tensor plain_logits = model.forward(sample.x, false);

  // Pack: input replicated per hidden unit.
  std::vector<double> slots(rt.ctx().slot_count(), 0.0);
  for (int h = 0; h < kHidden; ++h)
    for (int j = 0; j < kFeat; ++j)
      slots[static_cast<std::size_t>(h * kFeat + j)] = sample.x[static_cast<std::size_t>(j)];
  fhe::Ciphertext ct = enc.encrypt(
      rt.encoder().encode(slots, rt.ctx().scale(), rt.ctx().q_count()));

  sp::Timer timer;
  // Layer 1: elementwise W1, rotate-and-sum over each 64-block.
  std::vector<double> w1cat(rt.ctx().slot_count(), 0.0);
  for (int h = 0; h < kHidden; ++h)
    for (int j = 0; j < kFeat; ++j)
      w1cat[static_cast<std::size_t>(h * kFeat + j)] =
          w1->at(h, j);
  ev.multiply_plain_inplace(ct, rt.encoder().encode(w1cat, rt.ctx().scale(), ct.q_count()));
  ev.rescale_inplace(ct);
  for (int k = 1; k < kFeat; k <<= 1) ct = ev.add(ct, ev.rotate(ct, k, gk));
  // Bias + mask: keep only each block's first slot (partial sums elsewhere
  // would explode inside the PAF power ladder).
  std::vector<double> mask(rt.ctx().slot_count(), 0.0);
  for (int h = 0; h < kHidden; ++h) mask[static_cast<std::size_t>(h * kFeat)] = 1.0;
  ev.multiply_plain_inplace(ct, rt.encoder().encode(mask, rt.ctx().scale(), ct.q_count()));
  ev.rescale_inplace(ct);
  std::vector<double> bias1(rt.ctx().slot_count(), 0.0);
  for (int h = 0; h < kHidden; ++h)
    bias1[static_cast<std::size_t>(h * kFeat)] = b1->vec()[static_cast<std::size_t>(h)];
  ev.add_plain_inplace(ct, rt.encoder().encode(bias1, ct.scale, ct.q_count()));

  // PAF-ReLU (SIMD over all slots; zero slots stay zero).
  const fhe::OpCounters before = ev.counters;
  const sp::Timer relu_timer;
  ct = pe.relu(ev, ct, paf_layer->paf(), act_scale);
  const double relu_ms = relu_timer.ms();
  const auto relu_mults = ev.counters.delta_since(before).ct_mults.load();

  // Layer 2: one masked rotate-and-sum per class over the stride-64 slots.
  std::vector<double> enc_logits(kClasses, 0.0);
  for (int o = 0; o < kClasses; ++o) {
    std::vector<double> w2row(rt.ctx().slot_count(), 0.0);
    for (int h = 0; h < kHidden; ++h)
      w2row[static_cast<std::size_t>(h * kFeat)] = w2->at(o, h);
    fhe::Ciphertext c = ct;
    ev.multiply_plain_inplace(c, rt.encoder().encode(w2row, rt.ctx().scale(), c.q_count()));
    ev.rescale_inplace(c);
    for (int k = kFeat; k < kFeat * kHidden; k <<= 1) c = ev.add(c, ev.rotate(c, k, gk));
    const auto out = rt.encoder().decode(dec.decrypt(c));
    enc_logits[static_cast<std::size_t>(o)] =
        out[0] + b2->vec()[static_cast<std::size_t>(o)];
  }
  const double total_ms = timer.ms();

  // --- 4. comparison -----------------------------------------------------------
  std::printf("\n%8s %14s %14s\n", "class", "plaintext", "encrypted");
  int plain_arg = 0, enc_arg = 0;
  for (int o = 0; o < kClasses; ++o) {
    std::printf("%8d %14.4f %14.4f\n", o, plain_logits.at(0, o),
                enc_logits[static_cast<std::size_t>(o)]);
    if (plain_logits.at(0, o) > plain_logits.at(0, plain_arg)) plain_arg = o;
    if (enc_logits[static_cast<std::size_t>(o)] > enc_logits[static_cast<std::size_t>(enc_arg)])
      enc_arg = o;
  }
  std::printf("\nargmax: plaintext %d, encrypted %d -> %s\n", plain_arg, enc_arg,
              plain_arg == enc_arg ? "MATCH" : "MISMATCH");
  std::printf("end-to-end encrypted forward: %.0f ms (PAF-ReLU alone: %.0f ms, %zu ct-mults)\n",
              total_ms, relu_ms, relu_mults);
  return plain_arg == enc_arg ? 0 : 1;
}
