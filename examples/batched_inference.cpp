// Batched private inference with slot packing: 8 independent requests ride
// one CKKS ciphertext through a windowed PAF-ReLU pipeline, sharing a single
// FheRuntime (keys, NTT tables, Galois keys). The interesting numbers are
// the amortized per-input figures — one packed evaluation costs the same as
// a single-request evaluation, so every homomorphic op divides by the batch.
//
// The client packs its own requests: Encoder::pack_slots -> encrypt ->
// Planner::plan at the request stride -> FhePipeline::run -> decrypt ->
// Encoder::unpack_slots. For a server that queues requests from many
// clients and packs them itself, see examples/serve_inference.cpp.
//
// Build & run:  ./build/batched_inference
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "approx/presets.h"
#include "common/rng.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

int main() {
  using namespace sp;

  // f1∘g2 composite PAF (depth 5) + relu envelope (2) + window (1) = depth 8.
  const smartpaf::FhePipeline pipe =
      smartpaf::FhePipeline::builder()
          .window({0.5, 0.5})  // 2-tap smoothing before the activation
          .paf_relu(approx::make_paf(approx::PafForm::F1_G2), /*input_scale=*/1.0)
          .build();
  const std::size_t input_size = 256;  // 8 requests across the 2048 slots of N=4096

  smartpaf::FheRuntime rt(fhe::CkksParams::for_depth(4096, 8, 40), /*seed=*/7);
  const std::size_t slots = rt.ctx().slot_count();
  const std::size_t batch = slots / input_size;
  smartpaf::PlanOptions popts;
  popts.pack_stride = input_size;  // MatMul/Compact stages would tile per request
  const smartpaf::Plan plan =
      smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic(), popts);
  std::printf("N=%zu, input_size=%zu, %zu requests/ciphertext\n%s", rt.ctx().n(),
              input_size, batch, plan.describe().c_str());

  sp::Rng rng(19);
  std::vector<std::vector<double>> requests(batch);
  for (auto& r : requests) {
    r.resize(input_size);
    for (auto& x : r) x = rng.uniform(-1.0, 1.0);
  }

  // One packed evaluation serves every request.
  const std::vector<double> flat = fhe::Encoder::pack_slots(requests, input_size, slots);
  const fhe::Ciphertext packed = rt.encrypt(flat);
  const fhe::OpCounters before = rt.evaluator().counters;
  const fhe::Ciphertext out = pipe.run(rt, plan, packed);
  const fhe::OpCounters ops = rt.evaluator().counters.delta_since(before);
  const auto outputs = fhe::Encoder::unpack_slots(rt.decrypt(out), input_size, batch);

  const std::vector<double> ref = pipe.reference(flat, plan.pack_stride);
  double worst = 0.0;
  for (std::size_t b = 0; b < batch; ++b)
    for (std::size_t j = 0; j < input_size; ++j)
      worst = std::max(worst, std::abs(outputs[b][j] - ref[b * input_size + j]));
  std::printf("\n%zu requests in one ciphertext\n", batch);
  std::printf("  worst per-request error vs plaintext pipeline: %.2e\n", worst);
  std::printf("  whole ciphertext: %zu ct-mults, %zu relins, %zu rotations (%zu hoisted)\n",
              ops.ct_mults.load(), ops.relins.load(), ops.rotations.load(),
              ops.hoisted_rotations.load());
  const fhe::OpCountersPerInput per = fhe::per_input(ops, static_cast<int>(batch));
  std::printf("  amortized per input: %.3f ct-mults, %.3f relins, %.3f rotations\n",
              per.ct_mults, per.relins, per.rotations);

  std::printf("\ndone.\n");
  return worst < std::ldexp(1.0, -20) ? 0 : 1;
}
