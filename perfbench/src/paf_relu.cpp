// paf_relu: the paper's headline operator (SmartPAF Table 4 / Fig. 1) as the
// server runs it — a single-stage FhePipeline PAF-ReLU with the f1^2 o g1^2
// preset over all 4096 slots of an N = 8192 ciphertext, on a chain sized to
// its depth. The work is ct-mult, relin, rescale and NTT only (no rotation,
// no packing, no wire), so this is the workload a poly_eval or evaluator
// multiply-path change moves and a key-switch or executor change leaves flat.

#include <cmath>
#include <cstdio>

#include "approx/presets.h"
#include "common/check.h"
#include "common/rng.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "workloads.h"

namespace perfbench {

using namespace sp;

namespace {

constexpr std::size_t kRingN = 8192;
constexpr int kChainLevels = 10;  // PAF depth 8 + the ReLU envelope's 2
constexpr double kInputScale = 1.0;
constexpr std::size_t kDistinctInputs = 4;
/// Set-up is ~75 ms here, so take the median of many.
constexpr int kSetupRepeats = 15;
/// Error budget per decrypted slot; measured errors stay under 2^-22.
const double kBudget = std::ldexp(1.0, -16);

}  // namespace

void run_paf_relu(const Options& opt, Report& rep) {
  const fhe::CkksParams params = fhe::CkksParams::for_depth(kRingN, kChainLevels, 40);
  const approx::CompositePaf paf = approx::make_paf(approx::PafForm::F1SQ_G1SQ);

  // Set-up: keygen, the pipeline and its plan. Repeated; the last one serves.
  std::unique_ptr<smartpaf::FheRuntime> rt;
  smartpaf::FhePipeline pipe;
  smartpaf::Plan plan;
  std::vector<Timed> setups;
  Samples plan_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rt.reset();
    const Lap setup;
    rt = std::make_unique<smartpaf::FheRuntime>(params, kKeySeed);
    pipe = smartpaf::FhePipeline::builder().paf_relu(paf, kInputScale).build();
    const Lap planning;
    plan = smartpaf::Planner::plan(pipe, rt->ctx(), smartpaf::CostModel::heuristic());
    plan_ms.add(planning.stop().ms);
    setups.push_back(setup.stop());
  }
  sp::check(plan.levels_used == kChainLevels, "paf_relu: plan does not use the whole chain");

  // Client side, off the clock: seeded inputs, encrypted once and cycled.
  sp::Rng rng(opt.seed);
  const std::size_t slots = rt->ctx().slot_count();
  std::vector<fhe::Ciphertext> inputs;
  std::vector<std::vector<double>> mirror;
  Samples encrypt_ms;
  for (std::size_t k = 0; k < kDistinctInputs; ++k) {
    std::vector<double> x(slots);
    for (double& v : x) v = rng.uniform(-kInputScale, kInputScale);
    const Lap encrypt;
    inputs.push_back(rt->encrypt(x));
    encrypt_ms.add(encrypt.stop().ms);
    mirror.push_back(pipe.reference(x));
  }

  fhe::Evaluator& ev = rt->evaluator();
  for (int w = 0; w < 2; ++w) pipe.run(*rt, plan, inputs[0]);  // warm-up, not timed

  Samples decrypt_ms;
  std::vector<fhe::OpCounters> per_request;
  fhe::EvalStats paf_stats;
  auto request = [&](std::size_t i, Trace& trace) {
    const std::size_t k = i % inputs.size();
    const fhe::OpCounters before = ev.counters;
    fhe::EvalStats st;
    const Lap lap;
    fhe::Ciphertext out;
    {
      Scope span(trace, "pipeline", "run", static_cast<std::int64_t>(i), &ev);
      out = pipe.run(*rt, plan, inputs[k], &st);
    }
    const Timed timed = lap.stop();
    rep.sent();
    per_request.push_back(ev.counters.delta_since(before));
    paf_stats = st;

    if (opt.corrupt && rep.attempted() == 1) corrupt_ciphertext(out);
    const Lap decrypt;
    const std::vector<double> got = rt->decrypt(out);
    decrypt_ms.add(decrypt.stop().ms);
    rep.check(worst_abs_diff(got, mirror[k], slots), kBudget, "request " + std::to_string(i));
    return timed;
  };

  Trace untraced(false), traced(true);
  const ClosedLoop loop = closed_loop(opt.seconds, opt.trace, [&](std::size_t i, bool t) {
    return request(i, t ? traced : untraced);
  });
  check_counts_repeat(opt, per_request, rep);

  rep.note("ring_n", static_cast<double>(kRingN));
  rep.note("chain_levels", static_cast<double>(kChainLevels));
  rep.note("paf", paf.name());
  rep.note("distinct_inputs", static_cast<double>(kDistinctInputs));
  rep.note("error_budget", kBudget);
  if (!opt.trace) {
    report_closed_loop(rep, loop.off, setups);
    return;
  }

  traced.write_json(opt.out_dir + "/spans-paf_relu-seed" + std::to_string(opt.seed) + ".json");
  report_trace(rep, traced, loop.off, loop.on);
  Samples run_ms;  // the request is the run() call
  for (const std::vector<Timed>* half : {&loop.off, &loop.on})
    for (const Timed& t : *half) run_ms.add(t.ms);
  rep.metric("pipeline.run_ms_p50", run_ms.p(50), "ms", run_ms.n());
  rep.metric("pipeline.levels_used", plan.levels_used, "count", 1);
  rep.metric("planner.plan_ms", plan_ms.p(50), "ms", plan_ms.n());
  report_paf_stats(rep, pipe, paf_stats);
  rep.metric("client.encrypt_ms", encrypt_ms.p(50), "ms", encrypt_ms.n());
  rep.metric("client.decrypt_ms", decrypt_ms.p(50), "ms", decrypt_ms.n());
  rep.metric("encoder.cache_entries", static_cast<double>(rt->encoder().encode_cache_size()),
             "count", 1);

  const UnitCosts u = time_unit_costs(*rt, {1, 2, 3, 4});
  report_op_layers(rep, fhe::per_input(per_request.back(), 1), per_request.size(), u, kRingN);
}

}  // namespace perfbench
