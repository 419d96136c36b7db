// lenet_roundtrip: the full private-inference round trip of
// models::lenet_small lowered with the paper's f1 o g2 PAF (depth 5; the
// plan uses all 18 levels of an N = 2048 chain). Per request the client
// packs, encrypts and serializes; a keygen-less server built only from
// sp::io blobs deserializes, runs run_blocks and serializes; the client
// deserializes, decrypts and unpacks. Its conv and matmul stages are
// rotation fans, so this is the workload a key-switch or rotation change
// moves — with client and io on the clock — while paf_relu stays flat.

#include <cmath>

#include "approx/presets.h"
#include "common/check.h"
#include "common/rng.h"
#include "io/serialize.h"
#include "models/zoo.h"
#include "nn/tensor.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "smartpaf/replace.h"
#include "workloads.h"

namespace perfbench {

using namespace sp;

namespace {

constexpr std::size_t kRingN = 2048;
constexpr int kChainLevels = 18;  // conv 1 + relu 7 + pool 1 + conv 1 + relu 7 + fc 1
constexpr std::size_t kDistinctInputs = 4;
/// Set-ups per run (~5 s each, mostly rotation keygen); setup_s is their median.
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kCalibrationSeed = 11;
/// Static scale = this margin x the largest PAF input seen on the
/// calibration images, so workload inputs stay inside the PAF's interval.
constexpr float kScaleMargin = 1.5f;
/// Budget per logit; measured errors stay under 2^-25.
const double kBudget = std::ldexp(1.0, -16);
/// The lowering must reproduce the float32 nn forward pass to this.
const double kLoweringTolerance = 1e-4;

/// lenet_small with every ReLU replaced by f1 o g2 at a frozen static scale.
nn::Model build_model(const models::LenetConfig& cfg) {
  nn::Model model = models::lenet_small(cfg);
  smartpaf::ReplaceOptions ro;
  ro.form = approx::PafForm::F1_G2;
  smartpaf::replace_all(model, ro);
  constexpr int kImages = 16;
  sp::Rng rng(kCalibrationSeed);
  nn::Tensor batch({kImages, cfg.in_channels, cfg.image, cfg.image});
  for (std::size_t i = 0; i < batch.numel(); ++i)
    batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  model.forward(batch, /*train=*/true);  // records each PAF's running max
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(kScaleMargin * p->running_max());
  return model;
}

/// Plaintext mirror on the logical vector: the pipeline's reference() on a
/// slot extent large enough for a single-block layout, gathered back.
std::vector<double> mirror_logical(const smartpaf::FhePipeline& pipe,
                                   const std::vector<double>& logical) {
  constexpr std::size_t kExtent = 8192;
  const auto layouts = pipe.stage_layouts(kExtent);
  const auto packed = smartpaf::pack_layout(logical, layouts.front().first, kExtent);
  const std::vector<double> ref = pipe.reference(packed.at(0));
  const smartpaf::StageLayout& out = layouts.back().second;
  std::vector<double> gathered(out.width);
  for (std::size_t i = 0; i < out.width; ++i)
    gathered[i] = ref[smartpaf::layout_slot(out, i).second];
  return gathered;
}

}  // namespace

void run_lenet_roundtrip(const Options& opt, Report& rep) {
  const models::LenetConfig cfg;
  const fhe::CkksParams params = fhe::CkksParams::for_depth(kRingN, kChainLevels, 40);
  nn::Model model = build_model(cfg);  // the trained model: not part of set-up
  const smartpaf::GridShape grid{cfg.in_channels, cfg.image, cfg.image};

  // Set-up: client keygen, handshake through sp::io, server lowering and
  // planning, the plan's rotation keys, and the keygen-less server runtime.
  std::unique_ptr<smartpaf::FheRuntime> client, server;
  smartpaf::FhePipeline pipe;
  smartpaf::Plan plan;
  std::vector<Timed> setups;
  Samples plan_ms;
  std::size_t key_bytes = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    client.reset();
    const Lap setup;
    client = std::make_unique<smartpaf::FheRuntime>(params, kKeySeed);
    const auto pk_blob = io::serialize(client->public_key());
    const auto relin_blob = io::serialize(client->relin_key());
    auto ctx = std::make_unique<fhe::CkksContext>(io::deserialize_params(io::serialize(params)));
    pipe = smartpaf::FhePipeline::lower(model, grid);
    const Lap planning;
    plan = smartpaf::Planner::plan(pipe, *ctx, smartpaf::CostModel::heuristic());
    plan_ms.add(planning.stop().ms);
    const auto gk_blob = io::serialize(*client->rotation_keys(plan.rotation_steps()));
    key_bytes = pk_blob.size() + relin_blob.size() + gk_blob.size();
    fhe::PublicKey pk = io::deserialize_public_key(pk_blob, *ctx);
    fhe::KSwitchKey relin = io::deserialize_kswitch_key(relin_blob, *ctx);
    fhe::GaloisKeys gk = io::deserialize_galois_keys(gk_blob, *ctx);
    server = std::make_unique<smartpaf::FheRuntime>(std::move(ctx), std::move(pk),
                                                    std::move(relin), std::move(gk));
    setups.push_back(setup.stop());
  }
  sp::check(plan.levels_used == kChainLevels, "lenet_roundtrip: plan does not use the chain");

  // Seeded images, their plaintext mirror, and a check that the lowered
  // pipeline is the model (off the clock).
  const std::size_t slots = client->ctx().slot_count();
  const auto layouts = pipe.stage_layouts(slots);
  const smartpaf::StageLayout& layout_in = layouts.front().first;
  const smartpaf::StageLayout& layout_out = layouts.back().second;
  sp::Rng rng(opt.seed);
  std::vector<std::vector<double>> inputs, mirror;
  for (std::size_t k = 0; k < kDistinctInputs; ++k) {
    nn::Tensor img({1, cfg.in_channels, cfg.image, cfg.image});
    std::vector<double> x(img.numel());
    for (std::size_t i = 0; i < x.size(); ++i) {
      img[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      x[i] = img[i];  // channel-major, as nn::Flatten and the grid layout order it
    }
    mirror.push_back(mirror_logical(pipe, x));
    const nn::Tensor logits = model.forward(img);
    for (int j = 0; j < cfg.num_classes; ++j)
      if (!(std::abs(logits.at(0, j) - mirror.back()[static_cast<std::size_t>(j)]) <=
            kLoweringTolerance))
        rep.fail("lowered pipeline disagrees with the nn forward pass on logit " +
                 std::to_string(j));
    inputs.push_back(std::move(x));
  }

  fhe::Evaluator& sev = server->evaluator();
  Samples encrypt_ms, decrypt_ms, ser_ms, deser_ms, run_ms;
  std::vector<fhe::OpCounters> per_request;
  fhe::EvalStats paf_stats;
  std::size_t request_bytes = 0, response_bytes = 0;
  auto round_trip = [&](std::size_t i, Trace& trace) {
    const std::size_t k = i % inputs.size();
    const auto id = static_cast<std::int64_t>(i);
    double enc = 0, dec = 0, ser = 0, deser = 0;
    auto timed = [](double& acc, auto&& fn) {
      const Lap lap;
      fn();
      acc += lap.stop().ms;
    };
    const Lap request;

    std::vector<fhe::Ciphertext> cts;
    {
      Scope span(trace, "client", "pack+encrypt", id);
      timed(enc, [&] {
        for (const auto& block : smartpaf::pack_layout(inputs[k], layout_in, slots))
          cts.push_back(client->encrypt(block));
      });
    }
    std::vector<std::vector<std::uint8_t>> blobs;
    {
      Scope span(trace, "io", "serialize", id);
      timed(ser, [&] {
        for (const auto& ct : cts) blobs.push_back(io::serialize(ct));
      });
    }
    request_bytes = 0;
    for (const auto& b : blobs) request_bytes += b.size();

    std::vector<fhe::Ciphertext> in;
    {
      Scope span(trace, "io", "deserialize", id);
      timed(deser, [&] {
        for (const auto& b : blobs) in.push_back(io::deserialize_ciphertext(b, server->ctx()));
      });
    }
    const fhe::OpCounters before = sev.counters;
    fhe::EvalStats st;
    std::vector<fhe::Ciphertext> out;
    double run = 0;
    {
      Scope span(trace, "pipeline", "run_blocks", id, &sev);
      timed(run, [&] { out = pipe.run_blocks(*server, plan, in, &st); });
    }
    per_request.push_back(sev.counters.delta_since(before));
    paf_stats = st;
    blobs.clear();
    {
      Scope span(trace, "io", "serialize", id);
      timed(ser, [&] {
        for (const auto& ct : out) blobs.push_back(io::serialize(ct));
      });
    }
    response_bytes = 0;
    for (const auto& b : blobs) response_bytes += b.size();

    std::vector<fhe::Ciphertext> back;
    {
      Scope span(trace, "io", "deserialize", id);
      timed(deser, [&] {
        for (const auto& b : blobs) back.push_back(io::deserialize_ciphertext(b, client->ctx()));
      });
    }
    if (opt.corrupt && rep.attempted() == 1) corrupt_ciphertext(back.at(0));
    std::vector<double> got;
    {
      Scope span(trace, "client", "decrypt+unpack", id);
      timed(dec, [&] {
        std::vector<std::vector<double>> decoded;
        for (const auto& ct : back) decoded.push_back(client->decrypt(ct));
        got = smartpaf::unpack_layout(decoded, layout_out);
      });
    }
    const Timed clocked = request.stop();

    encrypt_ms.add(enc);
    decrypt_ms.add(dec);
    ser_ms.add(ser);
    deser_ms.add(deser);
    run_ms.add(run);
    rep.check(worst_abs_diff(got, mirror[k], mirror[k].size()), kBudget,
              "request " + std::to_string(i));
    return clocked;
  };

  // Warm-up (the first call fills the encode cache and runs ~2x slower).
  {
    Trace off(false);
    for (int w = 0; w < 2; ++w) round_trip(w, off);
    encrypt_ms = decrypt_ms = ser_ms = deser_ms = run_ms = Samples{};
    per_request.clear();
  }

  Trace untraced(false), traced(true);
  const ClosedLoop loop = closed_loop(opt.seconds, opt.trace, [&](std::size_t i, bool t) {
    rep.sent();
    return round_trip(i, t ? traced : untraced);
  });
  check_counts_repeat(opt, per_request, rep);

  rep.note("ring_n", static_cast<double>(kRingN));
  rep.note("chain_levels", static_cast<double>(kChainLevels));
  rep.note("paf", approx::form_name(approx::PafForm::F1_G2));
  rep.note("rotation_keys", static_cast<double>(server->rotation_key_count()));
  rep.note("distinct_inputs", static_cast<double>(kDistinctInputs));
  rep.note("error_budget", kBudget);
  if (!opt.trace) {
    report_closed_loop(rep, loop.off, setups);
    return;
  }

  traced.write_json(opt.out_dir + "/spans-lenet_roundtrip-seed" + std::to_string(opt.seed) +
                    ".json");
  report_trace(rep, traced, loop.off, loop.on);
  rep.metric("pipeline.run_ms_p50", run_ms.p(50), "ms", run_ms.n());
  rep.metric("pipeline.levels_used", plan.levels_used, "count", 1);
  rep.metric("planner.plan_ms", plan_ms.p(50), "ms", plan_ms.n());
  report_paf_stats(rep, pipe, paf_stats);
  rep.metric("client.encrypt_ms", encrypt_ms.p(50), "ms", encrypt_ms.n());
  rep.metric("client.decrypt_ms", decrypt_ms.p(50), "ms", decrypt_ms.n());
  rep.metric("encoder.cache_entries", static_cast<double>(server->encoder().encode_cache_size()),
             "count", 1);
  rep.metric("io.request_bytes", static_cast<double>(request_bytes), "B", 1);
  rep.metric("io.response_bytes", static_cast<double>(response_bytes), "B", 1);
  rep.metric("io.serialize_ms", ser_ms.p(50), "ms", ser_ms.n());
  rep.metric("io.deserialize_ms", deser_ms.p(50), "ms", deser_ms.n());
  rep.metric("io.key_bytes", static_cast<double>(key_bytes), "B", 1);

  const UnitCosts u = time_unit_costs(*server, plan.rotation_steps());
  report_op_layers(rep, fhe::per_input(per_request.back(), 1), per_request.size(), u, kRingN);
}

}  // namespace perfbench
