// FhePipeline correctness net: planner validation (level budget, shapes),
// plan determinism on a pinned cost table, scalar folding, lowering from a
// replaced nn::Sequential with plaintext-forward parity, end-to-end FHE
// parity of a 2-activation lowered network < 2^-20, rotation-key dedup
// across stages, predict-vs-executed mult counts, a window-3 MaxPool
// tournament and golden digests and op ledgers of PAF-stage runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "approx/presets.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "nn/container.h"
#include "nn/layers.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "smartpaf/replace.h"

namespace {

using namespace sp;
using namespace sp::fhe;

const double kParityTol = std::ldexp(1.0, -20);

/// Odd degree-7 single-stage PAF (depth 3): relu needs 5 levels, a k=2
/// PAF-max tournament another 5.
approx::CompositePaf test_paf(std::uint64_t seed = 41) {
  sp::Rng rng(seed);
  std::vector<double> c(8, 0.0);
  for (int k = 1; k <= 7; k += 2)
    c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 8.0;
  return approx::CompositePaf("deg7", {approx::Polynomial(c)});
}

/// The 2-activation pipeline of the acceptance criteria:
/// window -> PAF-ReLU -> scalar linear -> PAF-MaxPool.
smartpaf::FhePipeline two_activation_pipeline() {
  return smartpaf::FhePipeline::builder()
      .window({0.5, 0.3, 0.2})
      .paf_relu(test_paf(), 2.0)
      .linear(0.7)
      .paf_maxpool(test_paf(43), 2.0, /*pool_window=*/2)
      .build();
}

/// The same network as trainable nn layers, PAF sites already replaced and
/// frozen to Static Scaling.
nn::Model two_activation_network() {
  auto seq = std::make_unique<nn::Sequential>("net");
  seq->add(std::make_unique<nn::Window1d>(std::vector<float>{0.5f, 0.3f, 0.2f}));
  seq->add(std::make_unique<nn::ReLU>("act"));
  seq->add(std::make_unique<nn::Window1d>(std::vector<float>{0.7f}, 0.0f, "scale"));
  seq->add(std::make_unique<nn::MaxPool1d>(2, "pool"));
  nn::Model model(std::move(seq), "two-act");

  const auto sites = smartpaf::find_nonpoly_sites(model);
  EXPECT_EQ(sites.size(), 2u);
  smartpaf::replace_site(model, sites[0], test_paf(), smartpaf::ScaleMode::Dynamic);
  smartpaf::replace_site(model, sites[1], test_paf(43), smartpaf::ScaleMode::Dynamic);
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);
  return model;
}

/// A pinned cost table (values chosen so naive rotation beats hoisting:
/// hoist_ms dominates small fans).
smartpaf::CostModel pinned_cost_table() {
  smartpaf::CostModel cm;
  cm.ct_mult_ms = 4.0;
  cm.relin_ms = 3.0;
  cm.rescale_ms = 0.5;
  cm.plain_mult_ms = 0.25;
  cm.rotate_ms = 0.5;
  cm.hoist_ms = 50.0;
  cm.hoisted_rotate_ms = 0.4;
  return cm;
}

// --------------------------------------------------------- planner (no keys) --

TEST(PipelinePlanner, RejectsOverBudgetWithBreakdown) {
  const CkksContext shallow(CkksParams::for_depth(2048, 6, 40));
  const auto pipe = two_activation_pipeline();
  bool rejected = false;
  try {
    smartpaf::Planner::plan(pipe, shallow, smartpaf::CostModel::heuristic());
  } catch (const sp::Error& e) {
    rejected = true;
    const std::string msg = e.what();
    EXPECT_NE(msg.find("levels but the chain has 6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("paf-relu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("paf-max"), std::string::npos) << msg;
  }
  EXPECT_TRUE(rejected) << "an 11-level pipeline must not plan on a 6-level chain";
}

TEST(PipelinePlanner, FoldScalarsSavesALevel) {
  const CkksContext ctx(CkksParams::for_depth(2048, 12, 40));
  const auto pipe = two_activation_pipeline();

  const auto folded =
      smartpaf::Planner::plan(pipe, ctx, smartpaf::CostModel::heuristic());
  EXPECT_EQ(folded.levels_used, 11);
  ASSERT_EQ(folded.stages.size(), 4u);
  // The scalar linear folds into the pairwise (k=2) MaxPool's envelope.
  EXPECT_TRUE(folded.stages[2].folded);
  EXPECT_DOUBLE_EQ(folded.stages[3].pre_factor, 0.7);
  // Executed literally, stage by stage, the pipeline would take one more.
  EXPECT_EQ(pipe.mult_depth(), 12);
}

TEST(PipelinePlanner, ScalarBeforeReluFoldsIntoPreFactor) {
  const CkksContext ctx(CkksParams::for_depth(2048, 12, 40));
  const auto pipe = smartpaf::FhePipeline::builder()
                        .linear(0.5)
                        .linear(0.5)
                        .paf_relu(test_paf(), 2.0)
                        .build();
  const auto plan = smartpaf::Planner::plan(pipe, ctx, smartpaf::CostModel::heuristic());
  EXPECT_TRUE(plan.stages[0].folded);
  EXPECT_TRUE(plan.stages[1].folded);
  EXPECT_DOUBLE_EQ(plan.stages[2].pre_factor, 0.25);
  EXPECT_EQ(plan.levels_used, 5);
}

TEST(PipelinePlanner, DeterministicOnPinnedCostTable) {
  const CkksContext ctx(CkksParams::for_depth(2048, 12, 40));
  const smartpaf::CostModel cm = pinned_cost_table();

  const auto pipe = two_activation_pipeline();
  const auto a = smartpaf::Planner::plan(pipe, ctx, cm);
  const auto b = smartpaf::Planner::plan(pipe, ctx, cm);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_DOUBLE_EQ(a.predicted_cost, b.predicted_cost);
  EXPECT_EQ(a.levels_used, b.levels_used);

  // The pinned table makes hoisting a loss on small fans (hoist_ms = 50);
  // the heuristic table keeps the historical always-hoist behavior.
  EXPECT_FALSE(a.stages[0].hoist_fan);
  const auto h = smartpaf::Planner::plan(pipe, ctx, smartpaf::CostModel::heuristic());
  EXPECT_TRUE(h.stages[0].hoist_fan);

  // Forcing a strategy can never beat the planner's own pick under the same
  // cost table.
  for (const auto forced : {PafEvaluator::Strategy::Ladder, PafEvaluator::Strategy::BSGS}) {
    smartpaf::PlanOptions opts;
    opts.force_strategy = forced;
    const auto f = smartpaf::Planner::plan(pipe, ctx, cm, opts);
    EXPECT_GE(f.predicted_cost, a.predicted_cost);
  }
}

TEST(PipelinePlanner, PlanRotationStepsDeduplicate) {
  const CkksContext ctx(CkksParams::for_depth(2048, 12, 40));
  const auto plan = smartpaf::Planner::plan(two_activation_pipeline(), ctx,
                                            smartpaf::CostModel::heuristic());
  // window{1,2} and maxpool{1} collapse to {1,2}.
  EXPECT_EQ(plan.rotation_steps(), (std::vector<int>{1, 2}));
}

// ------------------------------------------------------------------ lowering --

TEST(PipelineLowering, LoweredStagesMatchHandBuiltPipeline) {
  nn::Model model = two_activation_network();
  const auto pipe = smartpaf::FhePipeline::lower(model);
  ASSERT_EQ(pipe.stages().size(), 4u);
  EXPECT_TRUE(std::holds_alternative<smartpaf::WindowStage>(pipe.stages()[0].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::PafStage>(pipe.stages()[1].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::LinearStage>(pipe.stages()[2].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::PafStage>(pipe.stages()[3].op));
  EXPECT_EQ(pipe.mult_depth(), 12);  // literal; FoldScalars plans 11

  const auto& relu = std::get<smartpaf::PafStage>(pipe.stages()[1].op);
  EXPECT_EQ(relu.kind, smartpaf::SiteKind::ReLU);
  EXPECT_DOUBLE_EQ(relu.input_scale, 2.0);
  const auto& pool = std::get<smartpaf::PafStage>(pipe.stages()[3].op);
  EXPECT_EQ(pool.kind, smartpaf::SiteKind::MaxPool);
  EXPECT_EQ(pool.pool_window, 2);
}

TEST(PipelineLowering, ReferenceMatchesPlaintextNnForward) {
  nn::Model model = two_activation_network();
  const auto pipe = smartpaf::FhePipeline::lower(model);

  const int w = 64;
  sp::Rng rng(7);
  nn::Tensor x({1, w});
  std::vector<double> slots(static_cast<std::size_t>(w));
  for (int j = 0; j < w; ++j) {
    x.at(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    slots[static_cast<std::size_t>(j)] = static_cast<double>(x.at(0, j));
  }
  const nn::Tensor y = model.forward(x, /*train=*/false);
  const std::vector<double> ref = pipe.reference(slots);
  for (int j = 0; j < w; ++j)
    EXPECT_NEAR(ref[static_cast<std::size_t>(j)], static_cast<double>(y.at(0, j)),
                kParityTol)
        << "slot " << j;
}

TEST(PipelineLowering, RejectsUnreplacedAndDynamicAndUnsupported) {
  {
    auto seq = std::make_unique<nn::Sequential>("s");
    seq->add(std::make_unique<nn::ReLU>());
    nn::Model m(std::move(seq), "m");
    EXPECT_THROW(smartpaf::FhePipeline::lower(m), sp::Error);
  }
  {
    auto seq = std::make_unique<nn::Sequential>("s");
    seq->add(std::make_unique<smartpaf::PafActivation>(test_paf(), "paf",
                                                       smartpaf::ScaleMode::Dynamic));
    nn::Model m(std::move(seq), "m");
    EXPECT_THROW(smartpaf::FhePipeline::lower(m), sp::Error);
  }
  {
    // A layer kind the lowering has never heard of (Conv2d lowers now, so
    // the case needs a test-local stub). The rejection must name the layer
    // so a model author can find the offending module.
    class FancyNorm final : public nn::Layer {
     public:
      nn::Tensor forward(const nn::Tensor& x, bool) override { return x; }
      nn::Tensor backward(const nn::Tensor& gy) override { return gy; }
      std::string name() const override { return "fancy_norm"; }
    };
    auto seq = std::make_unique<nn::Sequential>("s");
    seq->add(std::make_unique<FancyNorm>());
    nn::Model m(std::move(seq), "m");
    bool rejected = false;
    try {
      smartpaf::FhePipeline::lower(m);
    } catch (const sp::Error& e) {
      rejected = true;
      EXPECT_NE(std::string(e.what()).find("unsupported layer 'fancy_norm'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(rejected);
  }
  {
    sp::Rng rng(3);
    auto seq = std::make_unique<nn::Sequential>("s");
    seq->add(std::make_unique<nn::Linear>(4, 4, rng));
    nn::Model m(std::move(seq), "m");
    const auto pipe = smartpaf::FhePipeline::lower(m, /*input_width=*/4);
    ASSERT_EQ(pipe.stages().size(), 1u);
    EXPECT_TRUE(std::holds_alternative<smartpaf::MatMulStage>(pipe.stages()[0].op));
  }
}

// ------------------------------------------------------- encrypted end-to-end --

class PipelineFheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 12, 40),
                                                 /*seed=*/2028);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> PipelineFheTest::rt_;

TEST_F(PipelineFheTest, LoweredNetworkMatchesPlaintextForwardUnderFhe) {
  nn::Model model = two_activation_network();
  const auto pipe = smartpaf::FhePipeline::lower(model);
  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.levels_used, 11);

  const auto w = static_cast<int>(rt_->ctx().slot_count());
  sp::Rng rng(11);
  nn::Tensor x({1, w});
  std::vector<double> slots(static_cast<std::size_t>(w));
  for (int j = 0; j < w; ++j) {
    x.at(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    slots[static_cast<std::size_t>(j)] = static_cast<double>(x.at(0, j));
  }
  const nn::Tensor expect = model.forward(x, /*train=*/false);

  EvalStats stats;
  const Ciphertext out = pipe.run(*rt_, plan, rt_->encrypt(slots), &stats);
  const std::vector<double> got = rt_->decrypt(out);

  double worst = 0.0;
  for (int j = 0; j < w; ++j)
    worst = std::max(worst, std::abs(got[static_cast<std::size_t>(j)] -
                                     static_cast<double>(expect.at(0, j))));
  EXPECT_LT(worst, kParityTol);

  // The executed PAF schedule matches the plan's exact ct-mult prediction.
  int predicted_mults = 0;
  for (const auto& s : plan.stages) predicted_mults += s.ops.ct_mults;
  EXPECT_EQ(stats.ct_mults, predicted_mults);
}

TEST_F(PipelineFheTest, ForcedStrategiesAgreeWithPlannedResult) {
  const auto pipe = two_activation_pipeline();
  sp::Rng rng(13);
  std::vector<double> slots(rt_->ctx().slot_count());
  for (auto& v : slots) v = rng.uniform(-1.0, 1.0);
  const Ciphertext in = rt_->encrypt(slots);
  const std::vector<double> ref = pipe.reference(slots);

  for (const auto forced : {PafEvaluator::Strategy::Ladder, PafEvaluator::Strategy::BSGS}) {
    smartpaf::PlanOptions opts;
    opts.force_strategy = forced;
    const auto plan =
        smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic(), opts);
    EvalStats stats;
    const std::vector<double> got = rt_->decrypt(pipe.run(*rt_, plan, in, &stats));
    double worst = 0.0;
    for (std::size_t j = 0; j < slots.size(); ++j)
      worst = std::max(worst, std::abs(got[j] - ref[j]));
    EXPECT_LT(worst, kParityTol);
    int predicted_mults = 0;
    for (const auto& s : plan.stages) predicted_mults += s.ops.ct_mults;
    EXPECT_EQ(stats.ct_mults, predicted_mults);
  }
}

// run() and run_blocks() read the caller's ciphertexts in place and never
// write them: a served input is reused across requests. Pipelines opening
// with an in-place linear stage, a rotation sum, a PAF-ReLU and a MaxPool
// fan each leave their input byte-identical, and two runs agree.
TEST_F(PipelineFheTest, RunLeavesItsInputUntouched) {
  const auto identical = [](const Ciphertext& a, const Ciphertext& b) {
    if (a.scale != b.scale || a.size() != b.size()) return false;
    for (std::size_t p = 0; p < a.parts.size(); ++p) {
      const RnsPoly& x = a.parts[p];
      const RnsPoly& y = b.parts[p];
      if (x.row_count() != y.row_count() || x.is_ntt() != y.is_ntt()) return false;
      if (!std::equal(x.row(0), x.row(0) + x.row_count() * x.n(), y.row(0))) return false;
    }
    return true;
  };
  sp::Rng rng(17);
  std::vector<double> slots(rt_->ctx().slot_count());
  for (auto& v : slots) v = rng.uniform(-1.0, 1.0);
  const Ciphertext in = rt_->encrypt(slots);
  const Ciphertext before = in;
  const smartpaf::FhePipeline pipes[] = {
      smartpaf::FhePipeline::builder().linear(0.5, 0.25).paf_relu(test_paf(), 2.0).build(),
      two_activation_pipeline(),
      smartpaf::FhePipeline::builder().paf_relu(test_paf(), 2.0).build(),
      smartpaf::FhePipeline::builder().paf_maxpool(test_paf(43), 2.0, 2).build(),
  };
  for (const auto& pipe : pipes) {
    const auto plan =
        smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
    const Ciphertext first = pipe.run(*rt_, plan, in);
    EXPECT_TRUE(identical(in, before)) << plan.describe();
    EXPECT_TRUE(identical(pipe.run(*rt_, plan, in), first)) << plan.describe();
    const std::vector<Ciphertext> blocks = {in};
    const std::vector<Ciphertext> out = pipe.run_blocks(*rt_, plan, blocks);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(identical(out[0], first)) << plan.describe();
    EXPECT_TRUE(identical(blocks[0], before)) << plan.describe();
  }
}

TEST_F(PipelineFheTest, PredictPolyMatchesExecutedCounts) {
  sp::Rng rng(23);
  for (int deg : {7, 15, 27}) {
    std::vector<double> c(static_cast<std::size_t>(deg) + 1, 0.0);
    for (int k = 1; k <= deg; k += 2)
      c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / deg;
    const approx::Polynomial p(c);

    std::vector<double> v(rt_->ctx().slot_count(), 0.25);
    const Ciphertext x = rt_->encrypt(v);
    for (const auto strat : {PafEvaluator::Strategy::Ladder, PafEvaluator::Strategy::BSGS}) {
      const auto pred = PafEvaluator::predict_poly(p, strat);
      const PafEvaluator pe(rt_->ctx(), rt_->encoder(), rt_->relin_key(), strat);
      EvalStats stats;
      const Ciphertext out = pe.eval_poly(rt_->evaluator(), x, p, &stats);
      EXPECT_EQ(stats.ct_mults, pred.ct_mults) << "deg " << deg;
      EXPECT_EQ(x.level() - out.level(), pred.levels) << "deg " << deg;
    }
    // The runtime's shared evaluator runs the default schedule, BSGS.
    EvalStats shared;
    (void)rt_->paf_evaluator().eval_poly(rt_->evaluator(), x, p, &shared);
    EXPECT_EQ(shared.ct_mults,
              PafEvaluator::predict_poly(p, PafEvaluator::Strategy::BSGS).ct_mults)
        << "deg " << deg;
  }
}

// ------------------------------------------------------------ PAF pins ------
// Golden FNV digests (the scale plus every residue of every part, as
// tests/test_linear_transform.cpp computes them), EvalStats counts and the
// evaluator's op ledger (OpCounters delta, NTTs included) of PafEvaluator
// outputs: a one-stage PAF-ReLU pipeline under each forced schedule, the
// 2-activation pipeline (window -> ReLU -> folded scalar -> pairwise
// MaxPool, so a hoisted window fan and the MaxPool fan) and one direct
// max(); and of the linear stages that run rather than fold: a PAF-ReLU
// followed by a scaled, biased linear stage (serve_open's tail) and a
// bias-only one. Each test's runtime has PipelineFheTest's parameters but
// its own seed, and every key is minted up front, so a digest depends only
// on the schedule and the arithmetic, not on test order. A missing pin
// prints the observed row.

/// The OpCounters delta of one pinned call: every evaluator op it issued,
/// NTTs included.
struct PafLedger {
  std::size_t ct_mults, relins, rescales, plain_mults, adds, rotations, hoisted_rotations,
      ntts_forward, ntts_inverse;
};

struct PafPin {
  const char* name;
  std::uint64_t digest;
  int ct_mults, relins, plain_mults, relins_deferred;
  PafLedger ops;
};

// clang-format off
const PafPin kPafPins[] = {
    {"relu_bsgs", 0x0844d3935a871ed0ULL, 15, 12, 14, 8,
     {15, 12, 26, 14, 11, 0, 0, 1312, 178}},
    {"relu_ladder", 0x49ac85b3ef212e64ULL, 16, 12, 14, 10,
     {16, 12, 26, 14, 11, 0, 0, 1299, 177}},
    {"two_activation", 0xdb47efea4b613aacULL, 12, 10, 13, 6,
     {12, 10, 24, 16, 12, 3, 3, 1171, 165}},
    {"max", 0xcd71a8c96f48377dULL, 6, 5, 7, 3,
     {6, 5, 12, 7, 6, 0, 0, 801, 87}},
    {"relu_then_linear", 0xd0edabc3e1177610ULL, 6, 5, 6, 3,
     {6, 5, 12, 7, 5, 0, 0, 799, 87}},
    {"bias_only_linear", 0x31a656fbbb61b759ULL, 0, 0, 0, 0,
     {0, 0, 0, 0, 1, 0, 0, 0, 0}},
};
// clang-format on

std::uint64_t ct_digest(const Ciphertext& ct) {
  std::uint64_t h = sp::fnv_double(sp::kFnvOffset, ct.scale);
  for (const RnsPoly& p : ct.parts)
    for (int r = 0; r < p.row_count(); ++r)
      for (std::size_t i = 0; i < p.n(); ++i) h = sp::fnv_mix(h, p.row(r)[i]);
  return h;
}

void expect_paf_pin(const char* name, const Ciphertext& out, const EvalStats& s,
                    const OpCounters& d) {
  const PafLedger ops{d.ct_mults,          d.relins,       d.rescales,
                      d.plain_mults,       d.adds,         d.rotations,
                      d.hoisted_rotations, d.ntts_forward, d.ntts_inverse};
  const PafPin got{name,          ct_digest(out),    s.ct_mults, s.relins,
                   s.plain_mults, s.relins_deferred, ops};
  char row[384];
  std::snprintf(row, sizeof(row),
                "    {\"%s\", 0x%016" PRIx64 "ULL, %d, %d, %d, %d,\n"
                "     {%zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu, %zu}},",
                got.name, got.digest, got.ct_mults, got.relins, got.plain_mults,
                got.relins_deferred, ops.ct_mults, ops.relins, ops.rescales, ops.plain_mults,
                ops.adds, ops.rotations, ops.hoisted_rotations, ops.ntts_forward,
                ops.ntts_inverse);
  const PafPin* want = nullptr;
  for (const PafPin& p : kPafPins)
    if (std::string(p.name) == name) want = &p;
  ASSERT_NE(want, nullptr) << "no pin for " << name << "; observed:\n" << row;
  EXPECT_EQ(got.digest, want->digest) << "observed:\n" << row;
  EXPECT_EQ(got.ct_mults, want->ct_mults) << name;
  EXPECT_EQ(got.relins, want->relins) << name;
  EXPECT_EQ(got.plain_mults, want->plain_mults) << name;
  EXPECT_EQ(got.relins_deferred, want->relins_deferred) << name;
  const auto fields = [](const PafLedger& l) {
    return std::tie(l.ct_mults, l.relins, l.rescales, l.plain_mults, l.adds, l.rotations,
                    l.hoisted_rotations, l.ntts_forward, l.ntts_inverse);
  };
  EXPECT_EQ(fields(ops), fields(want->ops)) << name << " op ledger; observed:\n" << row;
}

TEST(PafPins, ReluSchedulesTwoActivationAndMax) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 12, 40), /*seed=*/518);
  Evaluator& ev = rt.evaluator();
  const std::size_t slots = rt.ctx().slot_count();
  const auto values = [&](std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> v(slots);
    for (auto& x : v) x = rng.uniform(-2.0, 2.0);
    return v;
  };

  // Odd degree-7 then odd degree-15 (depth 3 + 4): BSGS cuts the second
  // stage's ct-mults, so the two forced schedules are distinct ciphertexts.
  sp::Rng coeffs(53);
  std::vector<double> c15(16, 0.0);
  for (int k = 1; k <= 15; k += 2) c15[static_cast<std::size_t>(k)] = coeffs.uniform(-1.0, 1.0) / 16.0;
  const approx::CompositePaf paf("deg7-deg15",
                                 {test_paf().stages()[0], approx::Polynomial(c15)});
  const auto relu = smartpaf::FhePipeline::builder().paf_relu(paf, 2.0).build();
  const Ciphertext x = rt.encrypt(values(1));
  for (const auto forced : {PafEvaluator::Strategy::BSGS, PafEvaluator::Strategy::Ladder}) {
    smartpaf::PlanOptions opts;
    opts.force_strategy = forced;
    const auto plan =
        smartpaf::Planner::plan(relu, rt.ctx(), smartpaf::CostModel::heuristic(), opts);
    EvalStats stats;
    const OpCounters before = ev.counters;
    const Ciphertext out = relu.run(rt, plan, x, &stats);
    expect_paf_pin(forced == PafEvaluator::Strategy::BSGS ? "relu_bsgs" : "relu_ladder", out,
                   stats, ev.counters.delta_since(before));
  }

  const auto pipe = two_activation_pipeline();
  const auto plan = smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  (void)rt.rotation_keys(plan.rotation_steps());
  const Ciphertext pipe_in = rt.encrypt(values(2));
  EvalStats pipe_stats;
  const OpCounters pipe_before = ev.counters;
  const Ciphertext pipe_out = pipe.run(rt, plan, pipe_in, &pipe_stats);
  expect_paf_pin("two_activation", pipe_out, pipe_stats, ev.counters.delta_since(pipe_before));

  const Ciphertext a = rt.encrypt(values(3));
  const Ciphertext b = rt.encrypt(values(4));
  EvalStats max_stats;
  const OpCounters max_before = ev.counters;
  const Ciphertext max_out = rt.paf_evaluator().max(ev, a, b, test_paf(43), 4.0, &max_stats);
  expect_paf_pin("max", max_out, max_stats, ev.counters.delta_since(max_before));
}

TEST(PafPins, LinearStagesThatRun) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 12, 40), /*seed=*/520);
  Evaluator& ev = rt.evaluator();
  const auto run_pinned = [&](const char* name, const smartpaf::FhePipeline& pipe,
                              std::uint64_t seed) {
    const auto plan = smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
    sp::Rng rng(seed);
    std::vector<double> v(rt.ctx().slot_count());
    for (auto& x : v) x = rng.uniform(-2.0, 2.0);
    const Ciphertext in = rt.encrypt(v);
    EvalStats stats;
    const OpCounters before = ev.counters;
    const Ciphertext out = pipe.run(rt, plan, in, &stats);
    expect_paf_pin(name, out, stats, ev.counters.delta_since(before));
  };
  // A linear stage after a PAF-ReLU does not fold: its scale multiplies and
  // rescales, then its bias adds.
  run_pinned("relu_then_linear",
             smartpaf::FhePipeline::builder().paf_relu(test_paf(), 2.0).linear(1.1, -0.02).build(),
             1);
  // A scale of exactly 1 takes no level: only the bias adds.
  run_pinned("bias_only_linear", smartpaf::FhePipeline::builder().linear(1.0, 0.25).build(), 2);
}

TEST(PipelineTournament, WindowThreeLandsEachTapOnTheRunningMax) {
  // After the first fold the running max sits depth + 2 levels below the
  // taps at scale ~Delta^2/q; the second fold must land its tap there first.
  smartpaf::FheRuntime rt(CkksParams::for_depth(4096, 16, 40), /*seed=*/519);
  const auto pipe = smartpaf::FhePipeline::builder()
                        .paf_maxpool(approx::make_paf(approx::PafForm::F1_G2), 2.0,
                                     /*pool_window=*/3)
                        .build();
  const auto plan = smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  sp::Rng rng(37);
  std::vector<double> slots(rt.ctx().slot_count());
  for (auto& v : slots) v = rng.uniform(-1.0, 1.0);
  const Ciphertext in = rt.encrypt(slots);
  const Ciphertext out = pipe.run(rt, plan, in);
  EXPECT_EQ(in.level() - out.level(), plan.levels_used);

  const std::vector<double> ref = pipe.reference(slots);
  const std::vector<double> got = rt.decrypt(out);
  double worst = 0.0;
  for (std::size_t j = 0; j < slots.size(); ++j) worst = std::max(worst, std::abs(got[j] - ref[j]));
  EXPECT_LT(worst, kParityTol);
}

TEST_F(PipelineFheTest, RotationKeyStoreDeduplicatesAcrossStages) {
  const std::size_t before = rt_->rotation_key_count();
  const auto plan = smartpaf::Planner::plan(two_activation_pipeline(), rt_->ctx(),
                                            smartpaf::CostModel::heuristic());
  rt_->rotation_keys(plan.rotation_steps());
  const std::size_t after_plan = rt_->rotation_key_count();
  // window{1,2} + maxpool{1}: at most two NEW keys, however many stages
  // requested them.
  EXPECT_LE(after_plan - before, 2u);

  // Re-requesting the same steps (any stage, any pipeline) adds nothing.
  rt_->rotation_keys({1, 2});
  rt_->rotation_keys({1});
  EXPECT_EQ(rt_->rotation_key_count(), after_plan);
}

}  // namespace
