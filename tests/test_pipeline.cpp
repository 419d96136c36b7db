// FhePipeline correctness net: planner validation (level budget, shapes),
// plan determinism on a pinned cost table, scalar folding, lowering from a
// replaced nn::Sequential with plaintext-forward parity, end-to-end FHE
// parity of a 2-activation lowered network < 2^-20, rotation-key dedup
// across stages, the CompositeBasis warm path and predict-vs-executed mult
// counts.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
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

/// A pinned "measured" cost table (values chosen so naive rotation beats
/// hoisting: hoist_ms dominates small fans).
const char* kPinnedCostJson = R"json({
  "poly_degree": 2048,
  "q_count": 13,
  "measured": 1,
  "ct_mult_ms": 4.0,
  "relin_ms": 3.0,
  "rescale_ms": 0.5,
  "plain_mult_ms": 0.25,
  "add_ms": 0.02,
  "rotate_ms": 0.5,
  "hoist_ms": 50.0,
  "hoisted_rotate_ms": 0.4,
  "all_done": 0
})json";

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

  smartpaf::PlanOptions literal;
  literal.rescale_policy = smartpaf::RescalePolicy::PerStage;
  const auto per_stage =
      smartpaf::Planner::plan(pipe, ctx, smartpaf::CostModel::heuristic(), literal);
  EXPECT_EQ(per_stage.levels_used, 12);
  EXPECT_FALSE(per_stage.stages[2].folded);
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
  const auto cm = smartpaf::CostModel::from_json(kPinnedCostJson);
  ASSERT_TRUE(cm.has_value());
  EXPECT_TRUE(cm->measured);
  EXPECT_TRUE(cm->matches(ctx));

  const auto pipe = two_activation_pipeline();
  const auto a = smartpaf::Planner::plan(pipe, ctx, *cm);
  const auto b = smartpaf::Planner::plan(pipe, ctx, *cm);
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
    const auto f = smartpaf::Planner::plan(pipe, ctx, *cm, opts);
    EXPECT_GE(f.predicted_cost, a.predicted_cost);
  }
}

TEST(PipelinePlanner, CostModelJsonRoundTrip) {
  smartpaf::CostModel cm;
  cm.ct_mult_ms = 3.25;
  cm.relin_ms = 2.5;
  cm.rescale_ms = 0.75;
  cm.plain_mult_ms = 0.125;
  cm.add_ms = 0.03125;
  cm.rotate_ms = 2.625;
  cm.hoist_ms = 1.875;
  cm.hoisted_rotate_ms = 0.875;
  cm.poly_degree = 4096;
  cm.q_count = 7;
  cm.measured = true;
  const auto back = smartpaf::CostModel::from_json(cm.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_DOUBLE_EQ(back->ct_mult_ms, cm.ct_mult_ms);
  EXPECT_DOUBLE_EQ(back->hoist_ms, cm.hoist_ms);
  EXPECT_DOUBLE_EQ(back->hoisted_rotate_ms, cm.hoisted_rotate_ms);
  EXPECT_EQ(back->poly_degree, cm.poly_degree);
  EXPECT_EQ(back->q_count, cm.q_count);
  EXPECT_TRUE(back->measured);
  EXPECT_FALSE(smartpaf::CostModel::from_json("not json").has_value());
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
      rt_->paf_evaluator().set_strategy(strat);
      EvalStats stats;
      const Ciphertext out = rt_->paf_evaluator().eval_poly(rt_->evaluator(), x, p, &stats);
      EXPECT_EQ(stats.ct_mults, pred.ct_mults) << "deg " << deg;
      EXPECT_EQ(x.level() - out.level(), pred.levels) << "deg " << deg;
    }
    rt_->paf_evaluator().set_strategy(PafEvaluator::Strategy::BSGS);
  }
}

TEST_F(PipelineFheTest, CompositeBasisWarmRepeatIsNearlyMultFree) {
  // Two-stage composite so the cache covers a LATER stage too.
  approx::CompositePaf paf("deg7x2", {test_paf().stages()[0], test_paf(47).stages()[0]});
  sp::Rng rng(29);
  std::vector<double> v(rt_->ctx().slot_count());
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  const Ciphertext ct = rt_->encrypt(v);

  EvalStats cold;
  const Ciphertext out_cold =
      rt_->paf_evaluator().relu(rt_->evaluator(), ct, paf, 2.0, &cold);

  CompositeBasis cache;
  EvalStats warm_seed;
  rt_->paf_evaluator().relu(rt_->evaluator(), ct, paf, 2.0, &warm_seed, nullptr, &cache);
  EXPECT_EQ(warm_seed.ct_mults, cold.ct_mults);  // first cached call = cold cost

  EvalStats warm;
  const Ciphertext out_warm =
      rt_->paf_evaluator().relu(rt_->evaluator(), ct, paf, 2.0, &warm, nullptr, &cache);
  // Repeat on the same input: every stage output is memoized, so only the
  // final 0.5 x (1 + p) product remains.
  EXPECT_EQ(warm.ct_mults, 1);
  EXPECT_GT(cold.ct_mults, 10);

  const std::vector<double> a = rt_->decrypt(out_cold);
  const std::vector<double> b = rt_->decrypt(out_warm);
  double worst = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) worst = std::max(worst, std::abs(a[j] - b[j]));
  EXPECT_LT(worst, 1e-12);  // identical deterministic schedule

  // Retrained SECOND stage: its powers (and the first stage entirely) are
  // reused; only the changed stage re-evaluates, plus the final product.
  approx::CompositePaf tuned = paf;
  tuned.stages()[1].coeffs()[3] += 0.01;
  EvalStats tuned_stats;
  const Ciphertext out_tuned = rt_->paf_evaluator().relu(rt_->evaluator(), ct, tuned,
                                                         2.0, &tuned_stats, nullptr, &cache);
  EXPECT_LT(tuned_stats.ct_mults, cold.ct_mults);
  // Correctness of the tuned re-evaluation against a fresh one.
  EvalStats fresh_stats;
  const Ciphertext out_fresh =
      rt_->paf_evaluator().relu(rt_->evaluator(), ct, tuned, 2.0, &fresh_stats);
  const std::vector<double> tuned_v = rt_->decrypt(out_tuned);
  const std::vector<double> fresh_v = rt_->decrypt(out_fresh);
  worst = 0.0;
  for (std::size_t j = 0; j < tuned_v.size(); ++j)
    worst = std::max(worst, std::abs(tuned_v[j] - fresh_v[j]));
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
