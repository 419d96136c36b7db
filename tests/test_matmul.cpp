// Diagonal-method matmul + slot compaction net: encrypted parity vs
// nn::Linear::forward for square/non-square shapes (dimensions that do not
// divide the slot count included), BSGS
// rotation counts pinned against the plan the CostModel chose,
// hoisted-vs-naive bit identity, CompactStage parity, the adjacent-linear
// merge pass (saved level pinned), slot-width tracking through the layers,
// and the zoo MLP head lowering end to end (plain and stride-2 pooled
// variants) at < 2^-20 FHE-vs-plaintext parity.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "models/zoo.h"
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

/// Odd single-stage PAF of the given degree (depth ceil(log2(deg+1))).
approx::CompositePaf test_paf(int deg, std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> c(static_cast<std::size_t>(deg) + 1, 0.0);
  for (int k = 1; k <= deg; k += 2)
    c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / (2.0 * deg);
  return approx::CompositePaf("deg" + std::to_string(deg), {approx::Polynomial(c)});
}

std::vector<double> random_matrix(int rows, int cols, std::uint64_t seed,
                                  double magnitude = 0.5) {
  sp::Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(rows) * cols);
  for (auto& v : w) v = rng.uniform(-magnitude, magnitude);
  return w;
}

// --------------------------------------------------------------- FHE fixture --

class MatMulFheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 12, 40),
                                                 /*seed=*/2030);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  static std::vector<double> random_slots(std::uint64_t seed, double lo = -1.0,
                                          double hi = 1.0) {
    sp::Rng rng(seed);
    std::vector<double> v(rt_->ctx().slot_count());
    for (auto& x : v) x = rng.uniform(lo, hi);
    return v;
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> MatMulFheTest::rt_;

TEST_F(MatMulFheTest, ParityVsLinearForwardAcrossShapes) {
  struct Shape {
    int in, out;
  };
  // Square, wide, tall — including dimensions that do not divide the 1024
  // slot count (zero-padded diagonals).
  for (const Shape s : {Shape{16, 16}, Shape{24, 10}, Shape{10, 24}, Shape{20, 12}}) {
    sp::Rng rng(100 + static_cast<std::uint64_t>(s.in));
    nn::Linear lin(s.in, s.out, rng, /*bias=*/true,
                   "fc" + std::to_string(s.in) + "x" + std::to_string(s.out));

    nn::Tensor x({1, s.in});
    std::vector<double> slots(rt_->ctx().slot_count(), 0.0);
    for (int j = 0; j < s.in; ++j) {
      x.at(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
      slots[static_cast<std::size_t>(j)] = static_cast<double>(x.at(0, j));
    }
    const nn::Tensor y = lin.forward(x, /*train=*/false);

    const auto pipe = smartpaf::FhePipeline::builder()
                          .input_width(static_cast<std::size_t>(s.in))
                          .matmul(s.out, s.in, lin.weight_values(), lin.bias_values())
                          .build();
    const auto plan =
        smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
    EXPECT_EQ(plan.levels_used, 1);
    EXPECT_EQ(plan.stages[0].width_in, static_cast<std::size_t>(s.in));
    EXPECT_EQ(plan.stages[0].width_out, static_cast<std::size_t>(s.out));

    const std::vector<double> got =
        rt_->decrypt(pipe.run(*rt_, plan, rt_->encrypt(slots)));
    for (int j = 0; j < s.out; ++j)
      EXPECT_NEAR(got[static_cast<std::size_t>(j)], static_cast<double>(y.at(0, j)),
                  kParityTol)
          << s.in << "x" << s.out << " row " << j;
    // The product is masked into [0, out): the next slots hold only noise.
    for (int j = s.out; j < s.out + 8; ++j)
      EXPECT_NEAR(got[static_cast<std::size_t>(j)], 0.0, kParityTol);
  }
}

TEST_F(MatMulFheTest, BsgsRotationCountsPinnedToPlan) {
  const int n = 64;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(n)
                        .matmul(n, n, random_matrix(n, n, 7))
                        .build();

  // Planner's pick under the heuristic table: a real BSGS split.
  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  const auto& sp_ = plan.stages[0];
  EXPECT_GT(sp_.n1, 1);
  EXPECT_EQ(sp_.ops.plain_mults, 2 * n - 1);  // dense: every extended diagonal

  const std::vector<double> slots = random_slots(11);
  Evaluator& ev = rt_->evaluator();
  const Ciphertext in = rt_->encrypt(slots);

  OpCounters before = ev.counters;
  (void)pipe.run(*rt_, plan, in);
  OpCounters delta = ev.counters.delta_since(before);
  // Executed schedule == the plan the CostModel chose.
  EXPECT_EQ(delta.rotations.load(),
            sp_.rotation_steps.size() + sp_.giant_steps.size());
  EXPECT_EQ(delta.hoisted_rotations.load(), sp_.rotation_steps.size());
  EXPECT_EQ(delta.plain_mults.load(), static_cast<std::size_t>(sp_.ops.plain_mults));
  EXPECT_EQ(delta.rescales.load(), 1u);
  EXPECT_EQ(delta.relins.load(), 0u);
  EXPECT_EQ(delta.ct_mults.load(), 0u);

  // Naive diagonal loop (n1 = 1, no hoisting): one rotation per nonzero
  // off-diagonal. The BSGS split must be strictly cheaper in rotations.
  smartpaf::PlanOptions naive_opts;
  naive_opts.force_n1 = 1;
  naive_opts.force_hoist = false;
  const auto naive = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                             smartpaf::CostModel::heuristic(), naive_opts);
  before = ev.counters;
  (void)pipe.run(*rt_, naive, in);
  delta = ev.counters.delta_since(before);
  EXPECT_EQ(delta.rotations.load(), static_cast<std::size_t>(2 * n - 2));
  EXPECT_EQ(delta.hoisted_rotations.load(), 0u);
  EXPECT_LT(sp_.rotation_steps.size() + sp_.giant_steps.size(),
            static_cast<std::size_t>(2 * n - 2));

  // Pure fan (n1 = 0): every nonzero off-diagonal, negative steps included,
  // is a baby of one hoisted fan and no giant rotates.
  smartpaf::PlanOptions fan_opts;
  fan_opts.force_n1 = 0;
  const auto fan = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                           smartpaf::CostModel::heuristic(), fan_opts);
  EXPECT_TRUE(fan.stages[0].giant_steps.empty());
  before = ev.counters;
  const std::vector<double> got = rt_->decrypt(pipe.run(*rt_, fan, in));
  delta = ev.counters.delta_since(before);
  EXPECT_EQ(delta.rotations.load(), static_cast<std::size_t>(2 * n - 2));
  EXPECT_EQ(delta.hoisted_rotations.load(), static_cast<std::size_t>(2 * n - 2));
  const std::vector<double> want = pipe.reference(slots);
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(got[static_cast<std::size_t>(j)], want[static_cast<std::size_t>(j)],
                kParityTol);
}

TEST_F(MatMulFheTest, HoistedAndNaiveBabyFansAreBitIdentical) {
  const int n = 32;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(n)
                        .matmul(n, n, random_matrix(n, n, 13))
                        .build();
  const Ciphertext in = rt_->encrypt(random_slots(17));

  std::vector<std::vector<double>> outs;
  for (const bool hoist : {true, false}) {
    smartpaf::PlanOptions opts;
    opts.force_n1 = 8;
    opts.force_hoist = hoist;
    const auto plan = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                              smartpaf::CostModel::heuristic(), opts);
    EXPECT_EQ(plan.stages[0].hoist_fan, hoist);
    outs.push_back(rt_->decrypt(pipe.run(*rt_, plan, in)));
  }
  // rotate_hoisted is bit-identical to rotate, and the rest of the schedule
  // is shared — so the decrypted outputs must match exactly, not just to
  // tolerance.
  ASSERT_EQ(outs[0].size(), outs[1].size());
  for (std::size_t j = 0; j < outs[0].size(); ++j)
    EXPECT_EQ(outs[0][j], outs[1][j]) << "slot " << j;
}

TEST_F(MatMulFheTest, CompactStageParityAndWidths) {
  const std::size_t width = 32;
  const int stride = 4;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(width)
                        .compact(stride)
                        .build();
  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.levels_used, 1);
  EXPECT_EQ(plan.stages[0].width_in, width);
  EXPECT_EQ(plan.stages[0].width_out, width / stride);
  // Output slot i takes x[i * stride] via the step i * (stride - 1).
  EXPECT_EQ(plan.stages[0].rotation_steps,
            (std::vector<int>{3, 6, 9, 12, 15, 18, 21}));

  const std::vector<double> slots = random_slots(23);
  const std::vector<double> got =
      rt_->decrypt(pipe.run(*rt_, plan, rt_->encrypt(slots)));
  const std::vector<double> ref = pipe.reference(slots);
  for (std::size_t i = 0; i < width / stride; ++i) {
    EXPECT_DOUBLE_EQ(ref[i], slots[i * stride]);
    EXPECT_NEAR(got[i], slots[i * stride], kParityTol) << "slot " << i;
  }
  for (std::size_t i = width / stride; i < width / stride + 8; ++i)
    EXPECT_NEAR(got[i], 0.0, kParityTol);
}

TEST_F(MatMulFheTest, AdjacentLinearStagesMergeIntoOneRescale) {
  const auto slots_n = rt_->ctx().slot_count();
  sp::Rng rng(31);
  std::vector<double> a(slots_n), ba(slots_n), b(slots_n), bb(slots_n);
  for (auto* v : {&a, &ba, &b, &bb})
    for (auto& x : *v) x = rng.uniform(-1.0, 1.0);

  const auto pipe = smartpaf::FhePipeline::builder()
                        .linear(a, ba)
                        .linear(b, bb)
                        .paf_relu(test_paf(7, 41), 2.0)
                        .build();

  // Plan-level rescale placement: the two per-slot linears (unfoldable into
  // the PAF envelope) merge into ONE plaintext mult + rescale — 6 levels
  // instead of the literal 7.
  const auto merged =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(merged.levels_used, 6);
  EXPECT_TRUE(merged.stages[0].folded);
  EXPECT_TRUE(merged.stages[0].merged_into_next);
  ASSERT_TRUE(merged.stages[1].merged_linear.has_value());
  const auto& eff = *merged.stages[1].merged_linear;
  for (std::size_t j : {std::size_t{0}, std::size_t{5}, slots_n - 1}) {
    EXPECT_DOUBLE_EQ(eff.scale[j], b[j] * a[j]);
    EXPECT_DOUBLE_EQ(eff.bias[j], b[j] * ba[j] + bb[j]);
  }

  smartpaf::PlanOptions literal;
  literal.rescale_policy = smartpaf::RescalePolicy::PerStage;
  const auto per_stage = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                                 smartpaf::CostModel::heuristic(), literal);
  EXPECT_EQ(per_stage.levels_used, 7);

  // Both plans execute to the same values (double-rounding differences stay
  // far inside the parity budget).
  const std::vector<double> slots = random_slots(37);
  const std::vector<double> ref = pipe.reference(slots);
  for (const auto* plan : {&merged, &per_stage}) {
    const std::vector<double> got =
        rt_->decrypt(pipe.run(*rt_, *plan, rt_->encrypt(slots)));
    double worst = 0.0;
    for (std::size_t j = 0; j < ref.size(); ++j)
      worst = std::max(worst, std::abs(got[j] - ref[j]));
    EXPECT_LT(worst, kParityTol);
  }
}

TEST_F(MatMulFheTest, PackedMatMulComputesEveryRequestsProduct) {
  // Four requests packed at a 256-slot stride: the diagonals replicate per
  // tile, so every request gets its own W x + b in its own slots.
  const int rows = 8, cols = 16;
  const std::size_t stride = 256;
  sp::Rng rng(71);
  nn::Linear lin(cols, rows, rng, /*bias=*/true, "packed-fc");

  std::vector<std::vector<double>> inputs(4);
  for (auto& v : inputs) {
    v.resize(cols);
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  }
  const std::vector<double> flat =
      Encoder::pack_slots(inputs, stride, rt_->ctx().slot_count());

  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(cols)
                        .matmul(rows, cols, lin.weight_values(), lin.bias_values())
                        .build();
  smartpaf::PlanOptions opts;
  opts.pack_stride = stride;
  const auto plan = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                            smartpaf::CostModel::heuristic(), opts);
  EXPECT_EQ(plan.pack_stride, stride);

  const std::vector<double> got =
      rt_->decrypt(pipe.run(*rt_, plan, rt_->encrypt(flat)));
  const std::vector<double> ref = pipe.reference(flat, stride);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    nn::Tensor x({1, cols});
    for (int j = 0; j < cols; ++j)
      x.at(0, j) = static_cast<float>(inputs[b][static_cast<std::size_t>(j)]);
    const nn::Tensor y = lin.forward(x, /*train=*/false);
    for (int i = 0; i < rows; ++i) {
      const std::size_t slot = b * stride + static_cast<std::size_t>(i);
      EXPECT_NEAR(got[slot], static_cast<double>(y.at(0, i)), kParityTol)
          << "request " << b << " row " << i;
      EXPECT_NEAR(ref[slot], static_cast<double>(y.at(0, i)), kParityTol);
    }
  }
}

TEST_F(MatMulFheTest, PlannerRejectsWidthMismatch) {
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(16)
                        .matmul(4, 8, random_matrix(4, 8, 3))
                        .build();
  bool rejected = false;
  try {
    smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  } catch (const sp::Error& e) {
    rejected = true;
    EXPECT_NE(std::string(e.what()).find("expects input width"), std::string::npos);
  }
  EXPECT_TRUE(rejected);
}

TEST_F(MatMulFheTest, EncoderCacheServesRepeatedDiagonals) {
  Encoder& enc = rt_->encoder();
  enc.clear_encode_cache();
  const std::vector<double> v(rt_->ctx().slot_count(), 0.25);
  const auto p1 = enc.encode_cached(42, v, rt_->ctx().scale(), 2);
  const auto p2 = enc.encode_cached(42, v, rt_->ctx().scale(), 2);
  EXPECT_EQ(p1.get(), p2.get());  // second call is a cache hit
  EXPECT_EQ(enc.encode_cache_size(), 1u);
  (void)enc.encode_cached(42, v, rt_->ctx().scale(), 3);  // new q_count, new entry
  EXPECT_EQ(enc.encode_cache_size(), 2u);
  enc.clear_encode_cache();
  EXPECT_EQ(enc.encode_cache_size(), 0u);
  // Pinned entries survive the flush: the handed-out plaintext is intact.
  EXPECT_EQ(p1->q_count(), 2);
  EXPECT_EQ(p1->scale, rt_->ctx().scale());
}

TEST_F(MatMulFheTest, EncoderCacheKeysScaleOnBitPattern) {
  Encoder& enc = rt_->encoder();
  enc.clear_encode_cache();
  const std::vector<double> v(rt_->ctx().slot_count(), 0.5);
  const double scale = rt_->ctx().scale();
  const auto p1 = enc.encode_cached(7, v, scale, 2);
  // Bitwise-equal scale computed through a different expression still hits.
  const double same = scale * 1.0;
  EXPECT_EQ(p1.get(), enc.encode_cached(7, v, same, 2).get());
  EXPECT_EQ(enc.encode_cache_size(), 1u);
  // One-ulp-off scale is a distinct entry, never a near-miss alias.
  const double off = std::nextafter(scale, 2.0 * scale);
  const auto p3 = enc.encode_cached(7, v, off, 2);
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(enc.encode_cache_size(), 2u);
  EXPECT_EQ(p3->scale, off);
}

// ------------------------------------------------------------- zoo MLP head --

/// Replaces the head's non-polynomial sites with test PAFs and freezes the
/// scales, mirroring the deployment flow.
void replace_and_freeze(nn::Model& model) {
  const auto sites = smartpaf::find_nonpoly_sites(model);
  for (const auto& site : sites) {
    // Shallow PAFs keep the pooled variant inside a 12-level chain: deg-3
    // (depth 2) for the pool tournament, deg-7 (depth 3) for the ReLU.
    const int deg = site.kind == smartpaf::SiteKind::MaxPool ? 3 : 7;
    smartpaf::replace_site(model, site, test_paf(deg, 43 + site.index),
                           smartpaf::ScaleMode::Dynamic);
  }
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);
}

TEST_F(MatMulFheTest, MlpHeadLowersEndToEnd) {
  models::MlpHeadConfig cfg;
  cfg.in_features = 24;
  cfg.hidden = 16;
  cfg.num_classes = 10;
  cfg.seed = 5;
  nn::Model model = models::mlp_head(cfg);
  replace_and_freeze(model);

  const auto pipe =
      smartpaf::FhePipeline::lower(model, static_cast<std::size_t>(cfg.in_features));
  ASSERT_EQ(pipe.stages().size(), 3u);
  EXPECT_TRUE(std::holds_alternative<smartpaf::MatMulStage>(pipe.stages()[0].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::PafStage>(pipe.stages()[1].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::MatMulStage>(pipe.stages()[2].op));
  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.levels_used, 1 + 5 + 1);  // matmul + deg-7 ReLU + matmul
  EXPECT_EQ(plan.stages.back().layout_out.width, static_cast<std::size_t>(cfg.num_classes));

  sp::Rng rng(47);
  nn::Tensor x({1, cfg.in_features});
  std::vector<double> slots(rt_->ctx().slot_count(), 0.0);
  for (int j = 0; j < cfg.in_features; ++j) {
    x.at(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    slots[static_cast<std::size_t>(j)] = static_cast<double>(x.at(0, j));
  }
  const nn::Tensor expect = model.forward(x, /*train=*/false);

  const std::vector<double> got =
      rt_->decrypt(pipe.run(*rt_, plan, rt_->encrypt(slots)));
  double worst = 0.0;
  for (int j = 0; j < cfg.num_classes; ++j)
    worst = std::max(worst, std::abs(got[static_cast<std::size_t>(j)] -
                                     static_cast<double>(expect.at(0, j))));
  EXPECT_LT(worst, kParityTol);
}

TEST_F(MatMulFheTest, MlpHeadWithStride2PoolLowersEndToEnd) {
  models::MlpHeadConfig cfg;
  cfg.in_features = 48;
  cfg.hidden = 16;
  cfg.num_classes = 10;
  cfg.pool_window = 2;
  cfg.pool_stride = 2;
  cfg.seed = 9;
  nn::Model model = models::mlp_head(cfg);
  replace_and_freeze(model);

  const auto pipe =
      smartpaf::FhePipeline::lower(model, static_cast<std::size_t>(cfg.in_features));
  // pool tournament -> compact -> matmul -> relu -> matmul.
  ASSERT_EQ(pipe.stages().size(), 5u);
  EXPECT_TRUE(std::holds_alternative<smartpaf::PafStage>(pipe.stages()[0].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::CompactStage>(pipe.stages()[1].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::MatMulStage>(pipe.stages()[2].op));

  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  // deg-3 pairwise max (4) + compact (1) + matmul (1) + deg-7 ReLU (5) +
  // matmul (1) — exactly the 12-level chain.
  EXPECT_EQ(plan.levels_used, 12);
  EXPECT_EQ(plan.stages[1].width_in, 48u);
  EXPECT_EQ(plan.stages[1].width_out, 24u);

  sp::Rng rng(53);
  nn::Tensor x({1, cfg.in_features});
  std::vector<double> slots(rt_->ctx().slot_count(), 0.0);
  for (int j = 0; j < cfg.in_features; ++j) {
    x.at(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
    slots[static_cast<std::size_t>(j)] = static_cast<double>(x.at(0, j));
  }
  const nn::Tensor expect = model.forward(x, /*train=*/false);
  ASSERT_EQ(expect.dim(1), cfg.num_classes);

  const std::vector<double> got =
      rt_->decrypt(pipe.run(*rt_, plan, rt_->encrypt(slots)));
  double worst = 0.0;
  for (int j = 0; j < cfg.num_classes; ++j)
    worst = std::max(worst, std::abs(got[static_cast<std::size_t>(j)] -
                                     static_cast<double>(expect.at(0, j))));
  EXPECT_LT(worst, kParityTol);
}

// -------------------------------------------------- widths through the layers --

TEST(SlotWidths, OutputWidthTracksCompactAndMatMul) {
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(32)
                        .compact(4)
                        .matmul(10, 8, std::vector<double>(80, 0.1))
                        .build();
  const auto layouts = pipe.stage_layouts(1024);
  ASSERT_EQ(layouts.size(), 2u);
  EXPECT_EQ(layouts[0].first.width, 32u);
  EXPECT_EQ(layouts[0].second.width, 8u);
  EXPECT_EQ(layouts[1].first.width, 8u);
  EXPECT_EQ(layouts[1].second.width, 10u);

  // Window + PAF keep the width, so a packed request's output slice spans
  // its whole stride.
  const auto activation =
      smartpaf::FhePipeline::builder().window({0.6, 0.4}).paf_relu(test_paf(7, 61), 2.0).build();
  EXPECT_EQ(activation.stage_layouts(256).back().second.width, 256u);
}

}  // namespace
