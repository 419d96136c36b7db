// Channel-packed convolution lowering: ConvGeom stride validation, grid
// layout pack/unpack round trips, the split_matmul_blocks column scatter,
// encrypted parity for single conv
// stages / conv->conv compositions / strided convs / packed batches, the
// LeNet-small zoo model end to end under FHE in single-ciphertext AND
// column-split (multi-ciphertext) layouts at < 2^-20 parity, planner
// rejection paths pinned to their diagnostics, and a seeded randomized
// differential harness over ~50 stage graphs (SMARTPAF_CONV_SEED /
// SMARTPAF_CONV_GRAPHS reproduce any failure).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fhe/linear_transform.h"
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

/// Random [out][in][k][k] kernel with magnitude scaled so conv outputs stay
/// O(1) for O(1) inputs.
std::vector<double> random_kernel(int out_ch, int in_ch, int k, std::uint64_t seed) {
  sp::Rng rng(seed);
  const double a = 1.5 / (k * k * std::sqrt(static_cast<double>(in_ch)));
  std::vector<double> w(static_cast<std::size_t>(out_ch) * in_ch * k * k);
  for (auto& v : w) v = rng.uniform(-a, a);
  return w;
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// --------------------------------------------------- plan (pure index math) --

ConvGeom small_geom() {
  ConvGeom g;
  g.in_channels = 2;
  g.out_channels = 2;
  g.height = 4;
  g.width = 4;
  g.kernel = 3;
  g.stride = 1;
  g.ch_stride = 16;
  g.row_stride = 4;
  g.elem_stride = 1;
  return g;
}

TEST(ConvGeom, ValidatesCollisionFreeStrides) {
  ConvGeom g = small_geom();
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.out_h(), 2);
  EXPECT_EQ(g.extent(2), 2 * 16);

  ConvGeom rows_overlap = g;
  rows_overlap.row_stride = 3;  // (w-1)*elem = 3 == row_stride: columns collide
  EXPECT_THROW(rows_overlap.validate(), sp::Error);

  ConvGeom planes_overlap = g;
  planes_overlap.ch_stride = 15;  // (h-1)*row + (w-1)*elem = 15 == ch_stride
  EXPECT_THROW(planes_overlap.validate(), sp::Error);

  ConvGeom kernel_too_big = g;
  kernel_too_big.kernel = 5;
  EXPECT_THROW(kernel_too_big.validate(), sp::Error);
}

// --------------------------------------------------------- layouts (no FHE) --

TEST(StageLayouts, GridPackUnpackRoundTripsAcrossBlocks) {
  // 5 channels of 3x4 at a 24-slot extent: ch_stride 12 -> 2 channels per
  // block, 3 blocks.
  const auto grid = smartpaf::StageLayout::grid(5, 3, 4, 12, 4, 1, 24);
  EXPECT_EQ(grid.chans_per_block, 2);
  EXPECT_EQ(grid.blocks, 3);
  EXPECT_EQ(grid.width, 60u);
  EXPECT_EQ(grid.describe(), "grid 5x3x4 s(12,4,1) x3ct");

  // Element (c, y, x) lands in block c/2 at (c%2)*12 + y*4 + x.
  EXPECT_EQ(smartpaf::layout_slot(grid, 0), (std::pair<int, std::size_t>{0, 0}));
  // c = 2, y = 1, x = 3 -> logical 2*12 + 1*4 + 3 = 31 -> block 1, slot 7.
  EXPECT_EQ(smartpaf::layout_slot(grid, 31), (std::pair<int, std::size_t>{1, 7}));
  // c = 4 -> block 2, local channel 0.
  EXPECT_EQ(smartpaf::layout_slot(grid, 48), (std::pair<int, std::size_t>{2, 0}));

  const std::vector<double> vals = random_values(60, 5);
  const auto blocks = smartpaf::pack_layout(vals, grid, 24);
  ASSERT_EQ(blocks.size(), 3u);
  const auto back = smartpaf::unpack_layout(blocks, grid);
  ASSERT_EQ(back.size(), vals.size());
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(back[i], vals[i]);
}

TEST(StageLayouts, SplitMatmulBlocksReproducesTheFullProduct) {
  // Grid input spanning 2 blocks; the scattered per-block products summed
  // must equal W x computed on the logical vector.
  const auto grid = smartpaf::StageLayout::grid(3, 2, 2, 4, 2, 1, 8);
  ASSERT_EQ(grid.blocks, 2);
  const int rows = 5;
  smartpaf::MatMulStage mm;
  mm.rows = rows;
  mm.cols = static_cast<int>(grid.width);
  mm.weights = random_values(static_cast<std::size_t>(rows) * grid.width, 7);
  mm.bias = random_values(static_cast<std::size_t>(rows), 8);

  const std::vector<double> x = random_values(grid.width, 9);
  const auto blocks = smartpaf::pack_layout(x, grid, 8);
  const auto split = smartpaf::split_matmul_blocks(mm, grid);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_TRUE(split[1].bias.empty());  // bias rides block 0 only

  std::vector<double> got(static_cast<std::size_t>(rows), 0.0);
  for (std::size_t b = 0; b < split.size(); ++b)
    for (int r = 0; r < rows; ++r) {
      double acc = split[b].bias.empty() ? 0.0 : split[b].bias[static_cast<std::size_t>(r)];
      for (int c = 0; c < split[b].cols; ++c)
        acc += split[b].weights[static_cast<std::size_t>(r) * split[b].cols + c] *
               blocks[b][static_cast<std::size_t>(c)];
      got[static_cast<std::size_t>(r)] += acc;
    }
  for (int r = 0; r < rows; ++r) {
    double want = mm.bias[static_cast<std::size_t>(r)];
    for (int c = 0; c < mm.cols; ++c)
      want += mm.weights[static_cast<std::size_t>(r) * mm.cols + c] *
              x[static_cast<std::size_t>(c)];
    EXPECT_NEAR(got[static_cast<std::size_t>(r)], want, 1e-12) << "row " << r;
  }
}

// --------------------------------------------------------------- FHE fixture --

class ConvFheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 12, 40),
                                                 /*seed=*/2032);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> ConvFheTest::rt_;

/// Encrypts `logical` under the pipeline's input layout, runs the plan, and
/// gathers the output layout's logical elements back out.
std::vector<double> run_logical(smartpaf::FheRuntime& rt,
                                const smartpaf::FhePipeline& pipe,
                                const smartpaf::Plan& plan,
                                const std::vector<double>& logical) {
  const std::size_t slots = rt.ctx().slot_count();
  const std::size_t extent = plan.pack_stride != 0 ? plan.pack_stride : slots;
  const auto layouts = pipe.stage_layouts(extent);
  const auto packed = smartpaf::pack_layout(logical, layouts.front().first, slots);
  std::vector<Ciphertext> in;
  in.reserve(packed.size());
  for (const auto& b : packed) in.push_back(rt.encrypt(b));
  const auto out = pipe.run_blocks(rt, plan, in);
  std::vector<std::vector<double>> dec;
  dec.reserve(out.size());
  for (const auto& ct : out) dec.push_back(rt.decrypt(ct));
  return smartpaf::unpack_layout(dec, layouts.back().second);
}

/// Plaintext mirror on the LOGICAL vector: reference() at an extent large
/// enough that every layout is single-block, gathered back to logical
/// order. Layout-independent by construction, so it also mirrors
/// multi-ciphertext runs.
std::vector<double> reference_logical(const smartpaf::FhePipeline& pipe,
                                      const std::vector<double>& logical,
                                      std::size_t big_extent = 8192) {
  const auto layouts = pipe.stage_layouts(big_extent);
  const auto packed = smartpaf::pack_layout(logical, layouts.front().first, big_extent);
  const auto ref = pipe.reference(packed.at(0));
  const auto& out = layouts.back().second;
  std::vector<double> gathered(out.width);
  for (std::size_t i = 0; i < out.width; ++i)
    gathered[i] = ref[smartpaf::layout_slot(out, i).second];
  return gathered;
}

double worst_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

TEST_F(ConvFheTest, SingleConvStageParityVsReference) {
  const int c_in = 2, c_out = 3, img = 8, k = 3;
  std::vector<double> bias = random_values(static_cast<std::size_t>(c_out), 21);
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({c_in, img, img})
                        .conv(c_in, c_out, img, img, k, 1,
                              random_kernel(c_out, c_in, k, 20), bias)
                        .build();
  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.levels_used, 1);
  EXPECT_GE(plan.stages[0].n1, 0);
  EXPECT_EQ(plan.stages[0].layout_in.describe(), "grid 2x8x8 s(64,8,1)");
  EXPECT_EQ(plan.stages[0].layout_out.describe(), "grid 3x6x6 s(64,8,1)");

  const std::vector<double> x = random_values(static_cast<std::size_t>(c_in) * img * img, 22);
  const auto got = run_logical(*rt_, pipe, plan, x);
  const auto want = reference_logical(pipe, x);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_LT(worst_abs_diff(got, want), kParityTol);
}

TEST_F(ConvFheTest, StridedConvComposesWithoutRepacking) {
  // conv s2 leaves a strided grid (row 18, elem 2); the second conv runs
  // directly on it — no compaction stage in between.
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({1, 9, 9})
                        .conv(1, 2, 9, 9, 3, 2, random_kernel(2, 1, 3, 30))
                        .conv(2, 2, 4, 4, 3, 1, random_kernel(2, 2, 3, 31),
                              random_values(2, 32))
                        .build();
  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.levels_used, 2);
  EXPECT_EQ(plan.stages[0].layout_out.describe(), "grid 2x4x4 s(81,18,2)");
  EXPECT_EQ(plan.stages[1].layout_out.describe(), "grid 2x2x2 s(81,18,2)");

  const std::vector<double> x = random_values(81, 33);
  const auto got = run_logical(*rt_, pipe, plan, x);
  const auto want = reference_logical(pipe, x);
  EXPECT_LT(worst_abs_diff(got, want), kParityTol);
}

TEST_F(ConvFheTest, ConvOpCountsMatchThePlanAndBeatTheNaiveFan) {
  // 8 channels: the BSGS channel split must rotate strictly less than the
  // naive per-term fan — the whole point of the diagonal-style grouping.
  const int ch = 8, img = 10, k = 3;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({ch, img, img})
                        .conv(ch, ch, img, img, k, 1, random_kernel(ch, ch, k, 40))
                        .build();

  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  smartpaf::PlanOptions naive_opts;
  naive_opts.force_n1 = 0;
  naive_opts.force_hoist = false;
  const auto naive = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                             smartpaf::CostModel::heuristic(), naive_opts);
  EXPECT_GT(plan.stages[0].n1, 0);
  EXPECT_EQ(naive.stages[0].n1, 0);
  EXPECT_LT(plan.stages[0].rotation_steps.size() + plan.stages[0].giant_steps.size(),
            naive.stages[0].rotation_steps.size());
  EXPECT_NE(plan.describe().find("bsgs n1="), std::string::npos);
  EXPECT_EQ(naive.describe().find("bsgs n1="), std::string::npos);

  const std::vector<double> x =
      random_values(static_cast<std::size_t>(ch) * img * img, 41);
  Evaluator& ev = rt_->evaluator();
  for (const auto* p : {&plan, &naive}) {
    const OpCounters before = ev.counters;
    const auto got = run_logical(*rt_, pipe, *p, x);
    const OpCounters delta = ev.counters.delta_since(before);
    const auto& sp_ = p->stages[0];
    // Executed schedule == the plan (giants rotate once per pair group, and
    // single-block pipes have exactly one pair, so the union IS the count).
    EXPECT_EQ(delta.rotations.load(),
              sp_.rotation_steps.size() + sp_.giant_steps.size());
    EXPECT_EQ(delta.plain_mults.load(), static_cast<std::size_t>(sp_.ops.plain_mults));
    EXPECT_EQ(delta.rescales.load(), 1u);
    EXPECT_EQ(delta.relins.load(), 0u);
    const auto want = reference_logical(pipe, x);
    EXPECT_LT(worst_abs_diff(got, want), kParityTol);
  }
}

TEST_F(ConvFheTest, PackedConvComputesEveryRequestsWindow) {
  // Two requests packed at a 512-slot stride: conv masks replicate per tile
  // so each request gets its own convolution.
  const int c_in = 2, img = 8, k = 3;
  const std::size_t stride = 512;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({c_in, img, img})
                        .conv(c_in, 2, img, img, k, 1, random_kernel(2, c_in, k, 50),
                              random_values(2, 51))
                        .build();
  smartpaf::PlanOptions opts;
  opts.pack_stride = stride;
  const auto plan = smartpaf::Planner::plan(pipe, rt_->ctx(),
                                            smartpaf::CostModel::heuristic(), opts);

  const auto layouts = pipe.stage_layouts(stride);
  const std::size_t slots = rt_->ctx().slot_count();
  std::vector<double> flat(slots, 0.0);
  std::vector<std::vector<double>> per_req;
  for (std::size_t r = 0; r < slots / stride; ++r) {
    per_req.push_back(random_values(static_cast<std::size_t>(c_in) * img * img, 60 + r));
    const auto packed = smartpaf::pack_layout(per_req.back(), layouts.front().first, stride);
    for (std::size_t s = 0; s < stride; ++s) flat[r * stride + s] = packed[0][s];
  }

  const auto got = rt_->decrypt(pipe.run(*rt_, plan, rt_->encrypt(flat)));
  const auto ref = pipe.reference(flat, stride);
  EXPECT_LT(worst_abs_diff(got, ref), kParityTol);
  // Cross-check one request against the layout-independent logical mirror.
  const auto want0 = reference_logical(pipe, per_req[0]);
  const auto& out_layout = layouts.back().second;
  for (std::size_t i = 0; i < out_layout.width; ++i)
    EXPECT_NEAR(got[smartpaf::layout_slot(out_layout, i).second], want0[i], kParityTol);
  const auto want1 = reference_logical(pipe, per_req[1]);
  for (std::size_t i = 0; i < out_layout.width; ++i)
    EXPECT_NEAR(got[stride + smartpaf::layout_slot(out_layout, i).second], want1[i],
                kParityTol);
}

// ---------------------------------------------------------- LeNet-small zoo --

/// Replaces the model's ReLU sites with deg-3 test PAFs and freezes the
/// scales, mirroring the deployment flow (deg-3 keeps two activations plus
/// four conv/matmul levels inside the 12-level chain).
void replace_and_freeze(nn::Model& model, int deg = 3) {
  for (const auto& site : smartpaf::find_nonpoly_sites(model))
    smartpaf::replace_site(model, site, test_paf(deg, 43 + site.index),
                           smartpaf::ScaleMode::Dynamic);
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);
}

/// Channel-major [C, H, W] image -> (tensor, logical vector) pair.
nn::Tensor image_tensor(const std::vector<double>& logical, int c, int h, int w) {
  nn::Tensor x({1, c, h, w});
  std::size_t i = 0;
  for (int ch = 0; ch < c; ++ch)
    for (int y = 0; y < h; ++y)
      for (int xx = 0; xx < w; ++xx) x.at(0, ch, y, xx) = static_cast<float>(logical[i++]);
  return x;
}

TEST_F(ConvFheTest, LenetSmallLowersEndToEndSingleCiphertext) {
  models::LenetConfig cfg;
  cfg.seed = 6;
  nn::Model model = models::lenet_small(cfg);
  replace_and_freeze(model);

  const auto pipe = smartpaf::FhePipeline::lower(
      model, smartpaf::GridShape{cfg.in_channels, cfg.image, cfg.image});
  // conv1 -> relu -> pool(conv) -> conv2 -> relu -> fc (Flatten is a slot
  // identity on the channel-major grid).
  ASSERT_EQ(pipe.stages().size(), 6u);
  EXPECT_TRUE(std::holds_alternative<smartpaf::ConvStage>(pipe.stages()[0].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::PafStage>(pipe.stages()[1].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::ConvStage>(pipe.stages()[2].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::ConvStage>(pipe.stages()[3].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::PafStage>(pipe.stages()[4].op));
  EXPECT_TRUE(std::holds_alternative<smartpaf::MatMulStage>(pipe.stages()[5].op));

  const auto plan =
      smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  // conv1(1) + deg-3 relu(4) + pool(1) + conv2(1) + relu(4) + fc(1).
  EXPECT_EQ(plan.levels_used, 12);
  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("grid 1x12x12"), std::string::npos) << desc;
  EXPECT_NE(desc.find("grid 4x10x10"), std::string::npos) << desc;
  EXPECT_NE(desc.find("grid 4x3x3"), std::string::npos) << desc;
  EXPECT_NE(desc.find("dense w10"), std::string::npos) << desc;

  const std::vector<double> x =
      random_values(static_cast<std::size_t>(cfg.in_channels) * cfg.image * cfg.image, 70);
  const nn::Tensor expect = model.forward(
      image_tensor(x, cfg.in_channels, cfg.image, cfg.image), /*train=*/false);

  const auto got = run_logical(*rt_, pipe, plan, x);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(cfg.num_classes));
  double worst = 0.0;
  for (int j = 0; j < cfg.num_classes; ++j)
    worst = std::max(worst, std::abs(got[static_cast<std::size_t>(j)] -
                                     static_cast<double>(expect.at(0, j))));
  EXPECT_LT(worst, kParityTol);
}

TEST_F(ConvFheTest, LenetSmallColumnSplitEndToEnd) {
  // 256-slot runtime: the 144-slot channel planes pack one channel per
  // ciphertext, so the 4-channel grid spans 4 column blocks — the conv
  // partial-sums join across blocks and the fc gathers the scattered
  // columns per block.
  smartpaf::FheRuntime rt(CkksParams::for_depth(512, 12, 40), /*seed=*/2033);
  models::LenetConfig cfg;
  cfg.seed = 6;
  nn::Model model = models::lenet_small(cfg);
  replace_and_freeze(model);

  const auto pipe = smartpaf::FhePipeline::lower(
      model, smartpaf::GridShape{cfg.in_channels, cfg.image, cfg.image});
  const auto plan =
      smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.levels_used, 12);
  const auto layouts = pipe.stage_layouts(rt.ctx().slot_count());
  EXPECT_EQ(layouts.front().first.blocks, 1);   // 1x12x12 fits one block
  EXPECT_EQ(layouts[0].second.blocks, 4);       // 4 channels, 1 per block
  EXPECT_NE(plan.describe().find("x4ct"), std::string::npos) << plan.describe();

  const std::vector<double> x =
      random_values(static_cast<std::size_t>(cfg.in_channels) * cfg.image * cfg.image, 71);
  const nn::Tensor expect = model.forward(
      image_tensor(x, cfg.in_channels, cfg.image, cfg.image), /*train=*/false);

  const auto got = run_logical(rt, pipe, plan, x);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(cfg.num_classes));
  double worst = 0.0;
  for (int j = 0; j < cfg.num_classes; ++j)
    worst = std::max(worst, std::abs(got[static_cast<std::size_t>(j)] -
                                     static_cast<double>(expect.at(0, j))));
  EXPECT_LT(worst, kParityTol);
}

TEST_F(ConvFheTest, WideDenseMatmulSplitsIntoColumnBlocks) {
  // A 320-wide dense activation at 256 slots splits into 2 column blocks;
  // the matmul joins the per-block partial sums.
  smartpaf::FheRuntime rt(CkksParams::for_depth(512, 4, 40), /*seed=*/2034);
  const int rows = 10, cols = 320;
  const auto pipe =
      smartpaf::FhePipeline::builder()
          .input_width(static_cast<std::size_t>(cols))
          .matmul(rows, cols,
                  random_values(static_cast<std::size_t>(rows) * cols, 80),
                  random_values(static_cast<std::size_t>(rows), 81))
          .build();
  const auto plan =
      smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  EXPECT_EQ(plan.stages[0].layout_in.blocks, 2);
  EXPECT_EQ(plan.stages[0].layout_out.blocks, 1);
  EXPECT_EQ(plan.stages[0].ops.rescales, 1);  // partial sums join, then rescale once

  const std::vector<double> x = random_values(static_cast<std::size_t>(cols), 82);
  const auto got = run_logical(rt, pipe, plan, x);
  const auto want = reference_logical(pipe, x);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(rows));
  EXPECT_LT(worst_abs_diff(got, want), kParityTol);
}

// ------------------------------------------------------- planner rejections --

TEST_F(ConvFheTest, PlannerRejectsWidthMismatchAcrossConvStage) {
  // The second conv declares a 6x6 input but conv1 leaves a 4x10x10 grid.
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({1, 12, 12})
                        .conv(1, 4, 12, 12, 3, 1, random_kernel(4, 1, 3, 90))
                        .conv(4, 4, 6, 6, 3, 1, random_kernel(4, 4, 3, 91))
                        .build();
  bool rejected = false;
  try {
    smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  } catch (const sp::Error& e) {
    rejected = true;
    EXPECT_NE(std::string(e.what()).find("expects input grid 4x6x6"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(rejected);
}

TEST_F(ConvFheTest, PlannerRejectsChannelLayoutMismatchIntoMatMul) {
  // fc sized for a flattened 4x10x10 = 400 grid, fed 4x5x5 = 100 elements.
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({4, 5, 5})
                        .matmul(10, 400, random_values(4000, 92))
                        .build();
  bool rejected = false;
  try {
    smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  } catch (const sp::Error& e) {
    rejected = true;
    EXPECT_NE(std::string(e.what()).find(
                  "expects input width 400 but the channel-packed layout "
                  "carries 100 elements (4x5x5 grid)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(rejected);
}

TEST_F(ConvFheTest, PlannerRejectsLevelOverflowOnDeepLenet) {
  // deg-7 PAFs cost 5 levels each: 1+5+1+1+5+1 = 14 > the 12-level chain.
  models::LenetConfig cfg;
  cfg.seed = 6;
  nn::Model model = models::lenet_small(cfg);
  replace_and_freeze(model, /*deg=*/7);
  const auto pipe = smartpaf::FhePipeline::lower(
      model, smartpaf::GridShape{cfg.in_channels, cfg.image, cfg.image});
  bool rejected = false;
  try {
    smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  } catch (const sp::Error& e) {
    rejected = true;
    const std::string what = e.what();
    EXPECT_NE(what.find("pipeline needs 14 levels but the chain has 12"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("use a deeper prime chain or a shallower PAF"),
              std::string::npos);
  }
  EXPECT_TRUE(rejected);
}

TEST_F(ConvFheTest, PlannerRejectsCyclicStagesOnMultiBlockLayouts) {
  // An 8x12x12 grid at 1024 slots spans 2 ciphertexts; window and compact
  // are cyclic over ONE ciphertext and must be rejected, not mis-executed.
  const auto window_pipe = smartpaf::FhePipeline::builder()
                               .input_grid({8, 12, 12})
                               .window({0.5, 0.5})
                               .build();
  bool rejected = false;
  try {
    smartpaf::Planner::plan(window_pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
  } catch (const sp::Error& e) {
    rejected = true;
    EXPECT_NE(std::string(e.what()).find("requires a single-ciphertext dense layout"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(rejected);

  // Packed batches tile one layout per request — multi-block grids cannot.
  const auto conv_pipe = smartpaf::FhePipeline::builder()
                             .input_grid({8, 12, 12})
                             .conv(8, 8, 12, 12, 3, 1, random_kernel(8, 8, 3, 93))
                             .build();
  smartpaf::PlanOptions packed;
  packed.pack_stride = 1024;
  rejected = false;
  try {
    smartpaf::Planner::plan(conv_pipe, rt_->ctx(), smartpaf::CostModel::heuristic(),
                            packed);
  } catch (const sp::Error& e) {
    rejected = true;
    EXPECT_NE(std::string(e.what()).find("packed batches need single-ciphertext"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(rejected);
}

// ------------------------------------------------- randomized differential --

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
}

int rand_int(sp::Rng& rng, int lo, int hi) {  // inclusive
  return static_cast<int>(rng.randint(lo, hi));
}

/// One randomly generated stage graph, regenerable from its seed alone.
struct GraphSpec {
  std::uint64_t seed = 0;
  int channels = 1, image = 8;
  struct StageSpec {
    enum Kind { Conv, Relu, Fc } kind;
    int out_ch = 0, kernel = 0, stride = 0;  // Conv
    bool bias = false;                       // Conv/Fc
    int rows = 0;                            // Fc
  };
  std::vector<StageSpec> stages;

  std::string describe() const {
    std::ostringstream os;
    os << "grid " << channels << "x" << image << "x" << image << " |";
    for (const auto& s : stages) {
      if (s.kind == StageSpec::Conv)
        os << " conv(out=" << s.out_ch << " k=" << s.kernel << " s=" << s.stride
           << (s.bias ? " +b" : "") << ")";
      else if (s.kind == StageSpec::Relu)
        os << " relu";
      else
        os << " fc(rows=" << s.rows << ")";
    }
    return os.str();
  }
};

GraphSpec make_graph(std::uint64_t seed) {
  sp::Rng rng(seed);
  GraphSpec g;
  g.seed = seed;
  // ~1 in 7 graphs straddle the 1024-slot count (8+ channels of 12x12 =
  // 1152+ elements -> 2 column blocks); those stay shallow to bound time.
  const bool wide = rand_int(rng, 0, 6) == 0;
  g.channels = wide ? 8 : rand_int(rng, 1, 3);
  g.image = wide ? 12 : rand_int(rng, 6, 11);
  const int shape = wide ? rand_int(rng, 0, 1) : rand_int(rng, 0, 3);

  int c = g.channels, h = g.image;
  const auto add_conv = [&](int max_out) {
    GraphSpec::StageSpec s;
    s.kind = GraphSpec::StageSpec::Conv;
    s.kernel = rand_int(rng, 2, 3);
    // Stride 2 only when the strided output stays a whole grid.
    s.stride = (h - s.kernel) % 2 == 0 && rand_int(rng, 0, 2) == 0 ? 2 : 1;
    s.out_ch = wide ? 8 : rand_int(rng, 1, max_out);
    s.bias = rand_int(rng, 0, 1) == 1;
    g.stages.push_back(s);
    c = s.out_ch;
    h = (h - s.kernel) / s.stride + 1;
  };
  const auto add_relu = [&] {
    g.stages.push_back({GraphSpec::StageSpec::Relu, 0, 0, 0, false, 0});
  };

  add_conv(4);
  if (shape >= 1) add_relu();
  if (shape >= 2 && h >= 3) add_conv(3);
  if (shape >= 3) {
    add_relu();
    GraphSpec::StageSpec fc;
    fc.kind = GraphSpec::StageSpec::Fc;
    fc.rows = rand_int(rng, 2, 6);
    fc.bias = true;
    g.stages.push_back(fc);
  }
  return g;
}

/// Builds the pipeline for the first `upto` stages of the spec (the whole
/// graph when upto == stages.size()); weights regenerate deterministically
/// from the spec seed.
smartpaf::FhePipeline build_graph(const GraphSpec& g, std::size_t upto) {
  auto b = smartpaf::FhePipeline::builder();
  b.input_grid({g.channels, g.image, g.image});
  int c = g.channels, h = g.image;
  for (std::size_t i = 0; i < upto; ++i) {
    const auto& s = g.stages[i];
    const std::uint64_t wseed = g.seed * 1000 + i;
    if (s.kind == GraphSpec::StageSpec::Conv) {
      b.conv(c, s.out_ch, h, h, s.kernel, s.stride,
             random_kernel(s.out_ch, c, s.kernel, wseed),
             s.bias ? random_values(static_cast<std::size_t>(s.out_ch), wseed + 1)
                    : std::vector<double>{});
      c = s.out_ch;
      h = (h - s.kernel) / s.stride + 1;
    } else if (s.kind == GraphSpec::StageSpec::Relu) {
      b.paf_relu(test_paf(3, wseed), 2.0);
    } else {
      const int cols = c * h * h;
      b.matmul(s.rows, cols,
               random_values(static_cast<std::size_t>(s.rows) * cols, wseed),
               random_values(static_cast<std::size_t>(s.rows), wseed + 1));
    }
  }
  return b.build();
}

TEST_F(ConvFheTest, RandomizedGraphParitySweep) {
  const std::uint64_t base_seed = env_u64("SMARTPAF_CONV_SEED", 20260808);
  const std::uint64_t graphs = env_u64("SMARTPAF_CONV_GRAPHS", 50);
  for (std::uint64_t i = 0; i < graphs; ++i) {
    const std::uint64_t seed = base_seed + i;
    const GraphSpec g = make_graph(seed);
    const auto pipe = build_graph(g, g.stages.size());
    const auto plan =
        smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic());
    const std::vector<double> x = random_values(
        static_cast<std::size_t>(g.channels) * g.image * g.image, seed ^ 0x5eedULL);
    const double worst =
        worst_abs_diff(run_logical(*rt_, pipe, plan, x), reference_logical(pipe, x));
    if (worst < kParityTol) continue;

    // Failure: minimize to the shortest stage prefix that still diverges,
    // then report a one-env-var repro.
    std::size_t min_len = g.stages.size();
    for (std::size_t k = 1; k < g.stages.size(); ++k) {
      const auto prefix = build_graph(g, k);
      const auto pplan = smartpaf::Planner::plan(prefix, rt_->ctx(),
                                                 smartpaf::CostModel::heuristic());
      if (worst_abs_diff(run_logical(*rt_, prefix, pplan, x),
                         reference_logical(prefix, x)) >= kParityTol) {
        min_len = k;
        break;
      }
    }
    GraphSpec minimized = g;
    minimized.stages.resize(min_len);
    EXPECT_LT(worst, kParityTol)
        << "conv graph parity failure (worst |err| = " << worst << ")\n"
        << "  seed " << seed << ": " << g.describe() << "\n"
        << "  minimized to first " << min_len << " stage(s): "
        << minimized.describe() << "\n"
        << "  repro: SMARTPAF_CONV_SEED=" << seed
        << " SMARTPAF_CONV_GRAPHS=1 ./test_conv";
    return;  // one detailed failure beats fifty noisy ones
  }
}

}  // namespace
