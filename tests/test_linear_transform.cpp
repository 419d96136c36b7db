// fhe::LinearTransform: the schedule's index math (diagonal and conv term
// grouping, fan vs. BSGS rotation counts, zero-term skipping), and golden
// ciphertext digests (FNV over every residue of every output part, plus the
// scale) with evaluator op counts for every stage kind that lowers to the
// masked rotation-sum — window (hoisted and naive), compact, single-block
// matmul (planner split and forced n1 = 1), packed matmul, conv (fan and
// BSGS), lenet_small in one and in four ciphertexts, the 320-wide
// column-split matmul, and the encrypted-matrix matvec forward and
// transpose.
//
// Each pin builds its own seeded runtime and mints every rotation key up
// front from the plan's sorted step union, so a digest depends only on the
// schedule and the arithmetic — not on test order or on the order in which
// a run happens to request keys. On a mismatch the test prints the observed
// row in table syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fhe/linear_transform.h"
#include "models/zoo.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "smartpaf/replace.h"
#include "train/batch.h"

namespace {

using namespace sp;
using fhe::CkksParams;

struct Pin {
  const char* name;
  std::uint64_t digest;
  std::size_t rotations, hoisted, plain_mults, rescales, adds, ct_mults, relins;
};

// lenet_4ct and matmul_320_split feed a matmul from several ciphertexts:
// they pin the join, where the partial sums add up before one rescale.
// clang-format off
const Pin kPins[] = {
    {"window_hoisted", 0x48c93937d73b9d0dULL, 4, 4, 5, 1, 5, 0, 0},
    {"window_naive", 0xb38401c8031ac2dcULL, 4, 0, 5, 1, 5, 0, 0},
    {"compact", 0x0748eed4f565785aULL, 15, 15, 16, 1, 15, 0, 0},
    {"matmul_planned", 0x4a919ceed5a82237ULL, 14, 7, 63, 1, 63, 0, 0},
    {"matmul_n1_1", 0xa45b412a169ba840ULL, 62, 0, 63, 1, 63, 0, 0},
    {"matmul_packed", 0xb319aa651e3c52e8ULL, 10, 6, 31, 1, 31, 0, 0},
    {"conv_fan", 0xb9e4acca5a041b29ULL, 134, 134, 135, 1, 135, 0, 0},
    {"conv_bsgs", 0xe91e29923a3f189fULL, 24, 17, 135, 1, 135, 0, 0},
    {"lenet_1ct", 0x9581fd21bad42448ULL, 56, 32, 279, 18, 271, 6, 6},
    {"lenet_4ct", 0x39b778f54c45954eULL, 108, 84, 396, 69, 367, 24, 24},
    {"matmul_320_split", 0x9c6ea67692ce1de2ULL, 50, 30, 338, 1, 338, 0, 0},
    {"encmat_forward", 0x8935d1be25ce225cULL, 6, 4, 0, 1, 11, 12, 3},
    {"encmat_transpose", 0x649487953385f4beULL, 5, 3, 0, 1, 11, 12, 3},
};
// clang-format on

// ------------------------------------------- schedule (pure index math) --

TEST(LtSchedule, DiagonalGroupsExtendedDiagonals) {
  // W = [[1, 2], [3, 4]]: diagonals at s = -1 (3), s = 0 (1, 4), s = 1 (2).
  const std::vector<double> w{1, 2, 3, 4};
  const auto steps = fhe::diagonal_steps(w, 2, 2);
  EXPECT_EQ(steps, (std::vector<int>{-1, 0, 1}));

  const auto naive = fhe::diagonal_schedule(steps, /*n1=*/1);
  EXPECT_TRUE(naive.fan_steps(0).empty());
  EXPECT_EQ(naive.giant_steps(), (std::vector<int>{-1, 1}));
  EXPECT_EQ(naive.mask_mults(), 3);
  EXPECT_EQ(naive.rotations(), 2);

  const auto bsgs = fhe::diagonal_schedule(steps, /*n1=*/2);
  // s = -1 -> g = -2, b = 1; s = 0 -> (0, 0); s = 1 -> (0, 1).
  EXPECT_EQ(bsgs.fan_steps(0), (std::vector<int>{1}));
  EXPECT_EQ(bsgs.giant_steps(), (std::vector<int>{-2}));
  EXPECT_EQ(bsgs.rotations(), 2);
  EXPECT_EQ(bsgs.steps(), (std::vector<int>{-2, 1}));
}

TEST(LtSchedule, DiagonalSkipsZeroDiagonals) {
  // Identity-like: only the main diagonal is nonzero, no rotations at all.
  const auto s = fhe::diagonal_schedule(fhe::diagonal_steps({1, 0, 0, 1}, 2, 2), 4);
  EXPECT_EQ(s.terms.size(), 1u);
  EXPECT_EQ(s.rotations(), 0);
}

TEST(LtSchedule, GiantOfFloorsNegativeSteps) {
  EXPECT_EQ(fhe::giant_of(5, 4), 4);
  EXPECT_EQ(fhe::giant_of(-1, 4), -4);
  EXPECT_EQ(fhe::giant_of(-4, 4), -4);
  EXPECT_EQ(fhe::giant_of(-7, 0), 0);  // pure fan
}

/// Schedule of a 2 -> 2 channel, 4x4, k3 conv on a 16-slot channel plane
/// (row stride 4) under split n1 — one block each side.
fhe::LtSchedule conv_schedule(const std::vector<double>& w, int n1) {
  smartpaf::Stage st;
  st.op = smartpaf::ConvStage{2, 2, 4, 4, 3, 1, w, {}};
  const auto in = smartpaf::StageLayout::grid(2, 4, 4, 16, 4, 1, 32);
  const auto out = smartpaf::StageLayout::grid(2, 2, 2, 16, 4, 1, 32);
  return smartpaf::stage_transform(st, in, out, n1, 32, 32)->schedule;
}

TEST(LtSchedule, ConvFanEnumeratesEveryTermShift) {
  // All-nonzero 2x2x3x3 kernel: channel offsets {-1, 0, 1}, 9 taps each.
  const auto s = conv_schedule(std::vector<double>(36, 0.25), /*n1=*/0);
  EXPECT_EQ(s.terms.size(), 27u);
  EXPECT_EQ(s.mask_mults(), 27);
  EXPECT_TRUE(s.giant_steps().empty());  // pure fan: everything is a baby
  // shift = c*16 + dy*4 + dx; only (0,0,0) needs no rotation.
  EXPECT_EQ(s.fan_steps(0).size(), 26u);
  EXPECT_EQ(s.rotations(), 26);
  for (const auto& t : s.terms) EXPECT_EQ(t.giant, 0);
}

TEST(LtSchedule, ConvBsgsSharesBabiesAcrossChannelGroups) {
  const auto s = conv_schedule(std::vector<double>(36, 0.25), /*n1=*/2);
  // c = -1 -> g = -2, b = 1; c in {0, 1} -> g = 0, b = c. Babies are
  // b*16 + taps: 8 nonzero taps at b = 0 plus 9 at b = 1 = 17; one giant.
  const std::vector<int> fan = s.fan_steps(0);
  EXPECT_EQ(fan.size(), 17u);
  EXPECT_EQ(s.giant_steps(), (std::vector<int>{-32}));
  EXPECT_EQ(s.rotations(), 18);
  // Terms arrive grouped by giant, ascending, with every baby in the fan.
  int prev = s.terms.front().giant;
  for (const auto& t : s.terms) {
    EXPECT_GE(t.giant, prev);
    prev = t.giant;
    EXPECT_TRUE(t.giant == 0 || t.giant == -32);
    EXPECT_TRUE(t.baby == 0 || std::find(fan.begin(), fan.end(), t.baby) != fan.end())
        << "baby " << t.baby;
  }
}

TEST(LtSchedule, ConvSkipsAllZeroTerms) {
  // Depthwise identity-ish kernel: only (oc == ic, dy = dx = 0) nonzero.
  std::vector<double> w(36, 0.0);
  w[0] = 1.0;               // oc 0, ic 0, tap (0,0)
  w[(1 * 2 + 1) * 9] = 1.0;  // oc 1, ic 1, tap (0,0)
  const auto s = conv_schedule(w, /*n1=*/0);
  EXPECT_EQ(s.terms.size(), 1u);  // both pairs share offset c = 0, tap 0
  EXPECT_EQ(s.rotations(), 0);
}

TEST(LtSchedule, SplitOfThePureFanMatchesTheGenerators) {
  // The Planner prices every candidate n1 as split_schedule() of the n1 = 0
  // term list; that must be the schedule the generator emits at n1.
  const auto expect_same = [](const fhe::LtSchedule& a, const fhe::LtSchedule& b, int n1) {
    ASSERT_EQ(a.terms.size(), b.terms.size()) << "n1 " << n1;
    for (std::size_t i = 0; i < a.terms.size(); ++i) {
      const auto &x = a.terms[i], &y = b.terms[i];
      EXPECT_TRUE(x.in_block == y.in_block && x.out_block == y.out_block &&
                  x.giant == y.giant && x.baby == y.baby)
          << "n1 " << n1 << " term " << i;
    }
  };
  std::vector<double> kernel(36);
  for (std::size_t i = 0; i < kernel.size(); ++i) kernel[i] = i % 4 == 1 ? 0.0 : 0.5;
  const fhe::LtSchedule conv_fan = conv_schedule(kernel, 0);
  for (int n1 = 0; n1 <= 4; ++n1)
    expect_same(fhe::split_schedule(conv_fan, n1, 16), conv_schedule(kernel, n1), n1);

  // A 5 x 12 matmul over two 8-slot dense blocks.
  smartpaf::Stage st;
  std::vector<double> w(5 * 12);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = i % 3 == 0 ? 0.0 : 0.1 * (i % 7);
  st.op = smartpaf::MatMulStage{5, 12, w, {}};
  const auto in = smartpaf::StageLayout::dense(12, 8);
  const auto out = smartpaf::StageLayout::dense(5, 8);
  const auto mm = [&](int n1) { return smartpaf::stage_transform(st, in, out, n1, 8, 8)->schedule; };
  const fhe::LtSchedule mm_fan = mm(0);
  EXPECT_EQ(mm_fan.blocks_in, 2);
  for (int n1 = 0; n1 <= 12; ++n1) expect_same(fhe::split_schedule(mm_fan, n1, 1), mm(n1), n1);
}

TEST(LtSchedule, GeneratorsRejectTilesTheMasksCannotRepeatOn) {
  // Masks write slot (at mod tile) of every tile: the tile must divide the
  // slot count and hold a whole matmul block or conv channel block.
  smartpaf::Stage mm;
  mm.op = smartpaf::MatMulStage{5, 12, std::vector<double>(60, 0.5), {}};
  const auto in = smartpaf::StageLayout::dense(12, 8);
  const auto out = smartpaf::StageLayout::dense(5, 8);
  EXPECT_NO_THROW(smartpaf::stage_transform(mm, in, out, 1, 8, 16));
  EXPECT_THROW(smartpaf::stage_transform(mm, in, out, 1, 12, 16), sp::Error);  // 12 ∤ 16
  EXPECT_THROW(smartpaf::stage_transform(mm, in, out, 1, 32, 16), sp::Error);  // > slots
  EXPECT_THROW(smartpaf::stage_transform(mm, in, out, 1, 4, 16), sp::Error);   // 8-wide block

  smartpaf::Stage cv;
  cv.op = smartpaf::ConvStage{2, 2, 4, 4, 3, 1, std::vector<double>(36, 0.25), {}};
  const auto grid_in = smartpaf::StageLayout::grid(2, 4, 4, 16, 4, 1, 32);
  const auto grid_out = smartpaf::StageLayout::grid(2, 2, 2, 16, 4, 1, 32);
  EXPECT_NO_THROW(smartpaf::stage_transform(cv, grid_in, grid_out, 0, 32, 64));
  // Two 16-slot channel planes per block span 32 slots: a 16-slot tile is short.
  EXPECT_THROW(smartpaf::stage_transform(cv, grid_in, grid_out, 0, 16, 64), sp::Error);
}

// ------------------------------------------------------ golden digests ------

std::uint64_t digest(const std::vector<fhe::Ciphertext>& cts) {
  std::uint64_t h = kFnvOffset;
  for (const fhe::Ciphertext& ct : cts) {
    h = fnv_double(h, ct.scale);
    for (const fhe::RnsPoly& p : ct.parts)
      for (int r = 0; r < p.row_count(); ++r)
        for (std::size_t i = 0; i < p.n(); ++i) h = fnv_mix(h, p.row(r)[i]);
  }
  return h;
}

void expect_pin(const char* name, const std::vector<fhe::Ciphertext>& out,
                const fhe::OpCounters& d) {
  const Pin got{name,
                digest(out),
                d.rotations.load(),
                d.hoisted_rotations.load(),
                d.plain_mults.load(),
                d.rescales.load(),
                d.adds.load(),
                d.ct_mults.load(),
                d.relins.load()};
  char row[256];
  std::snprintf(row, sizeof(row),
                "    {\"%s\", 0x%016" PRIx64 "ULL, %zu, %zu, %zu, %zu, %zu, %zu, %zu},",
                got.name, got.digest, got.rotations, got.hoisted, got.plain_mults,
                got.rescales, got.adds, got.ct_mults, got.relins);
  const Pin* want = nullptr;
  for (const Pin& p : kPins)
    if (std::string(p.name) == name) want = &p;
  ASSERT_NE(want, nullptr) << "no pin for " << name << "; observed:\n" << row;
  EXPECT_EQ(got.digest, want->digest) << "observed:\n" << row;
  EXPECT_EQ(got.rotations, want->rotations) << name;
  EXPECT_EQ(got.hoisted, want->hoisted) << name;
  EXPECT_EQ(got.plain_mults, want->plain_mults) << name;
  EXPECT_EQ(got.rescales, want->rescales) << name;
  EXPECT_EQ(got.adds, want->adds) << name;
  EXPECT_EQ(got.ct_mults, want->ct_mults) << name;
  EXPECT_EQ(got.relins, want->relins) << name;
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed, double mag = 1.0) {
  sp::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-mag, mag);
  return v;
}

/// Mints the plan's keys up front, encrypts `logical` under the input
/// layout, runs the plan and checks the pin.
void run_pinned(const char* name, smartpaf::FheRuntime& rt,
                const smartpaf::FhePipeline& pipe, const smartpaf::Plan& plan,
                const std::vector<double>& logical) {
  (void)rt.rotation_keys(plan.rotation_steps());
  const std::size_t slots = rt.ctx().slot_count();
  std::vector<fhe::Ciphertext> in;
  if (plan.pack_stride != 0) {
    in.push_back(rt.encrypt(logical));  // caller packed the tiles already
  } else {
    const auto layouts = pipe.stage_layouts(slots);
    for (const auto& b : smartpaf::pack_layout(logical, layouts.front().first, slots))
      in.push_back(rt.encrypt(b));
  }
  fhe::Evaluator& ev = rt.evaluator();
  const fhe::OpCounters before = ev.counters;
  const std::vector<fhe::Ciphertext> out = pipe.run_blocks(rt, plan, in);
  expect_pin(name, out, ev.counters.delta_since(before));
}

smartpaf::Plan plan_of(const smartpaf::FhePipeline& pipe, const fhe::CkksContext& ctx,
                       const smartpaf::PlanOptions& opts = {}) {
  return smartpaf::Planner::plan(pipe, ctx, smartpaf::CostModel::heuristic(), opts);
}

TEST(LinearTransformPins, WindowHoistedAndNaive) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 2, 40), /*seed=*/501);
  const auto pipe = smartpaf::FhePipeline::builder()
                        .window({0.5, -0.25, 0.0, 0.125, 0.3}, 0.1)
                        .build();
  const auto x = random_values(rt.ctx().slot_count(), 1);
  for (const bool hoist : {true, false}) {
    smartpaf::PlanOptions opts;
    opts.force_hoist = hoist;
    run_pinned(hoist ? "window_hoisted" : "window_naive", rt, pipe,
               plan_of(pipe, rt.ctx(), opts), x);
  }
}

TEST(LinearTransformPins, Compact) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 2, 40), /*seed=*/502);
  const auto pipe =
      smartpaf::FhePipeline::builder().input_width(64).compact(4).build();
  run_pinned("compact", rt, pipe, plan_of(pipe, rt.ctx()), random_values(64, 2));
}

TEST(LinearTransformPins, SingleBlockMatmulPlannedAndForced) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 2, 40), /*seed=*/503);
  const int rows = 24, cols = 40;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(cols)
                        .matmul(rows, cols, random_values(rows * cols, 3, 0.5),
                                random_values(rows, 4))
                        .build();
  const auto x = random_values(cols, 5);
  const auto planned = plan_of(pipe, rt.ctx());
  EXPECT_GT(planned.stages[0].n1, 1);
  run_pinned("matmul_planned", rt, pipe, planned, x);
  smartpaf::PlanOptions opts;
  opts.force_n1 = 1;
  run_pinned("matmul_n1_1", rt, pipe, plan_of(pipe, rt.ctx(), opts), x);
}

TEST(LinearTransformPins, PackedMatmul) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 2, 40), /*seed=*/504);
  const int rows = 12, cols = 20;
  const std::size_t stride = 256;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(cols)
                        .matmul(rows, cols, random_values(rows * cols, 6, 0.5),
                                random_values(rows, 7))
                        .build();
  smartpaf::PlanOptions opts;
  opts.pack_stride = stride;
  std::vector<double> flat(rt.ctx().slot_count(), 0.0);
  for (std::size_t base = 0; base < flat.size(); base += stride) {
    const auto req = random_values(cols, 8 + base);
    for (int j = 0; j < cols; ++j) flat[base + static_cast<std::size_t>(j)] = req[j];
  }
  run_pinned("matmul_packed", rt, pipe, plan_of(pipe, rt.ctx(), opts), flat);
}

TEST(LinearTransformPins, ConvFanAndBsgs) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 2, 40), /*seed=*/505);
  const int ch = 8, img = 10, k = 3;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_grid({ch, img, img})
                        .conv(ch, ch, img, img, k, 1,
                              random_values(ch * ch * k * k, 9, 1.5 / (k * k * 3.0)),
                              random_values(ch, 10))
                        .build();
  const auto x = random_values(ch * img * img, 11);
  smartpaf::PlanOptions fan;
  fan.force_n1 = 0;
  run_pinned("conv_fan", rt, pipe, plan_of(pipe, rt.ctx(), fan), x);
  const auto bsgs = plan_of(pipe, rt.ctx());
  EXPECT_GT(bsgs.stages[0].n1, 0);
  run_pinned("conv_bsgs", rt, pipe, bsgs, x);
}

/// lenet_small with deg-3 test PAFs at a frozen scale of 2 (four linear
/// levels plus two deg-3 activations fit a 12-level chain).
smartpaf::FhePipeline lenet_pipeline() {
  models::LenetConfig cfg;
  cfg.seed = 6;
  nn::Model model = models::lenet_small(cfg);
  for (const auto& site : smartpaf::find_nonpoly_sites(model)) {
    sp::Rng rng(43 + site.index);
    std::vector<double> c(4, 0.0);
    for (int j = 1; j <= 3; j += 2) c[static_cast<std::size_t>(j)] = rng.uniform(-1.0, 1.0) / 6.0;
    smartpaf::replace_site(model, site,
                           approx::CompositePaf("deg3", {approx::Polynomial(c)}),
                           smartpaf::ScaleMode::Dynamic);
  }
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);
  return smartpaf::FhePipeline::lower(
      model, smartpaf::GridShape{cfg.in_channels, cfg.image, cfg.image});
}

TEST(LinearTransformPins, LenetSingleCiphertext) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 12, 40), /*seed=*/506);
  const auto pipe = lenet_pipeline();
  run_pinned("lenet_1ct", rt, pipe, plan_of(pipe, rt.ctx()), random_values(144, 12));
}

TEST(LinearTransformPins, LenetFourBlocks) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(512, 12, 40), /*seed=*/507);
  const auto pipe = lenet_pipeline();
  const auto plan = plan_of(pipe, rt.ctx());
  EXPECT_EQ(plan.stages[0].layout_out.blocks, 4);
  run_pinned("lenet_4ct", rt, pipe, plan, random_values(144, 13));
}

TEST(LinearTransformPins, ColumnSplitMatmul) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(512, 2, 40), /*seed=*/508);
  const int rows = 10, cols = 320;
  const auto pipe = smartpaf::FhePipeline::builder()
                        .input_width(cols)
                        .matmul(rows, cols, random_values(rows * cols, 14, 0.2),
                                random_values(rows, 15))
                        .build();
  const auto plan = plan_of(pipe, rt.ctx());
  EXPECT_EQ(plan.stages[0].layout_in.blocks, 2);
  run_pinned("matmul_320_split", rt, pipe, plan, random_values(cols, 16));
}

TEST(LinearTransformPins, EncryptedMatrixForwardAndTranspose) {
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 4, 40), /*seed=*/509);
  train::TrainConfig cfg;
  cfg.features = 5;
  cfg.batch = 8;
  cfg.iterations = 1;
  const train::TrainPlan plan = train::TrainPlan::plan(cfg, rt.ctx());
  const auto gk = rt.rotation_keys(plan.rotation_steps());

  train::MiniBatch mb;
  mb.x = random_values(static_cast<std::size_t>(cfg.batch * cfg.features), 17);
  for (int i = 0; i < cfg.batch; ++i) mb.y.push_back(i % 2);
  const train::EncryptedBatch batch = train::EncryptedBatch::pack(mb, plan, rt);
  const fhe::Ciphertext w = rt.encrypt(random_values(cfg.features, 18));
  const fhe::Ciphertext err = rt.encrypt(random_values(cfg.batch, 19));

  fhe::Evaluator& ev = rt.evaluator();
  fhe::OpCounters before = ev.counters;
  const fhe::Ciphertext z = batch.forward.apply(ev, w, *gk, rt.relin_key());
  expect_pin("encmat_forward", {z}, ev.counters.delta_since(before));
  before = ev.counters;
  const fhe::Ciphertext g = batch.gradient.apply(ev, err, *gk, rt.relin_key());
  expect_pin("encmat_transpose", {g}, ev.counters.delta_since(before));
}

}  // namespace
