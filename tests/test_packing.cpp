// Client-side slot packing net: pack/unpack round-trips, per-request parity
// of a packed pipeline against each request evaluated alone, amortization of
// the op counters (whole-ciphertext costs must NOT scale with the batch) and
// the planner's pack-stride bound. A client that shares one ciphertext
// between its requests makes exactly these calls: Encoder::pack_slots ->
// encrypt -> Planner::plan with PlanOptions::pack_stride -> FhePipeline::run
// -> decrypt -> Encoder::unpack_slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace {

using namespace sp;
using namespace sp::fhe;

const double kParityTol = std::ldexp(1.0, -20);
const double kInputScale = 2.0;

/// Odd degree-7 single-stage PAF: depth 3, so window(1) + relu(3+2) fits the
/// depth-6 test chain with room to spare.
approx::CompositePaf test_paf() {
  sp::Rng rng(41);
  std::vector<double> c(8, 0.0);
  for (int k = 1; k <= 7; k += 2) c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 8.0;
  return approx::CompositePaf("deg7", {approx::Polynomial(c)});
}

std::vector<std::vector<double>> random_batch(int count, int len, std::uint64_t seed,
                                              double lo = -1.0, double hi = 1.0) {
  sp::Rng rng(seed);
  std::vector<std::vector<double>> batch(static_cast<std::size_t>(count));
  for (auto& v : batch) {
    v.resize(static_cast<std::size_t>(len));
    for (auto& x : v) x = rng.uniform(lo, hi);
  }
  return batch;
}

/// Optional pre-activation window, then PAF-ReLU.
smartpaf::FhePipeline activation(const std::vector<double>& window = {}) {
  smartpaf::FhePipeline::Builder builder = smartpaf::FhePipeline::builder();
  if (!window.empty()) builder.window(window);
  return builder.paf_relu(test_paf(), kInputScale).build();
}

class PackedPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 6, 40),
                                                 /*seed=*/2027);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  struct Packed {
    std::vector<std::vector<double>> outputs;  ///< per request, `stride` values each
    double max_error = 0.0;  ///< worst slot against reference(flat, stride)
    OpCounters ops;          ///< evaluator tally of the one pipeline run
  };

  /// Packs `inputs` at `stride`, runs `pipe` once over the packed ciphertext
  /// and unpacks the per-request outputs.
  static Packed run_packed(const smartpaf::FhePipeline& pipe,
                           const std::vector<std::vector<double>>& inputs,
                           std::size_t stride) {
    smartpaf::PlanOptions popts;
    popts.pack_stride = stride;
    const smartpaf::Plan plan =
        smartpaf::Planner::plan(pipe, rt_->ctx(), smartpaf::CostModel::heuristic(), popts);
    const std::vector<double> flat =
        Encoder::pack_slots(inputs, stride, rt_->ctx().slot_count());
    const Ciphertext packed = rt_->encrypt(flat);
    const OpCounters before = rt_->evaluator().counters;
    const Ciphertext out = pipe.run(*rt_, plan, packed);

    Packed res;
    res.ops = rt_->evaluator().counters.delta_since(before);
    const std::vector<double> got = rt_->decrypt(out);
    res.outputs = Encoder::unpack_slots(got, stride, inputs.size());
    const std::vector<double> ref = pipe.reference(flat, plan.pack_stride);
    for (std::size_t i = 0; i < inputs.size() * stride; ++i)
      res.max_error = std::max(res.max_error, std::abs(got[i] - ref[i]));
    return res;
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> PackedPipelineTest::rt_;

TEST(BatchPacking, PackUnpackIdentity) {
  const std::size_t slots = 1024;
  for (int b : {1, 2, static_cast<int>(slots) / 2}) {
    const std::size_t stride = slots / static_cast<std::size_t>(b);
    const auto inputs = random_batch(b, static_cast<int>(stride), 100 + static_cast<std::uint64_t>(b));
    const std::vector<double> flat = Encoder::pack_slots(inputs, stride, slots);
    ASSERT_EQ(flat.size(), slots);
    const auto back = Encoder::unpack_slots(flat, stride, static_cast<std::size_t>(b));
    ASSERT_EQ(back.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i)
      EXPECT_EQ(back[i], inputs[i]) << "B=" << b << " request " << i;
  }
}

TEST(BatchPacking, ShortInputsZeroPadAndSliceLen) {
  const auto flat = Encoder::pack_slots({{1.0, 2.0}, {3.0}}, 4, 16);
  const std::vector<double> expect = {1, 2, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(flat, expect);
  const auto sliced = Encoder::unpack_slots(flat, 4, 2, 2);
  EXPECT_EQ(sliced[0], (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(sliced[1], (std::vector<double>{3.0, 0.0}));
}

TEST(BatchPacking, RejectsOversizedBatch) {
  EXPECT_THROW(Encoder::pack_slots(random_batch(3, 4, 1), 4, 8), sp::Error);
  EXPECT_THROW(Encoder::pack_slots({{1.0, 2.0}}, 1, 8), sp::Error);
}

TEST_F(PackedPipelineTest, PackedReluMatchesEachRequestAlone) {
  // Each request's packed slice must agree with evaluating that request
  // alone through the plain PafEvaluator path (its own ciphertext).
  const int input_size = static_cast<int>(rt_->ctx().slot_count()) / 4;
  const auto inputs = random_batch(4, input_size, 7, -2.0, 2.0);
  const Packed res = run_packed(activation(), inputs, static_cast<std::size_t>(input_size));
  ASSERT_EQ(res.outputs.size(), 4u);
  EXPECT_LT(res.max_error, kParityTol);

  for (std::size_t b = 0; b < inputs.size(); ++b) {
    const Ciphertext alone = rt_->encrypt(inputs[b]);
    const Ciphertext out =
        rt_->paf_evaluator().relu(rt_->evaluator(), alone, test_paf(), kInputScale);
    const std::vector<double> unbatched = rt_->decrypt(out);
    double worst = 0.0;
    for (int j = 0; j < input_size; ++j)
      worst = std::max(worst, std::abs(res.outputs[b][static_cast<std::size_t>(j)] -
                                       unbatched[static_cast<std::size_t>(j)]));
    EXPECT_LT(worst, kParityTol) << "request " << b;
  }
}

TEST_F(PackedPipelineTest, PackedWindowMatchesPlaintextReference) {
  const int input_size = static_cast<int>(rt_->ctx().slot_count()) / 8;
  const Packed res = run_packed(activation({0.5, 0.3, 0.2}),
                                random_batch(8, input_size, 8, -2.0, 2.0),
                                static_cast<std::size_t>(input_size));
  EXPECT_LT(res.max_error, kParityTol);
  // The fan ran hoisted: one decomposition, window-1 rotations.
  EXPECT_EQ(res.ops.rotations.load(), 2u);
  EXPECT_EQ(res.ops.hoisted_rotations.load(), 2u);
}

TEST_F(PackedPipelineTest, CountersAmortizeAcrossBatchSizes) {
  // The whole point of packing: per-ciphertext op counts are independent of
  // B, so the per-input figures shrink as 1/B instead of staying flat.
  const auto slots = static_cast<int>(rt_->ctx().slot_count());
  const smartpaf::FhePipeline pipe = activation({0.25, 0.25, 0.25, 0.25});
  const Packed one = run_packed(pipe, random_batch(1, slots, 9), static_cast<std::size_t>(slots));
  const Packed eight = run_packed(pipe, random_batch(8, slots / 8, 10),
                                  static_cast<std::size_t>(slots / 8));

  // Identical whole-ciphertext schedule regardless of batch size...
  EXPECT_EQ(eight.ops.ct_mults.load(), one.ops.ct_mults.load());
  EXPECT_EQ(eight.ops.relins.load(), one.ops.relins.load());
  EXPECT_EQ(eight.ops.rescales.load(), one.ops.rescales.load());
  EXPECT_EQ(eight.ops.rotations.load(), one.ops.rotations.load());

  // ...so the amortized per-input counters divide by 8 exactly.
  const OpCountersPerInput per1 = per_input(one.ops, 1);
  const OpCountersPerInput per8 = per_input(eight.ops, 8);
  EXPECT_DOUBLE_EQ(per8.rotations, per1.rotations / 8.0);
  EXPECT_DOUBLE_EQ(per8.relins, per1.relins / 8.0);
  EXPECT_DOUBLE_EQ(per8.ct_mults, per1.ct_mults / 8.0);
}

TEST_F(PackedPipelineTest, PlannerRejectsPackStrideWiderThanSlots) {
  // A stride past the slot count would leave no room for one request; the
  // planner must fail with a diagnostic naming both numbers.
  const std::size_t slots = rt_->ctx().slot_count();
  smartpaf::PlanOptions popts;
  popts.pack_stride = slots + 1;
  bool rejected = false;
  try {
    smartpaf::Planner::plan(activation(), rt_->ctx(), smartpaf::CostModel::heuristic(), popts);
  } catch (const sp::Error& e) {
    rejected = true;
    const std::string msg = e.what();
    EXPECT_NE(msg.find(std::to_string(slots + 1)), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::to_string(slots)), std::string::npos) << msg;
  }
  EXPECT_TRUE(rejected);
  // The boundary case still plans: exactly one request fits.
  popts.pack_stride = slots;
  const smartpaf::Plan full =
      smartpaf::Planner::plan(activation(), rt_->ctx(), smartpaf::CostModel::heuristic(), popts);
  EXPECT_EQ(full.pack_stride, slots);
}

}  // namespace
