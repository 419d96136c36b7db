#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/check.h"
#include "nn/layers.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using approx::PafForm;

/// Shared small runtime: N=4096 with enough depth for the deepest PAF
/// (alpha=10 needs 10 + 2 extra levels for the ReLU wrapper).
class DeployTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fhe::CkksParams params = fhe::CkksParams::for_depth(4096, 13, 30);
    params.q_bits[0] = 50;
    params.special_bits = 50;
    rt_ = std::make_unique<smartpaf::FheRuntime>(params);
  }
  static void TearDownTestSuite() { rt_.reset(); }
  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> DeployTest::rt_;

TEST_F(DeployTest, EncryptDecryptRoundTrip) {
  std::vector<double> v(rt_->ctx().slot_count());
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.001 * static_cast<double>(i % 100) - 0.05;
  const auto ct = rt_->encrypt(v);
  const auto back = rt_->decrypt(ct);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(back[i], v[i], 1e-4);
}

class DeployFormTest : public DeployTest,
                       public ::testing::WithParamInterface<PafForm> {};

TEST_P(DeployFormTest, HomomorphicCompositeMatchesPlaintext) {
  const auto paf = approx::make_paf(GetParam());
  std::vector<double> v(rt_->ctx().slot_count());
  sp::Rng rng(11);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const auto ct = rt_->encrypt(v);
  const auto out = rt_->paf_evaluator().eval_composite(rt_->evaluator(), ct, paf);
  const auto got = rt_->decrypt(out);
  double worst = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    worst = std::max(worst, std::abs(got[i] - paf(v[i])));
  EXPECT_LT(worst, 2e-2) << approx::form_name(GetParam());
}

TEST_P(DeployFormTest, LevelsConsumedEqualsTable2Depth) {
  // The reproduction of Table 2 at the ciphertext level: homomorphic
  // evaluation must consume exactly the multiplication depth the paper
  // reports for each form.
  const PafForm form = GetParam();
  const auto paf = approx::make_paf(form);
  std::vector<double> v(rt_->ctx().slot_count(), 0.3);
  const auto ct = rt_->encrypt(v);
  const auto out = rt_->paf_evaluator().eval_composite(rt_->evaluator(), ct, paf);
  EXPECT_EQ(ct.level() - out.level(), approx::paper_mult_depth(form))
      << approx::form_name(form);
}

INSTANTIATE_TEST_SUITE_P(AllForms, DeployFormTest,
                         ::testing::ValuesIn(approx::all_forms()),
                         [](const ::testing::TestParamInfo<PafForm>& info) {
                           std::string n = approx::form_name(info.param);
                           for (auto& c : n)
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

TEST_F(DeployTest, EncryptedPafReluMatchesPlaintext) {
  const auto paf = approx::make_paf(PafForm::ALPHA7);
  const double scale = 5.0;
  const auto res = smartpaf::measure_paf_relu(*rt_, paf, scale, /*repeats=*/1);
  EXPECT_LT(res.max_error, 0.05);
  EXPECT_GT(res.ms_median, 0.0);
  // Under lazy relinearization some window products defer their relin to a
  // shared join, so relins never exceed mults.
  EXPECT_LE(res.stats.relins.load(), res.stats.ct_mults.load());
}

TEST_F(DeployTest, MeasurePafReluRejectsZeroRepeats) {
  // No repeat means no latency sample and no result to check: an error that
  // names the value, not a median of nothing.
  std::string msg;
  try {
    smartpaf::measure_paf_relu(*rt_, approx::make_paf(PafForm::F1_G2), 2.0, /*repeats=*/0);
  } catch (const sp::Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find("repeats must be >= 1, got 0"), std::string::npos) << "'" << msg << "'";
}

TEST_F(DeployTest, ReluLevelsAreDepthPlusTwo) {
  // relu = input scaling (1 level) + composite (depth) + final product (1).
  const auto paf = approx::make_paf(PafForm::F1_G2);
  std::vector<double> v(rt_->ctx().slot_count(), 1.0);
  const auto ct = rt_->encrypt(v);
  const auto out = rt_->paf_evaluator().relu(rt_->evaluator(), ct, paf, 2.0);
  EXPECT_EQ(ct.level() - out.level(), approx::paper_mult_depth(PafForm::F1_G2) + 2);
}

TEST_F(DeployTest, EncryptedMaxMatchesPlaintext) {
  const auto paf = approx::make_paf(PafForm::ALPHA10_D27);
  std::vector<double> a(rt_->ctx().slot_count()), b(rt_->ctx().slot_count());
  sp::Rng rng(13);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform(-2.0, 2.0);
    b[i] = rng.uniform(-2.0, 2.0);
  }
  const auto ca = rt_->encrypt(a);
  const auto cb = rt_->encrypt(b);
  const auto out = rt_->paf_evaluator().max(rt_->evaluator(), ca, cb, paf, 4.0);
  const auto got = rt_->decrypt(out);
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(got[i] - std::max(a[i], b[i])));
  EXPECT_LT(worst, 0.05);
}

TEST_F(DeployTest, ReportCountsPafCallsPerOutput) {
  // One ReLU, a window-3 1-D pool (2 pairwise maxes per output) and a 2 x 2
  // pool (3 per output). The model is never run; only its sites matter.
  auto seq = std::make_unique<nn::Sequential>();
  seq->add(std::make_unique<nn::ReLU>("relu"));
  seq->add(std::make_unique<nn::MaxPool1d>(3, "pool1d"));
  seq->add(std::make_unique<nn::MaxPool2d>(2, 2, 0, "pool2d"));
  nn::Model model(std::move(seq), "sites");
  smartpaf::ReplaceOptions opts;
  opts.form = PafForm::F1_G2;
  opts.mode = smartpaf::ScaleMode::Static;
  smartpaf::replace_all(model, opts);
  const auto rows = smartpaf::deployment_report(model, *rt_);
  ASSERT_EQ(rows.size(), 3u);
  const int calls[] = {1, 2, 3};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].paf_calls, calls[i]) << rows[i].path;
    EXPECT_GT(rows[i].ms, 0.0) << rows[i].path;
  }
}

TEST_F(DeployTest, DeeperPafsCostMoreMults) {
  auto mults = [&](PafForm form) {
    const auto paf = approx::make_paf(form);
    std::vector<double> v(rt_->ctx().slot_count(), 0.4);
    const auto ct = rt_->encrypt(v);
    const fhe::OpCounters before = rt_->evaluator().counters;
    rt_->paf_evaluator().eval_composite(rt_->evaluator(), ct, paf);
    return rt_->evaluator().counters.delta_since(before).ct_mults.load();
  };
  EXPECT_LT(mults(PafForm::F1_G2), mults(PafForm::ALPHA10_D27));
}

}  // namespace
