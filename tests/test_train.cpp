// Encrypted-training net: wide-range sigmoid / inverse-sqrt minimax fits
// (error pinned, odd symmetry, grid accuracy), ct x ct diagonal matvec
// parity vs the plaintext product (hoisted and naive, square and not),
// TrainPlan depth budgeting with the rejection diagnostic pinned, the
// plaintext-mirror range guard diagnostics, per-iteration encrypted-vs-
// mirror parity for SgdMomentum AND Adam, checkpoint/resume bit identity
// (resume and continue produces byte-identical state), restore validation,
// and the 2%-of-oracle accuracy gate on the two-Gaussian task.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "approx/presets.h"
#include "common/check.h"
#include "fhe/enc_matvec.h"
#include "train/checkpoint.h"
#include "train/reference.h"

namespace {

using namespace sp;
using fhe::CkksParams;

const double kParityTol = std::ldexp(1.0, -20);

/// Asserts `fn` throws sp::Error whose message contains `substr`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& substr) {
  bool threw = false;
  try {
    fn();
  } catch (const sp::Error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "message was: " << e.what();
  }
  EXPECT_TRUE(threw) << "expected sp::Error containing \"" << substr << "\"";
}

/// Shared 12-level runtime (3 SGD iterations x 4 levels/step): keygen once.
class TrainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(2048, 12, 40),
                                                 /*seed=*/99);
  }
  static void TearDownTestSuite() { rt_.reset(); }

  static train::TrainConfig sgd_config() {
    train::TrainConfig cfg;
    cfg.features = 4;
    cfg.batch = 8;
    cfg.iterations = 3;
    cfg.optimizer = train::Optimizer::SgdMomentum;
    cfg.lr = 0.5;
    return cfg;
  }

  static std::vector<train::MiniBatch> gaussian_batches(int batch) {
    data::TwoGaussianSpec spec;
    const data::TwoGaussianData ds = data::make_two_gaussian(spec);
    return train::make_batches(data::design_matrix(ds.train), batch);
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
};

std::unique_ptr<smartpaf::FheRuntime> TrainTest::rt_;

// ------------------------------------------------------------ minimax fits --

TEST(TrainFits, WideRangeSigmoidIsOddAroundHalfAndMeetsItsError) {
  for (const int degree : {3, 5}) {
    const approx::SigmoidPaf fit = approx::sigmoid_paf(degree, 8.0);
    EXPECT_EQ(fit.poly.degree(), degree);
    // sigma(z) + sigma(-z) = 1; the fit keeps that symmetry exactly
    // (odd-basis exchange plus the 0.5 constant).
    EXPECT_NEAR(fit.poly(0.0), 0.5, 1e-12);
    EXPECT_NEAR(fit.poly(3.0) + fit.poly(-3.0), 1.0, 1e-12);
    // The reported minimax error is real: never exceeded on a dense grid,
    // and attained somewhere (within grid resolution).
    double worst = 0.0;
    for (int i = -400; i <= 400; ++i) {
      const double z = 8.0 * i / 400.0;
      const double err = std::abs(fit.poly(z) - 1.0 / (1.0 + std::exp(-z)));
      worst = std::max(worst, err);
    }
    EXPECT_LE(worst, fit.max_error * (1.0 + 1e-6));
    EXPECT_GE(worst, fit.max_error * 0.98);
  }
  // Calibrated: deg 3 on [-8, 8] lands near 0.09; more degree or a narrower
  // range always fits tighter.
  EXPECT_NEAR(approx::sigmoid_paf(3, 8.0).max_error, 0.0895, 5e-3);
  EXPECT_LT(approx::sigmoid_paf(5, 8.0).max_error,
            approx::sigmoid_paf(3, 8.0).max_error);
  EXPECT_LT(approx::sigmoid_paf(3, 4.0).max_error,
            approx::sigmoid_paf(3, 8.0).max_error);
}

TEST(TrainFits, InvSqrtFitCoversItsDomain) {
  const approx::InvSqrtPaf fit = approx::invsqrt_paf(5, 1.0, 0.1);
  EXPECT_EQ(fit.poly.degree(), 5);
  EXPECT_LT(fit.max_error, 0.03);
  double worst = 0.0;
  for (int i = 0; i <= 400; ++i) {
    const double v = i / 400.0;
    worst = std::max(worst, std::abs(fit.poly(v) - 1.0 / std::sqrt(v + 0.1)));
  }
  EXPECT_LE(worst, fit.max_error * (1.0 + 1e-6));
}

// --------------------------------------------------------- ct x ct matvec --

TEST_F(TrainTest, EncDiagMatVecMatchesPlaintextProduct) {
  sp::Rng rng(404);
  for (const auto& [rows, cols] : {std::pair{8, 4}, std::pair{4, 8}, std::pair{5, 5}}) {
    std::vector<double> w(static_cast<std::size_t>(rows) * cols);
    std::vector<double> x(static_cast<std::size_t>(cols));
    for (auto& v : w) v = rng.uniform(-1.0, 1.0);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);

    std::vector<int> steps;
    for (int s = -(rows - 1); s <= cols - 1; ++s) steps.push_back(s);
    const fhe::LtSchedule plan =
        fhe::diagonal_schedule(steps, fhe::fewest_rotations_n1(steps, rows + cols));
    const auto gk = rt_->rotation_keys(plan.steps());

    const fhe::EncDiagMatVec enc =
        fhe::EncDiagMatVec::encrypt(rt_->ctx(), rt_->encoder(), rt_->encryptor(), plan,
                                    w, rows, cols, 0, rt_->ctx().scale());
    fhe::Ciphertext vx = rt_->encrypt(x);
    const fhe::Ciphertext y = enc.apply(rt_->evaluator(), vx, *gk, rt_->relin_key());

    const std::vector<double> got = rt_->decrypt(y);
    for (int i = 0; i < rows; ++i) {
      double want = 0.0;
      for (int j = 0; j < cols; ++j)
        want += w[static_cast<std::size_t>(i) * cols + j] * x[static_cast<std::size_t>(j)];
      EXPECT_NEAR(got[static_cast<std::size_t>(i)], want, kParityTol)
          << rows << "x" << cols << " row " << i;
    }
    EXPECT_EQ(y.level(), vx.level() - 1);
  }
}

TEST_F(TrainTest, TransposePlanMultipliesByTheTranspose) {
  // Pack X^T's extended diagonals directly (the forward steps negated) and
  // check the product equals X^T e — the trainer's gradient path, no
  // repacking.
  sp::Rng rng(405);
  const int rows = 8, cols = 4;  // X is rows x cols; X^T is cols x rows
  std::vector<double> xmat(static_cast<std::size_t>(rows) * cols);
  std::vector<double> e(static_cast<std::size_t>(rows));
  for (auto& v : xmat) v = rng.uniform(-1.0, 1.0);
  for (auto& v : e) v = rng.uniform(-1.0, 1.0);

  std::vector<int> tsteps;
  for (int s = -(cols - 1); s <= rows - 1; ++s) tsteps.push_back(s);
  const fhe::LtSchedule plan =
      fhe::diagonal_schedule(tsteps, fhe::fewest_rotations_n1(tsteps, cols + rows));

  std::vector<double> xt(static_cast<std::size_t>(cols) * rows);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      xt[static_cast<std::size_t>(j) * rows + i] = xmat[static_cast<std::size_t>(i) * cols + j];

  const auto gk = rt_->rotation_keys(plan.steps());
  const fhe::EncDiagMatVec enc =
      fhe::EncDiagMatVec::encrypt(rt_->ctx(), rt_->encoder(), rt_->encryptor(), plan,
                                  xt, cols, rows, 0, rt_->ctx().scale());
  const std::vector<double> got =
      rt_->decrypt(enc.apply(rt_->evaluator(), rt_->encrypt(e), *gk, rt_->relin_key()));
  for (int j = 0; j < cols; ++j) {
    double want = 0.0;
    for (int i = 0; i < rows; ++i)
      want += xmat[static_cast<std::size_t>(i) * cols + j] * e[static_cast<std::size_t>(i)];
    EXPECT_NEAR(got[static_cast<std::size_t>(j)], want, kParityTol) << "col " << j;
  }
}

// ------------------------------------------------------------ plan budget --

TEST_F(TrainTest, PlanBudgetsLevelsAndDescribes) {
  const train::TrainPlan plan = train::TrainPlan::plan(sgd_config(), rt_->ctx());
  EXPECT_EQ(plan.levels_per_step, 4);  // matvec + deg-3 sigmoid + matvec
  EXPECT_EQ(plan.levels_used, 12);
  EXPECT_EQ(plan.chain_levels, 12);
  ASSERT_EQ(plan.per_step.size(), 3u);
  EXPECT_EQ(plan.per_step[1].label, "sigmoid PAF deg 3");
  EXPECT_EQ(plan.per_step[1].levels, 2);
  EXPECT_FALSE(plan.rotation_steps().empty());

  const std::string desc = plan.describe();
  EXPECT_NE(desc.find("3 iterations of sgd-momentum"), std::string::npos);
  EXPECT_NE(desc.find("12/12 levels"), std::string::npos);
  EXPECT_NE(desc.find("sigmoid deg 3"), std::string::npos);

  train::TrainConfig adam = sgd_config();
  adam.optimizer = train::Optimizer::Adam;
  adam.iterations = 1;
  const train::TrainPlan aplan = train::TrainPlan::plan(adam, rt_->ctx());
  EXPECT_EQ(aplan.levels_per_step, 10);  // + g^2, blend, deg-5 invsqrt, product
  EXPECT_NE(aplan.describe().find("invsqrt deg 5"), std::string::npos);
}

TEST_F(TrainTest, PlanRejectsWithPerStepBreakdown) {
  train::TrainConfig cfg = sgd_config();
  cfg.iterations = 4;  // 16 levels > the chain's 12
  expect_error_containing(
      [&] { train::TrainPlan::plan(cfg, rt_->ctx()); },
      "train: plan needs 16 levels (4 iterations x 4 levels/step) but the "
      "chain has 12");
  expect_error_containing([&] { train::TrainPlan::plan(cfg, rt_->ctx()); },
                          "sigmoid PAF deg 3: 2");
  expect_error_containing(
      [&] { train::TrainPlan::plan(cfg, rt_->ctx()); },
      "use a deeper prime chain, fewer iterations or a shallower PAF");
}

TEST_F(TrainTest, RangeGuardNamesTheViolation) {
  const std::vector<train::MiniBatch> batches = gaussian_batches(8);
  // A sigmoid fitted on [-0.5, 0.5] cannot absorb the second iteration's
  // pre-activations once the first update moved the weights.
  train::TrainConfig cfg = sgd_config();
  cfg.sigmoid_range = 0.5;
  cfg.lr = 4.0;
  const train::TrainPlan narrow = train::TrainPlan::plan(cfg, rt_->ctx());
  expect_error_containing([&] { train::check_sigmoid_range(narrow, batches); },
                          "outside the sigmoid PAF's fitted [-0.5, 0.5]");
  expect_error_containing([&] { train::check_sigmoid_range(narrow, batches); },
                          "wider sigmoid_range");

  // Adam: at t = 1 the bias-corrected vhat is g^2 exactly, so a tiny
  // vhat_max trips the invsqrt-domain guard.
  train::TrainConfig acfg = sgd_config();
  acfg.optimizer = train::Optimizer::Adam;
  acfg.iterations = 1;
  acfg.vhat_max = 0.001;
  const train::TrainPlan aplan = train::TrainPlan::plan(acfg, rt_->ctx());
  expect_error_containing([&] { train::check_sigmoid_range(aplan, batches); },
                          "outside the invsqrt PAF's fitted [0, 0.001]");

  // The real configs pass.
  train::check_sigmoid_range(train::TrainPlan::plan(sgd_config(), rt_->ctx()),
                             batches);
}

// --------------------------------------------------- per-iteration parity --

TEST_F(TrainTest, SgdMomentumTracksThePlaintextMirrorEveryIteration) {
  const train::TrainConfig cfg = sgd_config();
  const std::vector<train::MiniBatch> batches = gaussian_batches(cfg.batch);
  const train::TrainPlan plan = train::TrainPlan::plan(cfg, rt_->ctx());
  train::check_sigmoid_range(plan, batches);
  const train::ReferenceRun ref = train::reference_paf_run(plan, batches);

  train::EncryptedLogReg model(plan, *rt_);
  for (int t = 0; t < cfg.iterations; ++t) {
    model.step(train::EncryptedBatch::pack(
        batches[static_cast<std::size_t>(t) % batches.size()], plan, *rt_));
    const std::vector<double> w = model.weights();
    for (int j = 0; j < cfg.features; ++j)
      EXPECT_NEAR(w[static_cast<std::size_t>(j)],
                  ref.weights_per_iter[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(j)],
                  1e-5)
          << "iteration " << t << " weight " << j;
  }
  EXPECT_EQ(model.iteration(), 3u);

  // The plan's iterations are a hard budget: a fourth step must refuse.
  expect_error_containing(
      [&] { model.step(train::EncryptedBatch::pack(batches[0], plan, *rt_)); },
      "already spent");
}

TEST(TrainAdam, AdamTracksThePlaintextMirrorEveryIteration) {
  // 2 Adam iterations x 10 levels/step need their own 20-level chain.
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 20, 40), /*seed=*/98);
  train::TrainConfig cfg;
  cfg.features = 4;
  cfg.batch = 8;
  cfg.iterations = 2;
  cfg.optimizer = train::Optimizer::Adam;
  cfg.lr = 0.25;

  data::TwoGaussianSpec spec;
  const data::TwoGaussianData ds = data::make_two_gaussian(spec);
  const std::vector<train::MiniBatch> batches =
      train::make_batches(data::design_matrix(ds.train), cfg.batch);

  const train::TrainPlan plan = train::TrainPlan::plan(cfg, rt.ctx());
  train::check_sigmoid_range(plan, batches);
  const train::ReferenceRun ref = train::reference_paf_run(plan, batches);

  train::EncryptedLogReg model(plan, rt);
  for (int t = 0; t < cfg.iterations; ++t) {
    model.step(train::EncryptedBatch::pack(
        batches[static_cast<std::size_t>(t) % batches.size()], plan, rt));
    const std::vector<double> w = model.weights();
    for (int j = 0; j < cfg.features; ++j)
      EXPECT_NEAR(w[static_cast<std::size_t>(j)],
                  ref.weights_per_iter[static_cast<std::size_t>(t)]
                                      [static_cast<std::size_t>(j)],
                  1e-4)
          << "iteration " << t << " weight " << j;
  }
}

// ----------------------------------------------------- checkpoint / resume --

TEST_F(TrainTest, CheckpointResumeIsBitIdentical) {
  const train::TrainConfig cfg = sgd_config();
  const std::vector<train::MiniBatch> batches = gaussian_batches(cfg.batch);
  const train::TrainPlan plan = train::TrainPlan::plan(cfg, rt_->ctx());

  std::vector<train::EncryptedBatch> enc;
  for (int t = 0; t < cfg.iterations; ++t)
    enc.push_back(train::EncryptedBatch::pack(
        batches[static_cast<std::size_t>(t) % batches.size()], plan, *rt_));

  train::EncryptedLogReg model(plan, *rt_);
  model.step(enc[0]);
  model.step(enc[1]);

  // Round trip is byte-stable, twice over.
  const std::vector<std::uint8_t> ckpt =
      train::serialize_training_state(model.state());
  train::TrainingState restored = train::deserialize_training_state(ckpt, rt_->ctx());
  EXPECT_EQ(train::serialize_training_state(restored), ckpt);

  // Resume-and-continue reproduces the uninterrupted run bit for bit: the
  // restored ciphertext state is identical, and every homomorphic op is
  // deterministic.
  train::EncryptedLogReg resumed(plan, *rt_, std::move(restored));
  EXPECT_EQ(resumed.iteration(), 2u);
  model.step(enc[2]);
  resumed.step(enc[2]);
  EXPECT_EQ(train::serialize_training_state(model.state()),
            train::serialize_training_state(resumed.state()));
}

TEST_F(TrainTest, RestoreValidatesConfigAndBudget) {
  const train::TrainConfig cfg = sgd_config();
  const std::vector<train::MiniBatch> batches = gaussian_batches(cfg.batch);
  const train::TrainPlan plan = train::TrainPlan::plan(cfg, rt_->ctx());

  train::EncryptedLogReg model(plan, *rt_);
  model.step(train::EncryptedBatch::pack(batches[0], plan, *rt_));
  const std::vector<std::uint8_t> ckpt =
      train::serialize_training_state(model.state());

  // A checkpoint from a different config must not restore.
  train::TrainingState other = train::deserialize_training_state(ckpt, rt_->ctx());
  other.config.lr = 0.125;
  expect_error_containing(
      [&] { train::EncryptedLogReg bad(plan, *rt_, std::move(other)); },
      "checkpoint config does not match");

  // Nor one whose remaining chain cannot cover the steps ahead: claim no
  // step has happened yet while the weights already spent 4 levels.
  train::TrainingState rewound = train::deserialize_training_state(ckpt, rt_->ctx());
  rewound.iteration = 0;
  expect_error_containing(
      [&] { train::EncryptedLogReg bad(plan, *rt_, std::move(rewound)); },
      "levels left");

  // A velocity-less SgdMomentum checkpoint is malformed.
  train::TrainingState stripped = train::deserialize_training_state(ckpt, rt_->ctx());
  stripped.velocity.reset();
  expect_error_containing(
      [&] { train::EncryptedLogReg bad(plan, *rt_, std::move(stripped)); },
      "missing its velocity");
}

// ------------------------------------------------------- data + accuracy --

TEST(TrainData, TwoGaussianGeneratorIsDeterministicAndShaped) {
  data::TwoGaussianSpec spec;
  const data::TwoGaussianData a = data::make_two_gaussian(spec);
  const data::TwoGaussianData b = data::make_two_gaussian(spec);
  EXPECT_EQ(a.train.images.vec(), b.train.images.vec());
  EXPECT_EQ(a.test.labels, b.test.labels);
  EXPECT_EQ(a.train.images.dim(0), spec.train_count);
  EXPECT_EQ(a.train.images.dim(3), spec.features);

  double norm2 = 0.0;
  for (double v : a.direction) norm2 += v * v;
  EXPECT_NEAR(norm2, 1.0, 1e-12);

  const data::DesignMatrix dm = data::design_matrix(a.train);
  EXPECT_EQ(dm.rows, spec.train_count);
  EXPECT_EQ(dm.cols, spec.features);
  const std::vector<train::MiniBatch> batches = train::make_batches(dm, 24);
  EXPECT_EQ(batches.size(), 2u);  // 64 rows -> two full 24-row batches
  EXPECT_EQ(batches[0].x.size(), 24u * 4u);

  // A different seed draws a different task.
  data::TwoGaussianSpec other = spec;
  other.seed += 1;
  EXPECT_NE(data::make_two_gaussian(other).train.images.vec(), a.train.images.vec());
}

TEST_F(TrainTest, EncryptedAccuracyWithinTwoPercentOfOracle) {
  train::TrainConfig cfg = sgd_config();
  cfg.batch = 16;
  const data::TwoGaussianData ds = data::make_two_gaussian(data::TwoGaussianSpec{});
  const data::DesignMatrix test = data::design_matrix(ds.test);
  const std::vector<train::MiniBatch> batches =
      train::make_batches(data::design_matrix(ds.train), cfg.batch);

  const train::TrainPlan plan = train::TrainPlan::plan(cfg, rt_->ctx());
  train::check_sigmoid_range(plan, batches);
  train::EncryptedLogReg model(plan, *rt_);
  for (int t = 0; t < cfg.iterations; ++t)
    model.step(train::EncryptedBatch::pack(
        batches[static_cast<std::size_t>(t) % batches.size()], plan, *rt_));

  const train::OracleRun oracle = train::optim_oracle_run(plan, batches);
  const double enc_acc = train::binary_accuracy(model.weights(), test);
  const double oracle_acc =
      train::binary_accuracy(oracle.weights_per_iter.back(), test);
  EXPECT_GE(enc_acc, oracle_acc - 0.02)
      << "encrypted " << enc_acc << " vs oracle " << oracle_acc;
}

}  // namespace
