#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/layers.h"
#include "smartpaf/coefficient_tuning.h"
#include "smartpaf/scheduler.h"

namespace {

using namespace sp;
using approx::PafForm;
using nn::Tensor;
using namespace sp::smartpaf;

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed, double stddev = 1.0) {
  Tensor t(std::move(shape));
  sp::Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

TEST(PafActivation, ApproximatesReluWithGoodSignApprox) {
  // With the high-accuracy 27-degree PAF, the layer should track ReLU well.
  PafActivation layer(approx::make_paf(PafForm::ALPHA10_D27), "paf");
  Tensor x = random_tensor({2, 3, 4, 4}, 7);
  const Tensor y = layer.forward(x, /*train=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float expect = std::max(x[i], 0.0f);
    EXPECT_NEAR(y[i], expect, 0.05f * std::max(1.0f, std::abs(x[i])));
  }
}

TEST(PafActivation, DynamicScaleTracksRunningMax) {
  PafActivation layer(approx::make_paf(PafForm::F1_G2), "paf");
  Tensor x({4});
  x[0] = -3.0f;
  x[1] = 7.0f;
  x[2] = 0.5f;
  x[3] = -1.0f;
  layer.forward(x, /*train=*/true);
  EXPECT_FLOAT_EQ(layer.running_max(), 7.0f);
  x[1] = 2.0f;
  layer.forward(x, /*train=*/true);
  EXPECT_FLOAT_EQ(layer.running_max(), 7.0f);  // monotone
}

TEST(PafActivation, StaticConversionFreezesScale) {
  PafActivation layer(approx::make_paf(PafForm::F1_G2), "paf");
  Tensor x({2});
  x[0] = 4.0f;
  x[1] = -2.0f;
  layer.forward(x, /*train=*/true);
  layer.convert_to_static();
  EXPECT_EQ(layer.mode(), ScaleMode::Static);
  EXPECT_FLOAT_EQ(layer.static_scale(), 4.0f);
}

TEST(PafActivation, GradCheckInputAndCoeffs) {
  PafActivation layer(approx::make_paf(PafForm::F1_G2), "paf");
  layer.set_static_scale(2.0f);  // fixed scale so FD is smooth
  Tensor x = random_tensor({2, 8}, 17, 0.8);

  Tensor y = layer.forward(x, true);
  Tensor gy(y.shape());
  sp::Rng rng(3);
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = static_cast<float>(rng.uniform(-1, 1));
  std::vector<nn::Param*> ps;
  layer.collect_params(ps);
  ps[0]->grad.fill(0.0f);
  const Tensor gx = layer.backward(gy);

  auto loss = [&](const Tensor& xx) {
    const Tensor yy = layer.forward(const_cast<Tensor&>(xx), true);
    double acc = 0;
    for (std::size_t i = 0; i < yy.numel(); ++i) acc += gy[i] * yy[i];
    return acc;
  };
  const double h = 1e-3;
  for (std::size_t i = 0; i < x.numel(); i += 3) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(h);
    xm[i] -= static_cast<float>(h);
    EXPECT_NEAR(gx[i], (loss(xp) - loss(xm)) / (2 * h), 3e-2) << i;
  }
  // Coefficient gradients (odd slots only; even slots are masked).
  for (std::size_t k = 1; k < ps[0]->value.numel(); k += 2) {
    const float orig = ps[0]->value[k];
    ps[0]->value[k] = orig + static_cast<float>(h);
    const double lp = loss(x);
    ps[0]->value[k] = orig - static_cast<float>(h);
    const double lm = loss(x);
    ps[0]->value[k] = orig;
    EXPECT_NEAR(ps[0]->grad[k], (lp - lm) / (2 * h), 3e-2) << "coeff " << k;
  }
}

TEST(PafActivation, EvenCoeffGradsMasked) {
  PafActivation layer(approx::make_paf(PafForm::F1_G2), "paf");
  Tensor x = random_tensor({8}, 19);
  Tensor y = layer.forward(x, true);
  Tensor gy(y.shape());
  gy.fill(1.0f);
  layer.backward(gy);
  std::vector<nn::Param*> ps;
  layer.collect_params(ps);
  // Flat layout: stage coeffs ascending; even positions are even degrees.
  EXPECT_FLOAT_EQ(ps[0]->grad[0], 0.0f);
  EXPECT_FLOAT_EQ(ps[0]->grad[2], 0.0f);
}

TEST(PafMaxPool, ApproximatesMaxPoolWithGoodPaf) {
  PafMaxPool layer(approx::make_paf(PafForm::ALPHA10_D27), 2, 2, 0, "pmax");
  nn::MaxPool2d ref(2, 2);
  Tensor x = random_tensor({1, 2, 4, 4}, 23);
  const Tensor a = layer.forward(x, false);
  const Tensor b = ref.forward(x, false);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(a[i], b[i], 0.12f);
}

TEST(PafMaxPool, LowDegradePafIsWorseThanHighDegree) {
  // Error accumulation through the tournament: the low-degree PAF must show
  // larger max-pool error than the 27-degree one (paper §5.4.3).
  Tensor x = random_tensor({2, 3, 6, 6}, 29);
  nn::MaxPool2d ref(2, 2);
  const Tensor truth = ref.forward(x, false);
  auto err = [&](PafForm form) {
    PafMaxPool layer(approx::make_paf(form), 2, 2, 0, "pmax");
    const Tensor got = layer.forward(x, false);
    double worst = 0;
    for (std::size_t i = 0; i < got.numel(); ++i)
      worst = std::max(worst, static_cast<double>(std::abs(got[i] - truth[i])));
    return worst;
  };
  EXPECT_LT(err(PafForm::ALPHA10_D27), err(PafForm::F1_G2));
}

TEST(PafMaxPool, GradCheck) {
  PafMaxPool layer(approx::make_paf(PafForm::F1_G2), 2, 2, 0, "pmax");
  layer.set_static_scale(3.0f);
  Tensor x = random_tensor({1, 1, 4, 4}, 31);
  Tensor y = layer.forward(x, true);
  Tensor gy(y.shape());
  sp::Rng rng(5);
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = static_cast<float>(rng.uniform(-1, 1));
  std::vector<nn::Param*> ps;
  layer.collect_params(ps);
  ps[0]->grad.fill(0.0f);
  const Tensor gx = layer.backward(gy);

  auto loss = [&](const Tensor& xx) {
    const Tensor yy = layer.forward(const_cast<Tensor&>(xx), true);
    double acc = 0;
    for (std::size_t i = 0; i < yy.numel(); ++i) acc += gy[i] * yy[i];
    return acc;
  };
  const double h = 1e-3;
  for (std::size_t i = 0; i < x.numel(); i += 2) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(h);
    xm[i] -= static_cast<float>(h);
    EXPECT_NEAR(gx[i], (loss(xp) - loss(xm)) / (2 * h), 3e-2) << i;
  }
}

TEST(Replace, FindsAllSitesInOrder) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::resnet18(mc);
  const auto sites = find_nonpoly_sites(model);
  ASSERT_EQ(sites.size(), 18u);  // 17 ReLU + 1 MaxPool
  int pools = 0;
  for (const auto& s : sites)
    if (s.kind == SiteKind::MaxPool) ++pools;
  EXPECT_EQ(pools, 1);
  // The stem ReLU comes before the stem MaxPool.
  EXPECT_EQ(sites[0].kind, SiteKind::ReLU);
  EXPECT_EQ(sites[1].kind, SiteKind::MaxPool);
}

TEST(Replace, Vgg19SiteCountsMatchPaper) {
  models::ModelConfig mc;
  mc.width = 2;
  auto model = models::vgg19(mc);
  const auto sites = find_nonpoly_sites(model);
  int relus = 0, pools = 0;
  for (const auto& s : sites)
    (s.kind == SiteKind::ReLU ? relus : pools)++;
  EXPECT_EQ(relus, 18);  // paper §5.1
  EXPECT_EQ(pools, 5);
}

TEST(Replace, SingleSiteReplacement) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::cnn7(mc);
  const auto before = find_nonpoly_sites(model).size();
  auto sites = find_nonpoly_sites(model);
  replace_site(model, sites[0], approx::make_paf(PafForm::F1_G2));
  EXPECT_EQ(find_nonpoly_sites(model).size(), before - 1);
  EXPECT_EQ(find_paf_layers(model).size(), 1u);
}

TEST(Replace, ReplaceAllLeavesNoNonPoly) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::resnet18(mc);
  ReplaceOptions opts;
  opts.form = PafForm::F1_G2;
  const auto created = replace_all(model, opts);
  EXPECT_EQ(created.size(), 18u);
  EXPECT_TRUE(find_nonpoly_sites(model).empty());
  EXPECT_EQ(find_paf_layers(model).size(), 18u);
}

TEST(Replace, ReluOnlyKeepsMaxPool) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::resnet18(mc);
  ReplaceOptions opts;
  opts.form = PafForm::F1_G2;
  opts.replace_maxpool = false;
  replace_all(model, opts);
  const auto rest = find_nonpoly_sites(model);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].kind, SiteKind::MaxPool);
}

TEST(Replace, ModelStillRunsAfterReplacement) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::resnet18(mc);
  ReplaceOptions opts;
  opts.form = PafForm::F1SQ_G1SQ;
  replace_all(model, opts);
  const Tensor x = random_tensor({2, 3, 16, 16}, 37);
  const Tensor y = model.forward(x, false);
  EXPECT_EQ(y.dim(1), 10);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_TRUE(std::isfinite(y[i]));
}

TEST(Replace, PafParamsJoinPafGroup) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::cnn7(mc);
  ReplaceOptions opts;
  opts.form = PafForm::F1_G2;
  replace_all(model, opts);
  int paf_params = 0;
  for (nn::Param* p : model.params())
    if (p->group == nn::ParamGroup::PafCoeff) ++paf_params;
  EXPECT_EQ(paf_params, static_cast<int>(find_paf_layers(model).size()));
}

TEST(Replace, FreezeAfterSite) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::cnn7(mc);
  unfreeze_all(model);
  freeze_after_site(model, 0);  // freeze everything after the first ReLU
  // conv0 (before site 0) stays trainable; fc1 (last layer) is frozen.
  bool conv0_frozen = true, fc1_frozen = false;
  for (nn::Param* p : model.params()) {
    if (p->name.rfind("conv0", 0) == 0) conv0_frozen = conv0_frozen && p->frozen;
    if (p->name.rfind("fc1", 0) == 0) fc1_frozen = fc1_frozen || p->frozen;
  }
  EXPECT_FALSE(conv0_frozen);
  EXPECT_TRUE(fc1_frozen);
  unfreeze_all(model);
  for (nn::Param* p : model.params()) EXPECT_FALSE(p->frozen);
}

TEST(Techniques, ApplyTrainTarget) {
  models::ModelConfig mc;
  mc.width = 4;
  auto model = models::cnn7(mc);
  ReplaceOptions opts;
  opts.form = PafForm::F1_G2;
  replace_all(model, opts);
  apply_train_target(model, TrainTarget::PafOnly);
  for (nn::Param* p : model.params())
    EXPECT_EQ(p->frozen, p->group != nn::ParamGroup::PafCoeff) << p->name;
  apply_train_target(model, TrainTarget::OtherOnly);
  for (nn::Param* p : model.params())
    EXPECT_EQ(p->frozen, p->group != nn::ParamGroup::Other) << p->name;
}

TEST(CoefficientTuning, FitReducesProfiledError) {
  // Inputs concentrated in [-0.5, 0.5]: CT should beat the generic init.
  sp::Rng rng(41);
  std::vector<double> samples(1500);
  for (auto& s : samples) s = rng.normal(0.0, 0.2);
  const double scale = 1.0;
  const approx::CompositePaf init = approx::make_paf(PafForm::F1_G2);
  CtConfig cfg;
  cfg.fit_iters = 250;
  const auto tuned_flat = fit_paf_to_profile(init, samples, scale, cfg);
  approx::CompositePaf tuned = init;
  tuned.load_coeffs(tuned_flat);
  auto err = [&](const approx::CompositePaf& p) {
    double acc = 0;
    for (double x : samples) {
      const double pred = 0.5 * (x + x * p(x / scale));
      const double diff = pred - std::max(x, 0.0);
      acc += diff * diff;
    }
    return acc;
  };
  EXPECT_LT(err(tuned), err(init) * 0.8);
}

TEST(CoefficientTuning, ProducesPerSiteCoeffsAndScales) {
  models::ModelConfig mc;
  mc.width = 4;
  mc.num_classes = 4;
  auto model = models::cnn7(mc);
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(8);
  spec.num_classes = 4;
  spec.train_count = 64;
  spec.val_count = 32;
  const auto ds = data::make_synthetic(spec);
  CtConfig cfg;
  cfg.calib_batches = 1;
  cfg.fit_iters = 20;
  const CtResult ct = coefficient_tuning(model, ds.train, PafForm::F1_G2, cfg);
  const auto sites = find_nonpoly_sites(model);
  ASSERT_EQ(ct.coeffs.size(), sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_FALSE(ct.coeffs[i].empty()) << i;
    EXPECT_GT(ct.abs_max[i], 0.0) << i;
  }
  // Hooks must be detached: another forward should not crash or re-record.
  model.forward(ds.val.batch({0}).x, false);
}

TEST(Scheduler, SmokeRunOnTinyModel) {
  models::ModelConfig mc;
  mc.width = 4;
  mc.num_classes = 4;
  auto model = models::cnn7(mc);
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(8);
  spec.num_classes = 4;
  spec.train_count = 96;
  spec.val_count = 48;
  const auto ds = data::make_synthetic(spec);

  // Pre-train briefly so the scheduler starts from a working model.
  nn::TrainConfig tc;
  tc.batch_size = 32;
  tc.paf_hp = {1e-3, 0.0};
  tc.other_hp = {1e-3, 0.0};
  nn::Trainer tr(model, ds.train, ds.val, tc);
  for (int e = 0; e < 2; ++e) tr.run_epoch();

  SchedulerConfig cfg;
  cfg.form = PafForm::F1SQ_G1SQ;
  cfg.group_epochs = 1;
  cfg.max_groups_per_step = 1;
  cfg.final_network_train = false;
  cfg.ct.calib_batches = 1;
  cfg.ct.fit_iters = 15;
  cfg.train = tc;
  Scheduler sched(model, ds.train, ds.val, cfg);
  const SchedulerResult res = sched.run();

  EXPECT_TRUE(find_nonpoly_sites(model).empty());
  EXPECT_EQ(res.final_coeffs.size(), find_paf_layers(model).size());
  EXPECT_GE(res.best_acc_ds, 0.0);
  EXPECT_GT(res.epochs_run, 0);
  EXPECT_FALSE(res.trace.empty());
  // Model is left FHE-deployable (Static Scaling everywhere).
  for (PafLayerBase* p : find_paf_layers(model))
    EXPECT_EQ(p->mode(), ScaleMode::Static);
}

TEST(Scheduler, BaselineModeKeepsPafCoeffsUntouched) {
  models::ModelConfig mc;
  mc.width = 4;
  mc.num_classes = 4;
  auto model = models::cnn7(mc);
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(8);
  spec.num_classes = 4;
  spec.train_count = 64;
  spec.val_count = 32;
  const auto ds = data::make_synthetic(spec);

  SchedulerConfig cfg;
  cfg.form = PafForm::F1_G2;
  cfg.use_ct = false;
  cfg.progressive_replace = false;
  cfg.progressive_train = false;
  cfg.use_at = false;
  cfg.train_paf = false;  // prior-work baseline: PAFs excluded from training
  cfg.group_epochs = 1;
  cfg.max_groups_per_step = 1;
  cfg.final_network_train = false;
  cfg.train.batch_size = 32;
  Scheduler sched(model, ds.train, ds.val, cfg);
  sched.run();

  const auto initial = approx::make_paf(PafForm::F1_G2).flatten_coeffs();
  for (PafLayerBase* p : find_paf_layers(model)) {
    const auto got = p->coeffs();
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got[i], initial[i], 1e-6) << p->name() << " coeff " << i;
  }
}

}  // namespace
