#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>

#include "common/check.h"
#include "common/hash.h"
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

TEST(PafActivation, BackwardNeedsATrainingForwardOfTheSameShape) {
  PafActivation layer(approx::make_paf(PafForm::F1_G2), "paf");
  EXPECT_THROW(layer.backward(Tensor({2, 8})), sp::Error);  // no forward yet
  // An inference forward of another shape changes the Dynamic scale, so
  // the training input no longer pairs with either gradient.
  layer.forward(random_tensor({2, 8}, 3), true);
  layer.forward(random_tensor({1, 4}, 5), false);
  EXPECT_THROW(layer.backward(Tensor({1, 4})), sp::Error);
  EXPECT_THROW(layer.backward(Tensor({2, 8})), sp::Error);
  layer.forward(random_tensor({2, 8}, 3), true);
  EXPECT_THROW(layer.backward(Tensor({1, 4})), sp::Error);
  EXPECT_EQ(layer.backward(Tensor({2, 8})).shape(), (std::vector<int>{2, 8}));
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

TEST(PafMaxPool1d, GradCheck) {
  // Window 3 at stride 2 over 8 slots: the last window wraps to slot 0.
  PafMaxPool1d layer(approx::make_paf(PafForm::F1_G2), 3, 2, "pmax1d");
  layer.set_static_scale(3.0f);
  Tensor x = random_tensor({2, 8}, 37);
  Tensor y = layer.forward(x, true);
  Tensor gy(y.shape());
  sp::Rng rng(7);
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = static_cast<float>(rng.uniform(-1, 1));
  std::vector<nn::Param*> ps;
  layer.collect_params(ps);
  ps[0]->grad.fill(0.0f);
  const Tensor gx = layer.backward(gy);

  auto loss = [&](const Tensor& xx) {
    const Tensor yy = layer.forward(xx, true);
    double acc = 0;
    for (std::size_t i = 0; i < yy.numel(); ++i) acc += gy[i] * yy[i];
    return acc;
  };
  const double h = 1e-3;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(h);
    xm[i] -= static_cast<float>(h);
    EXPECT_NEAR(gx[i], (loss(xp) - loss(xm)) / (2 * h), 3e-2) << i;
  }
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

TEST(PafMaxPool1d, BackwardNeedsATrainingForwardOfTheSameShape) {
  PafMaxPool1d layer(approx::make_paf(PafForm::F1_G2), 2, "pmax1d");
  const Tensor y = layer.forward(random_tensor({2, 8}, 3), true);
  // An inference forward of another shape replaces the window table.
  layer.forward(random_tensor({2, 4}, 5), false);
  EXPECT_THROW(layer.backward(Tensor(y.shape())), sp::Error);
}

TEST(PafMaxPool, BackwardNeedsTheLastForwardToTrain) {
  // An inference forward of the same shape keeps the table but changes the
  // Dynamic scale, so the earlier training input no longer pairs with it.
  PafMaxPool pool(approx::make_paf(PafForm::F1_G2), 2, 2, 0, "pmax");
  // Before any forward there is no window table, not even for a 0-d gradient.
  EXPECT_THROW(pool.backward(Tensor(std::vector<int>{})), sp::Error);
  const Tensor y = pool.forward(random_tensor({1, 1, 4, 4}, 3), true);
  pool.forward(random_tensor({1, 1, 4, 4}, 5), false);
  EXPECT_THROW(pool.backward(Tensor(y.shape())), sp::Error);
  PafMaxPool1d pool1d(approx::make_paf(PafForm::F1_G2), 3, "pmax1d");
  const Tensor y1 = pool1d.forward(random_tensor({2, 8}, 3), true);
  pool1d.forward(random_tensor({2, 8}, 5), false);
  EXPECT_THROW(pool1d.backward(Tensor(y1.shape())), sp::Error);
}

TEST(PafMaxPool, RejectsWindowsOutsideTheInput) {
  const auto paf = approx::make_paf(PafForm::F1_G2);
  // pad >= kernel leaves the first window entirely in the padding.
  EXPECT_THROW(PafMaxPool(paf, 2, 2, 2, "pmax"), sp::Error);
  PafMaxPool wide(paf, 5, 1, 1, "pmax");
  EXPECT_THROW(wide.forward(random_tensor({1, 1, 2, 2}, 3), false), sp::Error);
}

// Bit pins of the PAF-max tournament: FNV digests of the output, the input
// gradient and the coefficient gradient of one training step, for each pool
// geometry in both scale modes.
struct PoolPin {
  std::uint64_t y, gx, gcoeff;
};

std::uint64_t tensor_digest(const Tensor& t) {
  std::uint64_t h = sp::kFnvOffset;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const float v = t[i];
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = sp::fnv_mix(h, bits);
  }
  return h;
}

void expect_pool_pin(PafLayerBase& layer, const Tensor& x, const PoolPin& pin) {
  const Tensor y = layer.forward(x, true);
  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = static_cast<float>(std::cos(0.7 * static_cast<double>(i)));
  const Tensor gx = layer.backward(gy);
  std::vector<nn::Param*> ps;
  layer.collect_params(ps);
  const std::uint64_t got[] = {tensor_digest(y), tensor_digest(gx),
                               tensor_digest(ps[0]->grad)};
  const std::uint64_t want[] = {pin.y, pin.gx, pin.gcoeff};
  const char* what[] = {"output", "input gradient", "coefficient gradient"};
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(got[i], want[i]) << layer.name() << " " << what[i] << ": 0x" << std::hex
                               << got[i];
}

TEST(TournamentPins, PafMaxPool1d) {
  const Tensor x = random_tensor({3, 12}, 41);
  const struct {
    int window, stride;
    PoolPin dynamic, fixed;
  } pins[] = {
      {2, 1, {0xaeedf971f9511647ULL, 0x4c6312f29d1787eaULL, 0xdd8d75f56ee3d01bULL},
       {0x5f4f1dfb19eb0b2dULL, 0x4143b2b6beaa9214ULL, 0x91fed8c0a9ad7f42ULL}},
      {3, 1, {0x27f8222dd47917a3ULL, 0xb45bcb3f4593cf43ULL, 0xc449a9bc2317a13eULL},
       {0xc4f117c599cabb2eULL, 0x3da0ea7556a75cdbULL, 0x12fe14d818071683ULL}},
      {2, 2, {0x771f2cf679beec88ULL, 0xd9e435770e826babULL, 0x7aee73ec24380ab1ULL},
       {0xc2b89782fd112207ULL, 0x9400c2e8221201d5ULL, 0x438254ba59e6a05aULL}},
      {4, 2, {0x52b6f83f3ddaa8c8ULL, 0x025c9cb00fa58254ULL, 0x3823e50f83bfc11aULL},
       {0x081fd59b4c87de25ULL, 0x1e735b49be502610ULL, 0x552d762b41aa4b05ULL}},
  };
  for (const auto& p : pins) {
    const std::string geometry =
        "w" + std::to_string(p.window) + "s" + std::to_string(p.stride);
    PafMaxPool1d dynamic(approx::make_paf(PafForm::F1_G2), p.window, p.stride,
                         geometry + ".dynamic");
    expect_pool_pin(dynamic, x, p.dynamic);
    PafMaxPool1d fixed(approx::make_paf(PafForm::F1_G2), p.window, p.stride,
                       geometry + ".static");
    fixed.set_static_scale(6.0f);
    expect_pool_pin(fixed, x, p.fixed);
  }
}

TEST(TournamentPins, PafMaxPool) {
  const Tensor x = random_tensor({2, 3, 6, 7}, 43);
  const struct {
    int kernel, stride, pad;
    PoolPin dynamic, fixed;
  } pins[] = {
      {2, 2, 0, {0x804082e169e7c964ULL, 0xacd7c345dc98fc6cULL, 0x9b6f7eda88eabb0bULL},
       {0x9840560a96dd7d69ULL, 0x393d2d8ad8d76c81ULL, 0x74ce1620cfa3356fULL}},
      {3, 2, 1, {0x9c88a8a969a490f2ULL, 0x20c2422950436d73ULL, 0xa34e79ac462211a3ULL},
       {0x8a1c87aff0d70b88ULL, 0x5794c2cf066b8d62ULL, 0x6c81b1ad0f2dcaa4ULL}},
      {3, 1, 1, {0x9a6f8529414a6349ULL, 0x2d9f9d7bb04b2fb2ULL, 0xa296fe2e0183fbb4ULL},
       {0x70921129ced6b649ULL, 0xa8bf8d328c481e9cULL, 0x69c286bf0db86912ULL}},
  };
  for (const auto& p : pins) {
    const std::string geometry = "k" + std::to_string(p.kernel) + "s" +
                                 std::to_string(p.stride) + "p" + std::to_string(p.pad);
    PafMaxPool dynamic(approx::make_paf(PafForm::F1_G2), p.kernel, p.stride, p.pad,
                       geometry + ".dynamic");
    expect_pool_pin(dynamic, x, p.dynamic);
    PafMaxPool fixed(approx::make_paf(PafForm::F1_G2), p.kernel, p.stride, p.pad,
                     geometry + ".static");
    fixed.set_static_scale(6.0f);
    expect_pool_pin(fixed, x, p.fixed);
  }
}

// Bit pins of the exact pools: FNV digests of the output and the input
// gradient of one training step and, for the max pools, of the pairwise
// differences the profiling hook feeds Coefficient Tuning.
struct ExactPoolPin {
  std::uint64_t y, gx, profiled;
};

/// `profiled` collects the layer's hooked samples; nullptr for AvgPool2d,
/// which has no hook.
void expect_exact_pool_pin(nn::Layer& layer, const Tensor& x,
                           const std::vector<float>* profiled, const ExactPoolPin& pin) {
  const Tensor y = layer.forward(x, true);
  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.numel(); ++i)
    gy[i] = static_cast<float>(std::cos(0.7 * static_cast<double>(i)));
  const Tensor gx = layer.backward(gy);
  std::uint64_t got[] = {tensor_digest(y), tensor_digest(gx), 0};
  if (profiled != nullptr) {
    Tensor samples({static_cast<int>(profiled->size())});
    for (std::size_t i = 0; i < profiled->size(); ++i) samples[i] = (*profiled)[i];
    got[2] = tensor_digest(samples);
  }
  const std::uint64_t want[] = {pin.y, pin.gx, pin.profiled};
  const char* what[] = {"output", "input gradient", "profiled differences"};
  for (int i = 0; i < (profiled != nullptr ? 3 : 2); ++i)
    EXPECT_EQ(got[i], want[i]) << layer.name() << " " << what[i] << ": 0x" << std::hex
                               << got[i];
}

TEST(PoolPins, MaxPool1d) {
  const Tensor x = random_tensor({3, 12}, 41);
  const struct {
    int window, stride;
    ExactPoolPin pin;
  } pins[] = {
      {2, 1, {0x905be882e3ff832cULL, 0xb8269c2f017a11fdULL, 0x6970488596185026ULL}},
      {3, 1, {0x9b5eba6ad9b9fa99ULL, 0x3760c0b01d23b737ULL, 0xe885268912d74f82ULL}},
      {2, 2, {0xc3ece5e0c6469c1dULL, 0xaa4f0a480304644fULL, 0xe574aa0944c0cb94ULL}},
      {4, 2, {0xc738fb2ab402fa88ULL, 0xc78035fc6eb83b72ULL, 0xdde2f38b22b6dd93ULL}},
  };
  for (const auto& p : pins) {
    nn::MaxPool1d pool(p.window, p.stride,
                       "w" + std::to_string(p.window) + "s" + std::to_string(p.stride));
    std::vector<float> profiled;
    pool.set_profile([&profiled](float d) { profiled.push_back(d); });
    expect_exact_pool_pin(pool, x, &profiled, p.pin);
  }
}

TEST(PoolPins, MaxPool2d) {
  const Tensor x = random_tensor({2, 3, 6, 7}, 43);
  const struct {
    int kernel, stride, pad;
    ExactPoolPin pin;
  } pins[] = {
      {2, 2, 0, {0xa3fe10c30759e2edULL, 0x306eb39cad5710f7ULL, 0x2b7bdce99e27fba7ULL}},
      {3, 2, 1, {0x763457c6463eb9baULL, 0xadd713dd9806ce8aULL, 0x727b04b4b937530eULL}},
      {3, 1, 1, {0xfc0afc1e536ea849ULL, 0x1707234881070b04ULL, 0xeafcf448334da39dULL}},
  };
  for (const auto& p : pins) {
    nn::MaxPool2d pool(p.kernel, p.stride, p.pad,
                       "k" + std::to_string(p.kernel) + "s" + std::to_string(p.stride) +
                           "p" + std::to_string(p.pad));
    std::vector<float> profiled;
    pool.set_profile([&profiled](float d) { profiled.push_back(d); });
    expect_exact_pool_pin(pool, x, &profiled, p.pin);
  }
}

TEST(PoolPins, AvgPool2d) {
  const Tensor x = random_tensor({2, 3, 6, 7}, 43);
  const struct {
    int kernel, stride;
    ExactPoolPin pin;
  } pins[] = {
      {2, 2, {0xce3f4ff7b85e03e2ULL, 0x5e3c75a8d3975365ULL, 0}},
      {3, 1, {0x8ec9cc9a33bb84dbULL, 0x803984d836c4c6e4ULL, 0}},
  };
  for (const auto& p : pins) {
    nn::AvgPool2d pool(p.kernel, p.stride,
                       "k" + std::to_string(p.kernel) + "s" + std::to_string(p.stride));
    expect_exact_pool_pin(pool, x, nullptr, p.pin);
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

TEST(CoefficientTuning, DetachesHooksWhenCalibrationThrows) {
  models::ModelConfig mc;
  mc.width = 4;
  mc.num_classes = 4;
  auto model = models::cnn7(mc);
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(8);
  spec.num_classes = 4;
  spec.train_count = 16;
  spec.val_count = 8;
  const auto ds = data::make_synthetic(spec);
  spec.channels = 1;  // cnn7 takes 3 channels, so the calibration forward throws
  const auto bad = data::make_synthetic(spec);
  CtConfig cfg;
  cfg.calib_batches = 1;
  EXPECT_THROW(coefficient_tuning(model, bad.train, PafForm::F1_G2, cfg), sp::Error);
  // A hook left attached would record into the destroyed profiles, a use
  // after free that the sanitizer builds report.
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

// Bit pins of one scheduler run that takes every branch run_step and
// run_group have: seven ReLU and MaxPool sites replaced one by one, an SWA
// pick after every group, an AT swap in every step, one dropout switch-on
// past the overfit gap, and the final network-wide group. Each
// trace event pins its epoch, tag and validation accuracy; every accuracy is
// a count of correct samples over the 48 validation samples, compared bit
// for bit.
TEST(SchedulerPins, FullRunTraceAndCoefficients) {
  models::ModelConfig mc;
  mc.width = 4;
  mc.num_classes = 4;
  auto model = models::cnn7(mc);
  data::SyntheticSpec spec = data::SyntheticSpec::cifar_like(8);
  spec.num_classes = 4;
  spec.train_count = 32;
  spec.val_count = 48;
  const auto ds = data::make_synthetic(spec);

  SchedulerConfig cfg;
  cfg.form = PafForm::F1_G2;
  cfg.group_epochs = 2;
  cfg.max_groups_per_step = 3;
  cfg.final_network_train = true;
  cfg.ct.calib_batches = 1;
  cfg.ct.fit_iters = 15;
  cfg.train.batch_size = 32;
  Scheduler sched(model, ds.train, ds.val, cfg);
  const SchedulerResult res = sched.run();

  const struct {
    int epoch;
    const char* tag;
    int correct;
  } trace[] = {
      {0, "replace:conv0.relu", 16}, {1, "", 16}, {2, "", 16}, {2, "swa", 16},
      {2, "at", 16}, {3, "", 16}, {4, "", 16}, {4, "swa", 16},
      {4, "replace:conv0.pool", 18}, {5, "", 18}, {6, "", 18}, {6, "swa", 18},
      {6, "at", 18}, {7, "", 18}, {8, "", 18}, {8, "swa", 18},
      {8, "replace:conv1.relu", 17}, {9, "", 17}, {10, "", 17}, {10, "swa", 17},
      {10, "at", 17}, {11, "", 17}, {12, "", 17}, {12, "swa", 17},
      {12, "replace:conv1.pool", 15}, {13, "", 15}, {14, "", 15}, {14, "swa", 15},
      {14, "at", 15}, {15, "", 15}, {16, "", 15}, {16, "swa", 15},
      {16, "replace:conv2.relu", 13}, {17, "", 13}, {18, "", 13}, {18, "swa", 13},
      {18, "at", 13}, {19, "", 13}, {20, "", 13}, {20, "swa", 13},
      {20, "replace:conv2.pool", 16}, {21, "", 16}, {22, "", 16}, {22, "swa", 16},
      {22, "dropout", 16}, {23, "", 16}, {24, "", 16}, {24, "swa", 16},
      {24, "at", 16}, {25, "", 16}, {26, "", 16}, {26, "swa", 16},
      {26, "replace:fc0.relu", 15}, {27, "", 15}, {28, "", 15}, {28, "swa", 15},
      {28, "at", 15}, {29, "", 15}, {30, "", 15}, {30, "swa", 15},
      {31, "", 15}, {32, "", 15}, {32, "swa", 15}, {32, "final", 15},
  };
  ASSERT_EQ(res.trace.size(), std::size(trace));
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    EXPECT_EQ(res.trace[i].epoch, trace[i].epoch) << "event " << i;
    EXPECT_EQ(res.trace[i].tag, trace[i].tag) << "event " << i;
    EXPECT_EQ(res.trace[i].val_acc, trace[i].correct / 48.0) << "event " << i;
  }
  EXPECT_EQ(res.epochs_run, 32);
  EXPECT_EQ(res.acc_ss, 19 / 48.0);
  std::uint64_t h = sp::kFnvOffset;
  for (const auto& c : res.final_coeffs) h = sp::fnv_doubles(h, c);
  EXPECT_EQ(res.final_coeffs.size(), 7U);
  EXPECT_EQ(h, 0xb82569494e786e3dULL) << "final coefficients: 0x" << std::hex << h;
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
