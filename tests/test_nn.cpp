#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "nn/container.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/swa.h"
#include "nn/trainer.h"

namespace {

using namespace sp;
using nn::Tensor;

/// Scalar loss L = sum_i w_i * y_i with fixed pseudo-random weights, so
/// dL/dy_i = w_i. Used to finite-difference-check layer gradients.
struct GradProbe {
  std::vector<float> w;
  explicit GradProbe(std::size_t n, std::uint64_t seed = 5) {
    sp::Rng rng(seed);
    w.resize(n);
    for (auto& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  double loss(const Tensor& y) const {
    double acc = 0;
    for (std::size_t i = 0; i < y.numel(); ++i) acc += w[i] * y[i];
    return acc;
  }
  Tensor grad(const std::vector<int>& shape) const {
    Tensor g(shape);
    for (std::size_t i = 0; i < g.numel(); ++i) g[i] = w[i];
    return g;
  }
};

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  sp::Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return t;
}

/// Finite-difference check of input and parameter gradients of a layer.
void gradcheck(nn::Layer& layer, const Tensor& x, double tol = 3e-2) {
  Tensor xin = x;
  Tensor y = layer.forward(xin, /*train=*/true);
  GradProbe probe(y.numel());
  const Tensor gy = probe.grad(y.shape());

  std::vector<nn::Param*> params;
  layer.collect_params(params);
  for (nn::Param* p : params) p->grad.fill(0.0f);
  const Tensor gx = layer.backward(gy);

  const double h = 1e-3;
  // Input gradient at a spread of positions.
  for (std::size_t i = 0; i < xin.numel(); i += std::max<std::size_t>(1, xin.numel() / 7)) {
    Tensor xp = xin, xm = xin;
    xp[i] += static_cast<float>(h);
    xm[i] -= static_cast<float>(h);
    const double fd = (probe.loss(layer.forward(xp, true)) -
                       probe.loss(layer.forward(xm, true))) / (2 * h);
    EXPECT_NEAR(gx[i], fd, tol * std::max(1.0, std::abs(fd))) << "input idx " << i;
  }
  // Parameter gradients.
  layer.forward(xin, true);  // restore caches for fairness
  for (nn::Param* p : params) {
    for (std::size_t i = 0; i < p->value.numel();
         i += std::max<std::size_t>(1, p->value.numel() / 5)) {
      const float orig = p->value[i];
      p->value[i] = orig + static_cast<float>(h);
      const double lp = probe.loss(layer.forward(xin, true));
      p->value[i] = orig - static_cast<float>(h);
      const double lm = probe.loss(layer.forward(xin, true));
      p->value[i] = orig;
      const double fd = (lp - lm) / (2 * h);
      EXPECT_NEAR(p->grad[i], fd, tol * std::max(1.0, std::abs(fd)))
          << p->name << " idx " << i;
    }
  }
}

TEST(Tensor, ShapeAndAccessors) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.numel(), 120u);
  t.at(1, 2, 3, 4) = 7.5f;
  EXPECT_FLOAT_EQ(t[119], 7.5f);
  Tensor m({3, 4});
  m.at(2, 3) = -1.0f;
  EXPECT_FLOAT_EQ(m[11], -1.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = random_tensor({2, 6}, 1);
  Tensor r = t.reshaped({3, 4});
  EXPECT_EQ(r.dim(0), 3);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], r[i]);
}

TEST(Tensor, AbsMax) {
  Tensor t({4});
  t[0] = -3.5f;
  t[2] = 2.0f;
  EXPECT_FLOAT_EQ(t.abs_max(), 3.5f);
}

TEST(Tensor, MatmulAgainstNaive) {
  const int m = 3, k = 4, n = 5;
  Tensor a = random_tensor({m, k}, 2), b = random_tensor({k, n}, 3);
  Tensor out({m, n});
  nn::matmul(a.data(), b.data(), out.data(), m, k, n);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float acc = 0;
      for (int p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      EXPECT_NEAR(out.at(i, j), acc, 1e-5);
    }
}

TEST(GradCheck, Linear) {
  sp::Rng rng(11);
  nn::Linear layer(6, 4, rng);
  gradcheck(layer, random_tensor({3, 6}, 21));
}

TEST(GradCheck, Conv2dStride1Pad1) {
  sp::Rng rng(12);
  nn::Conv2d layer(2, 3, 3, 1, 1, rng);
  gradcheck(layer, random_tensor({2, 2, 5, 5}, 22));
}

TEST(GradCheck, Conv2dStride2NoPad) {
  sp::Rng rng(13);
  nn::Conv2d layer(3, 2, 3, 2, 0, rng);
  gradcheck(layer, random_tensor({2, 3, 7, 7}, 23));
}

TEST(GradCheck, BatchNorm2d) {
  nn::BatchNorm2d layer(3);
  gradcheck(layer, random_tensor({4, 3, 3, 3}, 24), 5e-2);
}

TEST(GradCheck, ReLU) {
  nn::ReLU layer;
  gradcheck(layer, random_tensor({2, 3, 4, 4}, 25));
}

TEST(GradCheck, MaxPool) {
  nn::MaxPool2d layer(2, 2);
  gradcheck(layer, random_tensor({2, 2, 4, 4}, 26));
}

TEST(GradCheck, MaxPool2dPadded) {
  nn::MaxPool2d layer(3, 2, 1);
  gradcheck(layer, random_tensor({1, 2, 5, 6}, 32));
}

TEST(GradCheck, MaxPool1dAcrossTheWrap) {
  // Window 3 at stride 2 over 8 slots: the last window wraps to slot 0.
  nn::MaxPool1d layer(3, 2);
  gradcheck(layer, random_tensor({2, 8}, 33));
}

TEST(GradCheck, AvgPool) {
  nn::AvgPool2d layer(2, 2);
  gradcheck(layer, random_tensor({2, 2, 4, 4}, 27));
}

TEST(GradCheck, GlobalAvgPool) {
  nn::GlobalAvgPool layer;
  gradcheck(layer, random_tensor({2, 3, 4, 4}, 28));
}

TEST(GradCheck, BasicBlockWithDownsample) {
  sp::Rng rng(14);
  nn::BasicBlock block(2, 4, 2, rng, "blk");
  gradcheck(block, random_tensor({2, 2, 6, 6}, 29), 5e-2);
}

TEST(Layers, ReLUForwardValues) {
  nn::ReLU relu;
  Tensor x({4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -0.5;
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
}

TEST(Layers, MaxPoolPicksWindowMax) {
  nn::MaxPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 5;
  x[2] = -2;
  x[3] = 3;
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5);
}

TEST(Pools, RejectGeometriesWithoutAWindow) {
  // pad >= kernel leaves the corner windows entirely in the padding.
  EXPECT_THROW(nn::MaxPool2d(2, 2, 2), sp::Error);
  EXPECT_THROW(nn::MaxPool2d(2, 0), sp::Error);
  EXPECT_THROW(nn::MaxPool2d(0, 1), sp::Error);
  EXPECT_THROW(nn::MaxPool2d(2, 1, -1), sp::Error);
  EXPECT_THROW(nn::AvgPool2d(2, 0), sp::Error);
  EXPECT_THROW(nn::AvgPool2d(0, 1), sp::Error);
  EXPECT_THROW(nn::MaxPool1d(1), sp::Error);
  EXPECT_THROW(nn::MaxPool1d(2, 0), sp::Error);
}

TEST(Pools, RejectInputsTheirWindowsDoNotFit) {
  nn::MaxPool2d wide(5, 1, 1);
  EXPECT_THROW(wide.forward(random_tensor({1, 1, 2, 2}, 3), false), sp::Error);
  // An empty plane would leave windows of padding only.
  nn::MaxPool2d padded(3, 1, 1);
  EXPECT_THROW(padded.forward(random_tensor({1, 1, 0, 4}, 3), false), sp::Error);
  nn::AvgPool2d avg(3, 1);
  EXPECT_THROW(avg.forward(random_tensor({1, 1, 2, 4}, 3), false), sp::Error);
  EXPECT_THROW(avg.forward(random_tensor({4, 4}, 3), false), sp::Error);
  nn::MaxPool1d strided(2, 3);
  EXPECT_THROW(strided.forward(random_tensor({1, 8}, 3), false), sp::Error);
  nn::MaxPool1d long_window(5);
  EXPECT_THROW(long_window.forward(random_tensor({1, 4}, 3), false), sp::Error);
  EXPECT_THROW(long_window.forward(random_tensor({1, 1, 2, 4}, 3), false), sp::Error);
}

TEST(Pools, MaxPoolBackwardNeedsATrainingForwardOfTheSameShape) {
  nn::MaxPool2d pool(2, 2);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1})), sp::Error);  // no forward yet
  // A training forward, then an inference forward of a smaller input: the
  // argmax of the first must not index the second's gradient.
  pool.forward(random_tensor({1, 1, 4, 4}, 3), true);
  pool.forward(random_tensor({1, 1, 2, 2}, 5), false);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1})), sp::Error);
  pool.forward(random_tensor({1, 1, 4, 4}, 3), true);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 2})), sp::Error);
  EXPECT_EQ(pool.backward(Tensor({1, 1, 2, 2})).shape(), (std::vector<int>{1, 1, 4, 4}));

  nn::MaxPool1d pool1d(2);
  EXPECT_THROW(pool1d.backward(Tensor({1, 4})), sp::Error);
  pool1d.forward(random_tensor({1, 8}, 3), true);
  pool1d.forward(random_tensor({1, 8}, 5), false);
  EXPECT_THROW(pool1d.backward(Tensor({1, 8})), sp::Error);
}

TEST(Pools, AvgPoolBackwardNeedsTheShapeOfTheLastForward) {
  nn::AvgPool2d pool(2, 2);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 2, 2})), sp::Error);  // no forward yet
  EXPECT_THROW(pool.backward(Tensor(std::vector<int>{})), sp::Error);
  pool.forward(random_tensor({1, 1, 4, 4}, 3), false);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1})), sp::Error);
  EXPECT_EQ(pool.backward(Tensor({1, 1, 2, 2})).shape(), (std::vector<int>{1, 1, 4, 4}));
}

/// The backward contract of a layer that caches its forward, the pools'
/// contract: backward needs the last forward to have been a training one
/// and a gradient of that forward's output shape. One forward maps `in` to
/// `out`, another `other_in` to `other_out`.
void expect_backward_needs_a_training_forward(nn::Layer& layer, const std::vector<int>& in,
                                              const std::vector<int>& out,
                                              const std::vector<int>& other_in,
                                              const std::vector<int>& other_out) {
  EXPECT_THROW(layer.backward(Tensor(out)), sp::Error);  // no forward yet
  // A training forward, then an inference forward of another shape: the
  // first's cache must not meet a gradient of either.
  layer.forward(random_tensor(in, 3), true);
  layer.forward(random_tensor(other_in, 5), false);
  EXPECT_THROW(layer.backward(Tensor(other_out)), sp::Error);
  EXPECT_THROW(layer.backward(Tensor(out)), sp::Error);
  layer.forward(random_tensor(in, 3), true);
  EXPECT_THROW(layer.backward(Tensor(other_out)), sp::Error);
  EXPECT_EQ(layer.backward(Tensor(out)).shape(), in);
}

TEST(Backward, ReLUNeedsATrainingForwardOfTheSameShape) {
  nn::ReLU relu;
  expect_backward_needs_a_training_forward(relu, {1, 4}, {1, 4}, {1, 8}, {1, 8});
}

TEST(Backward, LinearNeedsATrainingForwardOfTheSameShape) {
  sp::Rng rng(1);
  nn::Linear lin(4, 3, rng);
  expect_backward_needs_a_training_forward(lin, {2, 4}, {2, 3}, {5, 4}, {5, 3});
}

TEST(Backward, GlobalAvgPoolNeedsATrainingForwardOfTheSameShape) {
  nn::GlobalAvgPool gap;
  expect_backward_needs_a_training_forward(gap, {1, 1, 2, 2}, {1, 1, 1, 1}, {2, 3, 2, 2},
                                           {2, 3, 1, 1});
}

TEST(Backward, Conv2dNeedsATrainingForwardOfTheSameShape) {
  sp::Rng rng(2);
  nn::Conv2d conv(1, 2, 3, 1, 0, rng);
  expect_backward_needs_a_training_forward(conv, {1, 1, 5, 5}, {1, 2, 3, 3}, {2, 1, 4, 4},
                                           {2, 2, 2, 2});
}

TEST(Backward, Window1dNeedsATrainingForwardOfTheSameShape) {
  nn::Window1d win({0.5f, 0.3f, 0.2f});
  expect_backward_needs_a_training_forward(win, {1, 8}, {1, 8}, {2, 6}, {2, 6});
}

TEST(Backward, BatchNorm2dNeedsATrainingForwardOfTheSameShape) {
  nn::BatchNorm2d bn(2);
  expect_backward_needs_a_training_forward(bn, {2, 2, 3, 3}, {2, 2, 3, 3}, {1, 2, 2, 2},
                                           {1, 2, 2, 2});
}

TEST(Backward, DropoutNeedsATrainingForwardOfTheSameShape) {
  nn::Dropout drop(0.5);
  drop.set_enabled(true);
  expect_backward_needs_a_training_forward(drop, {2, 10}, {2, 10}, {1, 4}, {1, 4});
}

/// Expects `layer.forward(x)` to throw an sp::Error that names `layer_name`
/// and the input's shape.
void expect_bad_input(nn::Layer& layer, const Tensor& x, const std::string& layer_name) {
  std::string msg;  // stays empty, and fails both checks, if forward returns
  try {
    layer.forward(x, false);
  } catch (const sp::Error& e) {
    msg = e.what();
  }
  EXPECT_NE(msg.find(layer_name), std::string::npos) << x.shape_str() << ": '" << msg << "'";
  EXPECT_NE(msg.find(x.shape_str()), std::string::npos) << x.shape_str() << ": '" << msg << "'";
}

TEST(Layers, GlobalAvgPoolNeedsAFourDimensionalInput) {
  nn::GlobalAvgPool gap;
  expect_bad_input(gap, Tensor({2, 3}), "GlobalAvgPool");
  expect_bad_input(gap, Tensor({1, 2, 3}), "GlobalAvgPool");
  expect_bad_input(gap, Tensor(), "GlobalAvgPool");
  EXPECT_EQ(gap.forward(random_tensor({2, 3, 2, 2}, 3), false).shape(),
            (std::vector<int>{2, 3, 1, 1}));
}

TEST(Layers, FlattenNeedsAtLeastOneDimension) {
  nn::Flatten flat;
  expect_bad_input(flat, Tensor(), "Flatten");
  EXPECT_EQ(flat.forward(random_tensor({4}, 3), false).shape(), (std::vector<int>{4, 1}));
  EXPECT_EQ(flat.forward(random_tensor({2, 3, 2, 2}, 3), false).shape(),
            (std::vector<int>{2, 12}));
}

TEST(Layers, DropoutDisabledIsIdentity) {
  nn::Dropout d(0.5);
  const Tensor x = random_tensor({2, 10}, 31);
  const Tensor y = d.forward(x, true);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Layers, DropoutEnabledZeroesRoughlyPFraction) {
  nn::Dropout d(0.5);
  d.set_enabled(true);
  Tensor x({1, 4000});
  x.fill(1.0f);
  const Tensor y = d.forward(x, true);
  int zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] == 0.0f) ++zeros;
  EXPECT_NEAR(static_cast<double>(zeros) / 4000.0, 0.5, 0.06);
}

TEST(Loss, CrossEntropyKnownValues) {
  Tensor logits({1, 3});
  logits.at(0, 0) = 0.0f;
  logits.at(0, 1) = 0.0f;
  logits.at(0, 2) = 0.0f;
  const auto r = nn::softmax_cross_entropy(logits, {1});
  EXPECT_NEAR(r.loss, std::log(3.0), 1e-6);
  EXPECT_NEAR(r.grad.at(0, 1), 1.0 / 3.0 - 1.0, 1e-6);
  EXPECT_NEAR(r.grad.at(0, 0), 1.0 / 3.0, 1e-6);
}

TEST(Loss, GradMatchesFiniteDifference) {
  Tensor logits = random_tensor({3, 5}, 33);
  const std::vector<int> labels = {0, 3, 2};
  const auto r = nn::softmax_cross_entropy(logits, labels);
  const double h = 5e-3;  // float32 logits need a coarse step
  for (std::size_t i = 0; i < logits.numel(); i += 3) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(h);
    lm[i] -= static_cast<float>(h);
    const double fd = (nn::softmax_cross_entropy(lp, labels).loss -
                       nn::softmax_cross_entropy(lm, labels).loss) / (2 * h);
    EXPECT_NEAR(r.grad[i], fd, 2e-3);
  }
}

TEST(Optim, AdamDecreasesQuadratic) {
  nn::Param p;
  p.value = Tensor({4});
  p.grad = Tensor({4});
  for (int i = 0; i < 4; ++i) p.value[static_cast<std::size_t>(i)] = 3.0f;
  nn::Adam opt({&p}, {0.1, 0.0, 0.9, 0.999, 1e-8}, {0.1, 0.0, 0.9, 0.999, 1e-8});
  for (int step = 0; step < 200; ++step) {
    opt.zero_grad();
    for (std::size_t i = 0; i < 4; ++i) p.grad[i] = 2.0f * p.value[i];
    opt.step();
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LT(std::abs(p.value[i]), 0.05f);
}

TEST(Optim, FrozenParamsDoNotMove) {
  nn::Param p;
  p.value = Tensor({2});
  p.grad = Tensor({2});
  p.value[0] = 1.0f;
  p.frozen = true;
  nn::Adam opt({&p}, {}, {});
  p.grad[0] = 1.0f;
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f);
}

TEST(Optim, GroupFreezeTogglesByGroup) {
  nn::Param a, b;
  a.value = Tensor({1});
  a.grad = Tensor({1});
  a.group = nn::ParamGroup::PafCoeff;
  b.value = Tensor({1});
  b.grad = Tensor({1});
  b.group = nn::ParamGroup::Other;
  nn::Adam opt({&a, &b}, {0.1}, {0.1});
  opt.set_group_frozen(nn::ParamGroup::Other, true);
  EXPECT_FALSE(a.frozen);
  EXPECT_TRUE(b.frozen);
}

TEST(Optim, PerGroupLearningRatesApply) {
  nn::Param a, b;
  a.value = Tensor({1});
  a.grad = Tensor({1});
  a.group = nn::ParamGroup::PafCoeff;
  b.value = Tensor({1});
  b.grad = Tensor({1});
  b.group = nn::ParamGroup::Other;
  nn::Adam opt({&a, &b}, {0.2, 0.0}, {0.01, 0.0});
  a.grad[0] = 1.0f;
  b.grad[0] = 1.0f;
  opt.step();
  // First Adam step moves by ~lr regardless of gradient magnitude.
  EXPECT_NEAR(a.value[0], -0.2, 0.02);
  EXPECT_NEAR(b.value[0], -0.01, 0.002);
}

TEST(Swa, AverageOfTwoSnapshots) {
  nn::Param p;
  p.value = Tensor({1});
  p.grad = Tensor({1});
  nn::SwaAverager swa({&p});
  p.value[0] = 2.0f;
  swa.update();
  p.value[0] = 4.0f;
  swa.update();
  swa.apply();
  EXPECT_FLOAT_EQ(p.value[0], 3.0f);
}

TEST(Model, StateRoundTrip) {
  sp::Rng rng(41);
  auto seq = std::make_unique<nn::Sequential>("m");
  seq->add(std::make_unique<nn::Linear>(4, 3, rng));
  nn::Model model(std::move(seq), "m");
  const auto before = model.state();
  for (nn::Param* p : model.params()) p->value.fill(0.0f);
  model.set_state(before);
  EXPECT_FLOAT_EQ(model.params()[0]->value[0], before[0][0]);
}

TEST(Model, SaveLoadRoundTrip) {
  sp::Rng rng(42);
  auto make = [&](std::uint64_t seed) {
    sp::Rng r(seed);
    auto seq = std::make_unique<nn::Sequential>("m");
    seq->add(std::make_unique<nn::Linear>(4, 3, r));
    return nn::Model(std::move(seq), "m");
  };
  nn::Model a = make(1), b = make(2);
  const std::string path = "/tmp/sp_model_test.bin";
  a.save(path);
  ASSERT_TRUE(b.load(path));
  EXPECT_FLOAT_EQ(a.params()[0]->value[3], b.params()[0]->value[3]);
  std::remove(path.c_str());
}

TEST(Dataset, BatchAssembly) {
  nn::Dataset ds;
  ds.images = random_tensor({6, 1, 2, 2}, 51);
  ds.labels = {0, 1, 2, 0, 1, 2};
  ds.num_classes = 3;
  const nn::Batch b = ds.batch({4, 1});
  EXPECT_EQ(b.x.dim(0), 2);
  EXPECT_EQ(b.y[0], 1);
  EXPECT_FLOAT_EQ(b.x[0], ds.images.at(4, 0, 0, 0));
}

TEST(Dataset, IteratorCoversAllSamples) {
  nn::Dataset ds;
  ds.images = random_tensor({10, 1, 2, 2}, 52);
  ds.labels.assign(10, 0);
  sp::Rng rng(6);
  nn::BatchIterator it(ds, 3, rng);
  nn::Batch b;
  int seen = 0;
  while (it.next(b)) seen += static_cast<int>(b.y.size());
  EXPECT_EQ(seen, 10);
}

TEST(Trainer, LearnsLinearlySeparableData) {
  // Tiny two-class problem: sign of the mean pixel.
  nn::Dataset train, val;
  auto fill = [](nn::Dataset& ds, int n, std::uint64_t seed) {
    ds.images = Tensor({n, 1, 2, 2});
    ds.labels.resize(static_cast<std::size_t>(n));
    ds.num_classes = 2;
    sp::Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const int label = i % 2;
      for (int j = 0; j < 4; ++j)
        ds.images[static_cast<std::size_t>(i * 4 + j)] =
            static_cast<float>((label ? 1.0 : -1.0) + 0.3 * rng.normal());
      ds.labels[static_cast<std::size_t>(i)] = label;
    }
  };
  fill(train, 200, 61);
  fill(val, 60, 62);

  sp::Rng rng(63);
  auto seq = std::make_unique<nn::Sequential>("lin");
  seq->add(std::make_unique<nn::Flatten>());
  seq->add(std::make_unique<nn::Linear>(4, 2, rng));
  nn::Model model(std::move(seq), "lin");
  nn::TrainConfig tc;
  tc.batch_size = 16;
  tc.other_hp = {0.05, 0.0, 0.9, 0.999, 1e-8};
  tc.paf_hp = tc.other_hp;
  nn::Trainer trainer(model, train, val, tc);
  double last = 0;
  for (int e = 0; e < 5; ++e) last = trainer.run_epoch().val_acc;
  EXPECT_GT(last, 0.95);
}

TEST(Synthetic, DeterministicAndShaped) {
  const auto spec = data::SyntheticSpec::cifar_like(8);
  const auto a = data::make_synthetic(spec);
  const auto b = data::make_synthetic(spec);
  EXPECT_EQ(a.train.size(), spec.train_count);
  EXPECT_EQ(a.val.size(), spec.val_count);
  EXPECT_EQ(a.train.images.dim(2), 8);
  EXPECT_FLOAT_EQ(a.train.images[123], b.train.images[123]);
  EXPECT_EQ(a.train.labels[7], b.train.labels[7]);
}

TEST(Synthetic, CoversAllClasses) {
  const auto d = data::make_synthetic(data::SyntheticSpec::cifar_like(8));
  std::vector<int> seen(10, 0);
  for (int l : d.train.labels) ++seen[static_cast<std::size_t>(l)];
  for (int c = 0; c < 10; ++c) EXPECT_GT(seen[static_cast<std::size_t>(c)], 0) << c;
}

}  // namespace
