#include "models/zoo.h"

#include "common/check.h"
#include "nn/layers.h"

namespace sp::models {

using nn::BasicBlock;
using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Dropout;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::Linear;
using nn::MaxPool2d;
using nn::ReLU;
using nn::Sequential;

nn::Model resnet18(const ModelConfig& cfg) {
  sp::Rng rng(cfg.seed);
  auto net = std::make_unique<Sequential>("resnet18");
  const int w = cfg.width;
  net->add(std::make_unique<Conv2d>(cfg.in_channels, w, 3, 1, 1, rng, false, "stem.conv"));
  net->add(std::make_unique<BatchNorm2d>(w, "stem.bn"));
  net->add(std::make_unique<ReLU>("stem.relu"));
  net->add(std::make_unique<MaxPool2d>(2, 2, 0, "stem.maxpool"));

  int in_ch = w;
  const int stage_width[4] = {w, 2 * w, 4 * w, 8 * w};
  const int stage_stride[4] = {1, 2, 2, 2};
  for (int s = 0; s < 4; ++s) {
    for (int b = 0; b < 2; ++b) {
      const int stride = b == 0 ? stage_stride[s] : 1;
      const std::string name = "layer" + std::to_string(s + 1) + "." + std::to_string(b);
      net->add(std::make_unique<BasicBlock>(in_ch, stage_width[s], stride, rng, name));
      in_ch = stage_width[s];
    }
  }
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Dropout>(0.3, cfg.seed + 101, "head.dropout"));
  net->add(std::make_unique<Linear>(in_ch, cfg.num_classes, rng, true, "fc"));
  return nn::Model(std::move(net), "resnet18");
}

nn::Model vgg19(const ModelConfig& cfg) {
  sp::Rng rng(cfg.seed);
  auto net = std::make_unique<Sequential>("vgg19");
  // Standard VGG-19 plan scaled by width/64; 'M' = maxpool.
  const int plan[] = {1, 1, 0, 2, 2, 0, 4, 4, 4, 4, 0, 8, 8, 8, 8, 0, 8, 8, 8, 8, 0};
  int in_ch = cfg.in_channels;
  int conv_id = 0, pool_id = 0;
  for (int p : plan) {
    if (p == 0) {
      net->add(std::make_unique<MaxPool2d>(2, 2, 0, "pool" + std::to_string(pool_id++)));
      continue;
    }
    const int out_ch = p * cfg.width;
    const std::string name = "conv" + std::to_string(conv_id++);
    net->add(std::make_unique<Conv2d>(in_ch, out_ch, 3, 1, 1, rng, false, name));
    net->add(std::make_unique<BatchNorm2d>(out_ch, name + ".bn"));
    net->add(std::make_unique<ReLU>(name + ".relu"));
    in_ch = out_ch;
  }
  net->add(std::make_unique<Flatten>());
  const int fc_w = 8 * cfg.width;
  net->add(std::make_unique<Linear>(in_ch, fc_w, rng, true, "fc0"));
  net->add(std::make_unique<ReLU>("fc0.relu"));
  net->add(std::make_unique<Dropout>(0.3, cfg.seed + 103, "fc0.dropout"));
  net->add(std::make_unique<Linear>(fc_w, fc_w, rng, true, "fc1"));
  net->add(std::make_unique<ReLU>("fc1.relu"));
  net->add(std::make_unique<Linear>(fc_w, cfg.num_classes, rng, true, "fc2"));
  return nn::Model(std::move(net), "vgg19");
}

nn::Model cnn7(const ModelConfig& cfg) {
  sp::Rng rng(cfg.seed);
  auto net = std::make_unique<Sequential>("cnn7");
  const int w = cfg.width;
  int in_ch = cfg.in_channels;
  for (int i = 0; i < 3; ++i) {
    const int out_ch = w << i;
    const std::string name = "conv" + std::to_string(i);
    net->add(std::make_unique<Conv2d>(in_ch, out_ch, 3, 1, 1, rng, true, name));
    net->add(std::make_unique<ReLU>(name + ".relu"));
    net->add(std::make_unique<MaxPool2d>(2, 2, 0, name + ".pool"));
    in_ch = out_ch;
  }
  net->add(std::make_unique<GlobalAvgPool>());
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Linear>(in_ch, 4 * w, rng, true, "fc0"));
  net->add(std::make_unique<ReLU>("fc0.relu"));
  net->add(std::make_unique<Linear>(4 * w, cfg.num_classes, rng, true, "fc1"));
  return nn::Model(std::move(net), "cnn7");
}

nn::Model mlp_head(const MlpHeadConfig& cfg) {
  sp::check(cfg.in_features >= 1 && cfg.hidden >= 1 && cfg.num_classes >= 1,
            "mlp_head: dimensions must be positive");
  sp::Rng rng(cfg.seed);
  auto net = std::make_unique<Sequential>("mlp_head");
  int fc_in = cfg.in_features;
  if (cfg.pool_window >= 2) {
    sp::check(cfg.pool_stride >= 1 && cfg.in_features % cfg.pool_stride == 0,
              "mlp_head: pool_stride must divide in_features");
    net->add(std::make_unique<nn::MaxPool1d>(cfg.pool_window, cfg.pool_stride, "pool"));
    fc_in = cfg.in_features / cfg.pool_stride;
  }
  net->add(std::make_unique<Linear>(fc_in, cfg.hidden, rng, true, "fc0"));
  net->add(std::make_unique<ReLU>("fc0.relu"));
  net->add(std::make_unique<Linear>(cfg.hidden, cfg.num_classes, rng, true, "fc1"));
  return nn::Model(std::move(net), "mlp_head");
}

nn::Model lenet_small(const LenetConfig& cfg) {
  sp::check(cfg.image >= 8 && cfg.in_channels >= 1 && cfg.conv1_channels >= 1 &&
                cfg.conv2_channels >= 1 && cfg.num_classes >= 1,
            "lenet_small: dimensions must be positive (image >= 8)");
  const int after_conv1 = cfg.image - 2;  // valid 3x3
  sp::check(cfg.pool >= 1 && after_conv1 % cfg.pool == 0,
            "lenet_small: pool must divide the post-conv1 resolution");
  const int after_pool = after_conv1 / cfg.pool;
  const int after_conv2 = after_pool - 2;
  sp::check(after_conv2 >= 1, "lenet_small: image too small for two 3x3 convs");

  sp::Rng rng(cfg.seed);
  auto net = std::make_unique<Sequential>("lenet_small");
  net->add(std::make_unique<Conv2d>(cfg.in_channels, cfg.conv1_channels, 3, 1, 0,
                                    rng, true, "conv1"));
  net->add(std::make_unique<ReLU>("conv1.relu"));
  net->add(std::make_unique<nn::AvgPool2d>(cfg.pool, cfg.pool, "pool"));
  net->add(std::make_unique<Conv2d>(cfg.conv1_channels, cfg.conv2_channels, 3, 1, 0,
                                    rng, true, "conv2"));
  net->add(std::make_unique<ReLU>("conv2.relu"));
  net->add(std::make_unique<Flatten>());
  net->add(std::make_unique<Linear>(cfg.conv2_channels * after_conv2 * after_conv2,
                                    cfg.num_classes, rng, true, "fc"));
  return nn::Model(std::move(net), "lenet_small");
}

}  // namespace sp::models
