#include "nn/container.h"

#include <fstream>

#include "common/check.h"
#include "nn/layers.h"

namespace sp::nn {

// ------------------------------------------------------------- Sequential --

Layer* Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  Tensor v = x;
  for (auto& l : layers_) v = l->forward(v, train);
  return v;
}

Tensor Sequential::backward(const Tensor& gy) {
  Tensor g = gy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& l : layers_) l->collect_params(out);
}

void Sequential::visit_children(const std::function<void(std::unique_ptr<Layer>&)>& fn) {
  for (auto& l : layers_) fn(l);
}

// ------------------------------------------------------------- BasicBlock --

BasicBlock::BasicBlock(int in_ch, int out_ch, int stride, sp::Rng& rng,
                       const std::string& name)
    : name_(name) {
  conv1_ = std::make_unique<Conv2d>(in_ch, out_ch, 3, stride, 1, rng, false, name + ".conv1");
  bn1_ = std::make_unique<BatchNorm2d>(out_ch, name + ".bn1");
  act1_ = std::make_unique<ReLU>(name + ".relu1");
  conv2_ = std::make_unique<Conv2d>(out_ch, out_ch, 3, 1, 1, rng, false, name + ".conv2");
  bn2_ = std::make_unique<BatchNorm2d>(out_ch, name + ".bn2");
  act2_ = std::make_unique<ReLU>(name + ".relu2");
  if (stride != 1 || in_ch != out_ch) {
    auto down = std::make_unique<Sequential>(name + ".down");
    down->add(std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, rng, false,
                                       name + ".down.conv"));
    down->add(std::make_unique<BatchNorm2d>(out_ch, name + ".down.bn"));
    down_ = std::move(down);
    used_downsample_ = true;
  }
}

Tensor BasicBlock::forward(const Tensor& x, bool train) {
  Tensor h = conv1_->forward(x, train);
  h = bn1_->forward(h, train);
  h = act1_->forward(h, train);
  h = conv2_->forward(h, train);
  h = bn2_->forward(h, train);
  Tensor s = used_downsample_ ? down_->forward(x, train) : x;
  sp::check(h.numel() == s.numel(), "BasicBlock: shortcut shape mismatch");
  for (std::size_t i = 0; i < h.numel(); ++i) h[i] += s[i];
  return act2_->forward(h, train);
}

Tensor BasicBlock::backward(const Tensor& gy) {
  Tensor g = act2_->backward(gy);  // gradient of (h + s)
  // Main path.
  Tensor gh = bn2_->backward(g);
  gh = conv2_->backward(gh);
  gh = act1_->backward(gh);
  gh = bn1_->backward(gh);
  gh = conv1_->backward(gh);
  // Shortcut path.
  Tensor gs = used_downsample_ ? down_->backward(g) : g;
  for (std::size_t i = 0; i < gh.numel(); ++i) gh[i] += gs[i];
  return gh;
}

void BasicBlock::collect_params(std::vector<Param*>& out) {
  conv1_->collect_params(out);
  bn1_->collect_params(out);
  act1_->collect_params(out);
  conv2_->collect_params(out);
  bn2_->collect_params(out);
  if (down_) down_->collect_params(out);
  act2_->collect_params(out);
}

void BasicBlock::visit_children(const std::function<void(std::unique_ptr<Layer>&)>& fn) {
  fn(conv1_);
  fn(bn1_);
  fn(act1_);
  fn(conv2_);
  fn(bn2_);
  if (down_) fn(down_);
  fn(act2_);
}

// ------------------------------------------------------------------ Model --

Model::Model(std::unique_ptr<Layer> root, std::string name)
    : name_(std::move(name)), root_(std::move(root)) {}

std::vector<Param*> Model::params() {
  if (!cache_valid_) {
    param_cache_.clear();
    root_->collect_params(param_cache_);
    cache_valid_ = true;
  }
  return param_cache_;
}

void Model::invalidate_params() { cache_valid_ = false; }

std::vector<Tensor> Model::state() {
  std::vector<Tensor> s;
  for (Param* p : params()) s.push_back(p->value);
  return s;
}

void Model::set_state(const std::vector<Tensor>& s) {
  auto ps = params();
  sp::check(s.size() == ps.size(), "Model::set_state: parameter count mismatch");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    sp::check(s[i].numel() == ps[i]->value.numel(), "Model::set_state: shape mismatch");
    ps[i]->value = s[i];
  }
}

void Model::save(const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  sp::check(f.good(), "Model::save: cannot open " + path);
  auto ps = params();
  const std::uint64_t count = ps.size();
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (Param* p : ps) {
    const std::uint64_t n = p->value.numel();
    f.write(reinterpret_cast<const char*>(&n), sizeof(n));
    f.write(reinterpret_cast<const char*>(p->value.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
  }
}

bool Model::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return false;
  auto ps = params();
  std::uint64_t count = 0;
  f.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (count != ps.size()) return false;
  for (Param* p : ps) {
    std::uint64_t n = 0;
    f.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (n != p->value.numel()) return false;
    f.read(reinterpret_cast<char*>(p->value.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  }
  return f.good();
}

}  // namespace sp::nn
