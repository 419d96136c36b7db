#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"

namespace sp::nn {

/// Ordered chain of layers. Child visit order equals execution order, which
/// the non-polynomial replacement pass relies on.
class Sequential : public Layer {
 public:
  explicit Sequential(const std::string& name = "seq") : name_(name) {}

  /// Appends a layer and returns a raw observer pointer.
  Layer* add(std::unique_ptr<Layer> layer);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void visit_children(const std::function<void(std::unique_ptr<Layer>&)>& fn) override;
  std::string name() const override { return name_; }

  std::size_t size() const { return layers_.size(); }
  Layer& at(std::size_t i) { return *layers_[i]; }
  /// Read-only child access (FhePipeline lowering walks the chain without
  /// mutating it).
  const Layer& at(std::size_t i) const { return *layers_[i]; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// ResNet basic block: conv-bn-act-conv-bn (+ optional downsample) -> act.
/// The two activation slots are replaceable children (ReLU -> PAF).
class BasicBlock final : public Layer {
 public:
  BasicBlock(int in_ch, int out_ch, int stride, sp::Rng& rng, const std::string& name);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& gy) override;
  void collect_params(std::vector<Param*>& out) override;
  void visit_children(const std::function<void(std::unique_ptr<Layer>&)>& fn) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::unique_ptr<Layer> conv1_, bn1_, act1_, conv2_, bn2_, act2_;
  std::unique_ptr<Layer> down_;  // nullptr when identity shortcut
  bool used_downsample_ = false;
};

/// Owning wrapper around a root layer: forward/backward entry points,
/// parameter enumeration, state snapshot/restore and binary persistence.
class Model {
 public:
  Model() = default;
  Model(std::unique_ptr<Layer> root, std::string name);

  const std::string& name() const { return name_; }
  Layer& root() { return *root_; }
  const Layer& root() const { return *root_; }

  Tensor forward(const Tensor& x, bool train = false) { return root_->forward(x, train); }
  void backward(const Tensor& gy) { root_->backward(gy); }

  /// All parameters in execution order (cached; invalidated on replace()).
  std::vector<Param*> params();
  /// Drops the cached parameter list (call after structural changes).
  void invalidate_params();

  /// Copies of all parameter values, for best-model tracking and SWA.
  std::vector<Tensor> state();
  void set_state(const std::vector<Tensor>& s);

  /// Binary save/load of parameter values (shape-checked on load).
  void save(const std::string& path);
  bool load(const std::string& path);

 private:
  std::string name_;
  std::unique_ptr<Layer> root_;
  std::vector<Param*> param_cache_;
  bool cache_valid_ = false;
};

}  // namespace sp::nn
