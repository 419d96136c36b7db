#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "nn/tensor.h"

namespace sp::nn {

/// Parameter group: SMART-PAF's Alternate Training (§4.4) trains PAF
/// coefficients and all other parameters with different hyperparameters and
/// alternately freezes one group.
enum class ParamGroup { PafCoeff, Other };

/// A trainable parameter: value + gradient + group/freeze metadata.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  ParamGroup group = ParamGroup::Other;
  bool frozen = false;
};

/// What backward() checks before it reads a layer's forward cache: the last
/// forward must have been a training one, and the gradient must have that
/// forward's output shape. Otherwise the cache belongs to another input.
class BackwardGuard {
 public:
  /// Called by forward() with its output.
  void record(const Tensor& y, bool train) {
    out_shape_ = y.shape();
    trained_ = train;
  }
  /// Throws sp::Error naming `layer` unless `gy` fits the last forward.
  void check(const std::string& layer, const Tensor& gy) const {
    sp::check_fmt(trained_ && gy.shape() == out_shape_, layer,
                  ": backward needs a training forward of the same shape");
  }

 private:
  bool trained_ = false;
  std::vector<int> out_shape_;
};

/// Base class of every network component. Layers own their activations
/// cache: forward(train=true) must be followed by exactly one backward().
class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& x, bool train) = 0;
  /// Propagates dL/dy to dL/dx, accumulating parameter gradients.
  virtual Tensor backward(const Tensor& gy) = 0;

  /// Appends this layer's (and children's) parameters.
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }

  /// Visits direct child layer *slots* so a pass can replace children
  /// in-place (non-polynomial operator replacement). Leaves do nothing.
  virtual void visit_children(const std::function<void(std::unique_ptr<Layer>&)>& fn) {
    (void)fn;
  }

  virtual std::string name() const = 0;

  /// True for operators CKKS cannot evaluate natively (ReLU, MaxPool).
  virtual bool is_nonpoly() const { return false; }
};

}  // namespace sp::nn
