#include "nn/trainer.h"

#include "nn/loss.h"

namespace sp::nn {

Trainer::Trainer(Model& model, const Dataset& train, const Dataset& val, TrainConfig cfg)
    : model_(&model), train_(&train), val_(&val), cfg_(cfg), rng_(cfg.seed),
      opt_(model.params(), cfg.paf_hp, cfg.other_hp) {}

void Trainer::rebind() { opt_.rebind(model_->params()); }

EpochResult Trainer::run_epoch() {
  EpochResult res;
  BatchIterator it(*train_, cfg_.batch_size, rng_, /*shuffle=*/true);
  Batch b;
  double loss_sum = 0.0;
  int correct = 0, seen = 0, batches = 0;
  while (it.next(b)) {
    opt_.zero_grad();
    const Tensor logits = model_->forward(b.x, /*train=*/true);
    const LossResult l = softmax_cross_entropy(logits, b.y);
    model_->backward(l.grad);
    opt_.step();
    loss_sum += l.loss;
    correct += l.correct;
    seen += static_cast<int>(b.y.size());
    ++batches;
  }
  res.train_loss = batches ? loss_sum / batches : 0.0;
  res.train_acc = seen ? static_cast<double>(correct) / seen : 0.0;
  res.val_acc = evaluate_accuracy(*model_, *val_, cfg_.batch_size);
  return res;
}

double evaluate_accuracy(Model& model, const Dataset& ds, int batch_size) {
  sp::Rng eval_rng(1);  // unused (no shuffle)
  BatchIterator it(ds, batch_size, eval_rng, /*shuffle=*/false);
  Batch b;
  int correct = 0, seen = 0;
  while (it.next(b)) {
    const Tensor logits = model.forward(b.x, /*train=*/false);
    for (int n = 0; n < logits.dim(0); ++n) {
      int argmax = 0;
      for (int c = 1; c < logits.dim(1); ++c)
        if (logits.at(n, c) > logits.at(n, argmax)) argmax = c;
      if (argmax == b.y[static_cast<std::size_t>(n)]) ++correct;
      ++seen;
    }
  }
  return seen ? static_cast<double>(correct) / seen : 0.0;
}

}  // namespace sp::nn
