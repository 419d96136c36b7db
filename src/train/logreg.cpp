#include "train/logreg.h"

#include <cmath>

#include "common/check.h"

namespace sp::train {
namespace {

bool config_equal(const TrainConfig& a, const TrainConfig& b) {
  return a.features == b.features && a.batch == b.batch &&
         a.iterations == b.iterations && a.optimizer == b.optimizer &&
         a.lr == b.lr && a.momentum == b.momentum && a.beta1 == b.beta1 &&
         a.beta2 == b.beta2 && a.adam_eps == b.adam_eps &&
         a.sigmoid_degree == b.sigmoid_degree &&
         a.sigmoid_range == b.sigmoid_range &&
         a.invsqrt_degree == b.invsqrt_degree && a.vhat_max == b.vhat_max &&
         a.matvec_n1 == b.matvec_n1;
}

}  // namespace

EncryptedLogReg::EncryptedLogReg(const TrainPlan& plan, smartpaf::FheRuntime& rt)
    : plan_(plan),
      rt_(&rt),
      gk_(rt.rotation_keys(plan.rotation_steps())),
      sigmoid_over_b_(plan.sigmoid.poly.scaled(1.0 / plan.config.batch)) {
  state_.config = plan.config;
  const std::vector<double> zero(static_cast<std::size_t>(plan.config.features), 0.0);
  state_.weights = rt.encrypt(zero);
  if (plan.config.optimizer == Optimizer::SgdMomentum) {
    state_.velocity = rt.encrypt(zero);
  } else {
    state_.m = rt.encrypt(zero);
    state_.v = rt.encrypt(zero);
  }
}

EncryptedLogReg::EncryptedLogReg(const TrainPlan& plan, smartpaf::FheRuntime& rt,
                                 TrainingState state)
    : plan_(plan),
      rt_(&rt),
      gk_(rt.rotation_keys(plan.rotation_steps())),
      sigmoid_over_b_(plan.sigmoid.poly.scaled(1.0 / plan.config.batch)),
      state_(std::move(state)) {
  sp::check(config_equal(state_.config, plan.config),
            "EncryptedLogReg: checkpoint config does not match the plan "
            "(level schedule and folded constants depend on it)");
  sp::check(state_.iteration <= static_cast<std::uint32_t>(plan.config.iterations),
            "EncryptedLogReg: checkpoint is past the planned iterations");
  const int remaining =
      plan.config.iterations - static_cast<int>(state_.iteration);
  sp::check_fmt(state_.weights.level() >= remaining * plan.levels_per_step,
                "EncryptedLogReg: checkpoint has ", state_.weights.level(),
                " levels left but ", remaining, " steps need ",
                remaining * plan.levels_per_step);
  if (plan.config.optimizer == Optimizer::SgdMomentum) {
    sp::check(state_.velocity.has_value(),
              "EncryptedLogReg: SgdMomentum checkpoint is missing its velocity");
  } else {
    sp::check(state_.m.has_value() && state_.v.has_value(),
              "EncryptedLogReg: Adam checkpoint is missing its moments");
  }
}

void EncryptedLogReg::step(const EncryptedBatch& batch) {
  sp::check(state_.iteration < static_cast<std::uint32_t>(plan_.config.iterations),
            "EncryptedLogReg: the plan's iterations are already spent (plan "
            "more before stepping further)");
  auto& ev = rt_->evaluator();

  // z = X w, one level.
  fhe::Ciphertext z =
      batch.forward.apply(ev, state_.weights, *gk_, rt_->relin_key());
  // p/B = sigma(z)/B — the 1/B of the mean gradient rides the coefficients.
  fhe::Ciphertext p = rt_->paf_evaluator().eval_poly(ev, z, sigmoid_over_b_);
  // err = (p - y)/B; labels were packed as y/B at the same encode scale the
  // PAF emits (ctx.scale()), so the subtraction at p's level is exact.
  fhe::Ciphertext err = ev.sub(p, batch.labels, p.level());
  // (lr *) grad = (lr *) X^T err, one level.
  fhe::Ciphertext g = batch.gradient.apply(ev, err, *gk_, rt_->relin_key());

  if (plan_.config.optimizer == Optimizer::SgdMomentum) {
    step_sgd(batch, g);
  } else {
    step_adam(batch, g);
  }
  ++state_.iteration;
}

void EncryptedLogReg::step_sgd(const EncryptedBatch&,
                               const fhe::Ciphertext& grad_lr) {
  // nn::Sgd: vel = momentum * vel + g; w -= lr * vel. Tracking u = lr * vel
  // makes the update linear in what we already have: u = momentum * u +
  // lr * g (the gradient matrix carries the lr), then w -= u — no extra
  // level beyond the gradient's own.
  auto& ev = rt_->evaluator();
  fhe::Ciphertext u = fhe::scaled_to(ev, *state_.velocity, plan_.config.momentum,
                                     grad_lr.level(), grad_lr.scale);
  ev.add_inplace(u, grad_lr);
  fhe::Ciphertext w = fhe::scaled_to(ev, state_.weights, 1.0, u.level(), u.scale);
  state_.weights = ev.sub(w, u);
  state_.velocity = std::move(u);
}

void EncryptedLogReg::step_adam(const EncryptedBatch&, const fhe::Ciphertext& g) {
  const auto& ctx = rt_->ctx();
  auto& ev = rt_->evaluator();
  const TrainConfig& cfg = plan_.config;

  // Second moment input: g^2 (one ct-ct level).
  fhe::Ciphertext g2 = ev.multiply(g, g);
  ev.relinearize_rescale_inplace(g2, rt_->relin_key());

  // This step's bias corrections (t is 1-based in Adam's algebra).
  const auto t = static_cast<double>(state_.iteration) + 1.0;
  const double bc1 = 1.0 - std::pow(cfg.beta1, t);
  const double bc2 = 1.0 - std::pow(cfg.beta2, t);
  const double bc2_prev = 1.0 - std::pow(cfg.beta2, t - 1.0);  // 0 at t = 1

  // Moment blend (one level): both moments land on one exact (level, scale).
  // The second moment is kept BIAS-CORRECTED (state v holds vhat = v / bc2):
  //   vhat_t = (1-beta2)/bc2(t) * g^2 + beta2 * bc2(t-1)/bc2(t) * vhat_{t-1}
  // Folding 1/bc2 into these blend scalars keeps every encoded constant
  // O(1); folding it into the PAF coefficients instead would need
  // c_k / bc2^k ~ 1e15 at t = 1, far past what a slot can encode.
  const double s = ctx.scale();
  const int lb = g2.level() - 1;
  fhe::Ciphertext v_new = fhe::scaled_to(ev, g2, (1.0 - cfg.beta2) / bc2, lb, s);
  ev.add_inplace(v_new, fhe::scaled_to(ev, *state_.v, cfg.beta2 * bc2_prev / bc2, lb, s));
  fhe::Ciphertext m_new = fhe::scaled_to(ev, g, 1.0 - cfg.beta1, lb, s);
  ev.add_inplace(m_new, fhe::scaled_to(ev, *state_.m, cfg.beta1, lb, s));

  // Denominator PAF: vhat is already the fit's variable, so only
  //   lr * mhat / sqrt(vhat + eps) = m_new * sum_k (c_k * lr / bc1) vhat^k
  // remains to fold — lr/bc1 is bounded by lr/(1-beta1), so bias
  // correction still costs zero homomorphic operations.
  std::vector<double> c = plan_.invsqrt.poly.coeffs();
  for (std::size_t k = 0; k < c.size(); ++k) c[k] *= cfg.lr / bc1;
  fhe::Ciphertext denom =
      rt_->paf_evaluator().eval_poly(ev, v_new, approx::Polynomial(std::move(c)));

  // Update product (one level), then w -= lr * mhat * invsqrt(vhat).
  fhe::Ciphertext upd = ev.multiply(m_new, denom, denom.level());
  ev.relinearize_rescale_inplace(upd, rt_->relin_key());
  fhe::Ciphertext w = fhe::scaled_to(ev, state_.weights, 1.0, upd.level(), upd.scale);
  state_.weights = ev.sub(w, upd);
  state_.m = std::move(m_new);
  state_.v = std::move(v_new);
}

std::vector<double> EncryptedLogReg::weights() const {
  std::vector<double> slots = rt_->decrypt(state_.weights);
  slots.resize(static_cast<std::size_t>(plan_.config.features));
  return slots;
}

double binary_accuracy(const std::vector<double>& w, const data::DesignMatrix& dm) {
  sp::check(static_cast<int>(w.size()) == dm.cols,
            "binary_accuracy: weight/feature dimension mismatch");
  sp::check(dm.rows > 0, "binary_accuracy: empty design matrix");
  int correct = 0;
  for (int i = 0; i < dm.rows; ++i) {
    double score = 0.0;
    for (int j = 0; j < dm.cols; ++j)
      score += dm.x[static_cast<std::size_t>(i) * dm.cols + j] * w[static_cast<std::size_t>(j)];
    const int pred = score >= 0.0 ? 1 : 0;
    if (pred == dm.y[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) / dm.rows;
}

}  // namespace sp::train
