#pragma once

#include <string>
#include <vector>

#include "approx/presets.h"
#include "fhe/context.h"
#include "fhe/linear_transform.h"

namespace sp::train {

/// Encrypted optimizer menu. SgdMomentum is exact under FHE (the update rule
/// is linear — it costs only levels); Adam needs the inverse-sqrt PAF for
/// m_hat / sqrt(v_hat + eps) and pays ~2.5x the depth per step.
enum class Optimizer { SgdMomentum, Adam };

/// Everything one encrypted logistic-regression run is parameterized by.
/// Serialized verbatim into TrainingState checkpoints: resuming under a
/// different config is refused, because the level schedule, the fitted PAF
/// and the folded constants would silently disagree.
struct TrainConfig {
  int features = 4;      ///< model dimension d (weights occupy slots [0, d))
  int batch = 8;         ///< mini-batch rows B packed per EncryptedBatch
  int iterations = 3;    ///< steps the pre-flight budgets the chain for
  Optimizer optimizer = Optimizer::SgdMomentum;
  double lr = 0.25;
  double momentum = 0.9;     ///< SgdMomentum only
  double beta1 = 0.9;        ///< Adam only
  double beta2 = 0.999;      ///< Adam only
  double adam_eps = 0.1;     ///< eps INSIDE the invsqrt PAF: 1/sqrt(v + eps)
  int sigmoid_degree = 3;    ///< 3 (depth 2) or 5 (depth 3)
  double sigmoid_range = 8.0;   ///< fitted |z| bound R (arXiv:2405.15201)
  int invsqrt_degree = 5;    ///< Adam only; depth ceil(log2(deg + 1))
  double vhat_max = 1.0;     ///< Adam only: fitted v-hat upper bound
  int matvec_n1 = 0;         ///< BSGS baby block; 0 = minimize rotations
};

/// One row of the per-step depth breakdown (describe() and the rejection
/// diagnostic both print it).
struct StepCost {
  std::string label;
  int levels = 0;
};

/// The validated pre-flight of an encrypted training run: per-step depth
/// economics, the two BSGS matvec schedules, and the fitted PAFs — produced
/// before any ciphertext exists, exactly like smartpaf::Planner for
/// inference pipelines. A run deeper than the chain is rejected here with
/// the per-step breakdown, because there is no bootstrapping to fall back
/// on: iterations x levels/step is a hard budget.
struct TrainPlan {
  TrainConfig config;
  std::vector<StepCost> per_step;     ///< depth breakdown of ONE iteration
  int levels_per_step = 0;            ///< sum of per_step
  int chain_levels = 0;               ///< levels the prime chain offers
  int levels_used = 0;                ///< iterations * levels_per_step
  fhe::LtSchedule forward;            ///< z = X w      (B x d, dense)
  fhe::LtSchedule transpose;          ///< grad = X^T e (d x B, dense)
  approx::SigmoidPaf sigmoid;         ///< fitted once per plan
  approx::InvSqrtPaf invsqrt;         ///< Adam only (default-initialized otherwise)

  /// @brief Validates `cfg` against the chain and fits the PAFs; throws
  /// sp::Error with the per-step breakdown when iterations x depth exceeds
  /// the chain's levels.
  static TrainPlan plan(const TrainConfig& cfg, const fhe::CkksContext& ctx);

  /// @brief Human-readable plan: budget line plus one row per step
  /// component with its level cost and schedule.
  std::string describe() const;

  /// @brief Union of every rotation step both matvec schedules need — pass
  /// to FheRuntime::rotation_keys for one up-front keygen.
  std::vector<int> rotation_steps() const;
};

}  // namespace sp::train
