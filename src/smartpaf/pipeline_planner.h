#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fhe/poly_eval.h"
#include "smartpaf/pipeline.h"

namespace sp::smartpaf {

/// Per-operation cost table the Planner weighs schedule candidates with.
///
/// `heuristic()` reproduces the historical ct-ct-mult-count model as
/// relative unit weights: it picks BSGS and hoisted fans exactly like the
/// pre-planner code paths. Every caller plans with it; a hand-built table
/// only pins planner decisions in tests.
struct CostModel {
  double ct_mult_ms = 1.0;
  double relin_ms = 0.3;
  double rescale_ms = 0.15;
  double plain_mult_ms = 0.05;
  double rotate_ms = 1.0;          ///< naive rotation (decompose + key inner product)
  double hoist_ms = 0.25;          ///< one-time fan decomposition
  double hoisted_rotate_ms = 0.5;  ///< per-rotation cost after hoisting

  /// @brief The historical ct-ct-mult-count model as relative unit weights.
  static CostModel heuristic() { return CostModel(); }

  /// @brief Predicted cost (units of the table's weights) of a schedule's
  /// mult/relin/rescale/plain counts.
  double eval_cost(const fhe::SchedulePrediction& ops) const;
  /// @brief Predicted cost of a rotation fan of `fan_size` steps.
  double fan_cost(int fan_size, bool hoisted) const;
};

/// The planned execution of one pipeline stage.
struct StagePlan {
  std::string label;
  int level_in = 0;   ///< levels remaining when the stage starts
  int level_out = 0;  ///< levels remaining after the stage
  bool folded = false;       ///< linear stage folded into the next PAF stage
  double pre_factor = 1.0;   ///< PAF-ReLU: scalar folded into the envelope
  /// PAF stages: the schedule run_blocks builds the stage's evaluator with.
  fhe::PafEvaluator::Strategy strategy = fhe::PafEvaluator::Strategy::BSGS;
  bool hoist_fan = true;           ///< rotation fans share one decomposition
  /// Hoistable fan from the stage input (pool taps, and the baby steps of
  /// every input block of a rotation-sum stage).
  std::vector<int> rotation_steps;
  /// Rotation-sum stages: naive giant-step rotations of the group sums.
  std::vector<int> giant_steps;
  /// Rotation-sum stages (window, compact, matmul, conv): the split of the
  /// stage's fhe::LinearTransform — 0 = pure rotation fan, >= 1 = baby block
  /// size (matmul splits the diagonal step, conv the channel offset).
  /// -1 for linear and PAF stages.
  int n1 = -1;
  StageLayout layout_in;           ///< slot layout entering the stage
  StageLayout layout_out;          ///< ... and leaving it
  fhe::SchedulePrediction ops;     ///< predicted evaluator op counts
  double predicted_cost = 0.0;     ///< CostModel-weighted stage cost
};

/// A validated, inspectable execution plan: per-stage levels, schedules and
/// predicted costs, produced before any ciphertext exists.
struct Plan {
  std::vector<StagePlan> stages;
  int chain_levels = 0;   ///< levels the prime chain offers
  int levels_used = 0;    ///< levels the planned pipeline consumes
  /// Slot-layout repeat stride (packed requests); 0 = one layout over
  /// the whole slot vector. MatMul diagonals and compact masks replicate at
  /// this stride so every packed request computes its own product.
  std::size_t pack_stride = 0;
  double predicted_cost = 0.0;

  /// @brief Human-readable plan: one line per stage with level span,
  /// schedule choice, fan/hoisting, fold target and predicted cost.
  std::string describe() const;

  /// @brief Union of every stage's rotation steps — baby fans AND giant
  /// steps — sorted and deduplicated; pass to FheRuntime::rotation_keys for
  /// one up-front keygen.
  std::vector<int> rotation_steps() const;
};

/// Planner options (everything optional).
struct PlanOptions {
  /// Pins every PAF stage's schedule (benchmark forcing); unset = BSGS,
  /// whose prediction never exceeds Ladder's.
  std::optional<fhe::PafEvaluator::Strategy> force_strategy;
  /// Pins fan hoisting; unset = hoist when the cost model says it pays.
  std::optional<bool> force_hoist;
  /// Pins every MatMul and Conv stage's split (0 = the pure rotation fan,
  /// the im2col baseline; 1 = one giant rotation per diagonal, the naive
  /// diagonal loop); unset = pick the n1 minimizing rotate/hoist/mask-mult
  /// cost under the cost table. Window and compact stages are pure fans.
  std::optional<int> force_n1;
  /// Slot-layout repeat stride for packed batches (0 = whole slot vector):
  /// widths are validated against it and MatMul/Compact plaintexts
  /// replicate per request. Packing callers pass their request stride.
  std::size_t pack_stride = 0;
};

/// Validates a pipeline against a prime chain and chooses per-stage
/// schedules by predicted cost.
class Planner {
 public:
  /// @brief Plans `pipe` for the chain described by `ctx`.
  ///
  /// Validation: stage shapes (window taps and pool windows vs slot count,
  /// matmul/compact slot-layout widths) and the end-to-end level budget — a
  /// pipeline deeper than the chain is rejected with a per-stage level
  /// breakdown in the error message.
  /// Decisions: scalar-linear folding into PAF envelopes, the n1 split of every
  /// matmul/conv rotation-sum and hoisted-vs-naive rotation fans — all by
  /// `cost.eval_cost`/`fan_cost`. PAF stages run BSGS with lazy-relin joins
  /// unless `force_strategy` pins Ladder. Planning is deterministic: the
  /// same pipeline and cost table always produce the same plan, so the
  /// process that runs a plan makes its own.
  /// @param pipe  the stage graph
  /// @param ctx   parameter set to validate against (no keys needed)
  /// @param cost  cost table (CostModel::heuristic() outside tests)
  /// @param opts  overrides (forced strategies for benchmarking, etc.)
  static Plan plan(const FhePipeline& pipe, const fhe::CkksContext& ctx,
                   const CostModel& cost, const PlanOptions& opts = {});
};

}  // namespace sp::smartpaf
