#include "train/plan.h"

#include <algorithm>
#include <iomanip>
#include <set>
#include <sstream>

#include "common/check.h"
#include "fhe/poly_eval.h"

namespace sp::train {
namespace {

/// Nonzero extended-diagonal steps of a dense rows x cols matrix: every s in
/// [-(rows-1), cols-1]. The trainer's X and X^T are dense by construction
/// (Gaussian features), so the schedule is data-independent and can be
/// planned before any batch exists.
std::vector<int> dense_steps(int rows, int cols) {
  std::vector<int> steps;
  steps.reserve(static_cast<std::size_t>(rows + cols - 1));
  for (int s = -(rows - 1); s <= cols - 1; ++s) steps.push_back(s);
  return steps;
}

}  // namespace

TrainPlan TrainPlan::plan(const TrainConfig& cfg, const fhe::CkksContext& ctx) {
  sp::check(cfg.features >= 1, "train: need at least 1 feature");
  sp::check(cfg.batch >= 1, "train: need at least 1 row per batch");
  sp::check(cfg.iterations >= 1, "train: need at least 1 iteration");
  sp::check(cfg.sigmoid_degree == 3 || cfg.sigmoid_degree == 5,
            "train: sigmoid_degree must be 3 or 5");
  sp::check(cfg.sigmoid_range > 0.0, "train: sigmoid_range must be positive");
  sp::check_fmt(static_cast<std::size_t>(std::max(cfg.features, cfg.batch)) <=
                    ctx.slot_count(),
                "train: batch/features exceed the ", ctx.slot_count(),
                " available slots");
  if (cfg.optimizer == Optimizer::Adam) {
    sp::check(cfg.invsqrt_degree >= 2, "train: invsqrt_degree must be >= 2");
    sp::check(cfg.adam_eps > 0.0, "train: adam_eps must be positive");
    sp::check(cfg.vhat_max > 0.0, "train: vhat_max must be positive");
  }

  TrainPlan p;
  p.config = cfg;

  // One fit per plan; the minimax errors feed describe() and the trainer's
  // documented per-iteration parity bound.
  p.sigmoid = approx::sigmoid_paf(cfg.sigmoid_degree, cfg.sigmoid_range);
  if (cfg.optimizer == Optimizer::Adam)
    p.invsqrt = approx::invsqrt_paf(cfg.invsqrt_degree, cfg.vhat_max, cfg.adam_eps);

  // BSGS schedules for the two dense matvecs of one step. X is B x d, X^T is
  // d x B: the transpose's steps are the forward's negated, so a client packs
  // X^T's diagonals directly at encrypt time (no homomorphic repacking).
  const auto schedule = [&](int rows, int cols) {
    const std::vector<int> steps = dense_steps(rows, cols);
    return fhe::diagonal_schedule(
        steps, cfg.matvec_n1 > 0 ? cfg.matvec_n1
                                 : fhe::fewest_rotations_n1(steps, rows + cols));
  };
  p.forward = schedule(cfg.batch, cfg.features);
  p.transpose = schedule(cfg.features, cfg.batch);

  // Per-step depth breakdown. Every entry is a rescale the step cannot avoid;
  // the optimizer updates themselves ride along at the levels already paid
  // (SGD-momentum is linear; Adam pays for its moments and the invsqrt PAF).
  const int depth_sig = fhe::PafEvaluator::mult_depth(p.sigmoid.poly);
  p.per_step.push_back({"forward matvec X*w", 1});
  p.per_step.push_back(
      {"sigmoid PAF deg " + std::to_string(cfg.sigmoid_degree), depth_sig});
  p.per_step.push_back({"gradient matvec X^T*err", 1});
  if (cfg.optimizer == Optimizer::Adam) {
    const int depth_inv = fhe::PafEvaluator::mult_depth(p.invsqrt.poly);
    p.per_step.push_back({"second moment g^2", 1});
    p.per_step.push_back({"moment blend", 1});
    p.per_step.push_back(
        {"invsqrt PAF deg " + std::to_string(cfg.invsqrt_degree), depth_inv});
    p.per_step.push_back({"update product m*d", 1});
  }
  p.levels_per_step = 0;
  for (const auto& s : p.per_step) p.levels_per_step += s.levels;

  p.chain_levels = static_cast<int>(ctx.q_count()) - 1;
  p.levels_used = cfg.iterations * p.levels_per_step;

  // The pre-flight rejection: without bootstrapping, iterations x per-step
  // depth is a hard budget. Mirrors the Planner's inference-side wording so
  // the two diagnostics read the same.
  if (p.levels_used > p.chain_levels) {
    std::ostringstream os;
    os << "train: plan needs " << p.levels_used << " levels (" << cfg.iterations
       << " iterations x " << p.levels_per_step
       << " levels/step) but the chain has " << p.chain_levels << " (";
    for (std::size_t i = 0; i < p.per_step.size(); ++i) {
      if (i) os << ", ";
      os << p.per_step[i].label << ": " << p.per_step[i].levels;
    }
    os << "); use a deeper prime chain, fewer iterations or a shallower PAF";
    throw sp::Error(os.str());
  }
  return p;
}

std::string TrainPlan::describe() const {
  std::ostringstream os;
  os << "TrainPlan: " << config.iterations << " iterations of "
     << (config.optimizer == Optimizer::Adam ? "adam" : "sgd-momentum") << " ("
     << config.batch << " x " << config.features << " batches), "
     << levels_per_step << " levels/step, " << levels_used << "/" << chain_levels
     << " levels\n";
  for (std::size_t i = 0; i < per_step.size(); ++i) {
    os << "  [" << i << "] " << std::left << std::setw(26) << per_step[i].label
       << " " << per_step[i].levels
       << (per_step[i].levels == 1 ? " level" : " levels") << "\n";
  }
  os << "  forward  " << config.batch << "x" << config.features << " n1="
     << forward.n1 << " rot=" << forward.rotations() << "\n";
  os << "  gradient " << config.features << "x" << config.batch << " n1="
     << transpose.n1 << " rot=" << transpose.rotations() << "\n";
  os << "  sigmoid deg " << sigmoid.degree << " on [-" << sigmoid.range << ", "
     << sigmoid.range << "], minimax err " << std::scientific
     << std::setprecision(2) << sigmoid.max_error;
  if (config.optimizer == Optimizer::Adam) {
    os << "\n  invsqrt deg " << invsqrt.degree << " on [0, " << std::defaultfloat
       << invsqrt.vmax << "] eps " << invsqrt.eps << ", minimax err "
       << std::scientific << std::setprecision(2) << invsqrt.max_error;
  }
  return os.str();
}

std::vector<int> TrainPlan::rotation_steps() const {
  std::set<int> all;
  for (int s : forward.steps()) all.insert(s);
  for (int s : transpose.steps()) all.insert(s);
  return std::vector<int>(all.begin(), all.end());
}

}  // namespace sp::train
