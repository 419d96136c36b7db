#include "smartpaf/pipeline_planner.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <set>
#include <sstream>

#include "common/check.h"

namespace sp::smartpaf {

// ---------------------------------------------------------------- CostModel --

double CostModel::eval_cost(const fhe::SchedulePrediction& ops) const {
  return ops.ct_mults * ct_mult_ms + ops.relins * relin_ms +
         ops.rescales * rescale_ms + ops.plain_mults * plain_mult_ms;
}

double CostModel::fan_cost(int fan_size, bool hoisted) const {
  if (fan_size <= 0) return 0.0;
  return hoisted ? hoist_ms + fan_size * hoisted_rotate_ms : fan_size * rotate_ms;
}

// --------------------------------------------------------------------- Plan --

std::string Plan::describe() const {
  std::ostringstream os;
  os << "FhePipeline plan: " << stages.size() << " stages, " << levels_used << "/"
     << chain_levels << " levels, predicted cost " << std::fixed
     << std::setprecision(2) << predicted_cost << " units\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StagePlan& s = stages[i];
    os << "  [" << i << "] " << std::left << std::setw(26) << s.label << std::right;
    if (s.folded) {
      os << "folded into the next PAF stage\n";
      continue;
    }
    os << "L" << s.level_in << "->L" << s.level_out;
    const bool structured = s.layout_in.kind == StageLayout::Kind::Grid ||
                            s.layout_out.kind == StageLayout::Kind::Grid ||
                            s.layout_in.blocks > 1 || s.layout_out.blocks > 1;
    if (structured) {
      os << "  " << s.layout_in.describe();
      if (s.layout_out.describe() != s.layout_in.describe())
        os << " -> " << s.layout_out.describe();
    } else if (s.layout_in.width != s.layout_out.width) {
      os << "  w" << s.layout_in.width << "->" << s.layout_out.width;
    }
    if (!s.rotation_steps.empty()) {
      if (s.rotation_steps.size() <= 8) {
        os << "  fan{";
        for (std::size_t t = 0; t < s.rotation_steps.size(); ++t)
          os << (t ? "," : "") << s.rotation_steps[t];
        os << "}";
      } else {
        os << "  fan[" << s.rotation_steps.size() << " steps]";
      }
      os << (s.hoist_fan ? " hoisted" : " naive");
    }
    if (s.n1 > 0) os << "  bsgs n1=" << s.n1 << " giants=" << s.giant_steps.size();
    if (s.n1 >= 0) os << "  masks=" << s.ops.plain_mults;
    if (s.ops.ct_mults > 0) {
      os << "  " << (s.strategy == fhe::PafEvaluator::Strategy::BSGS ? "BSGS" : "Ladder")
         << " lazy-relin  " << s.ops.ct_mults
         << " ct-mults";
      if (s.pre_factor != 1.0) os << "  pre x" << s.pre_factor;
    }
    os << "  cost " << std::fixed << std::setprecision(2) << s.predicted_cost << "\n";
  }
  return os.str();
}

std::vector<int> Plan::rotation_steps() const {
  std::set<int> uniq;
  for (const StagePlan& s : stages) {
    for (int step : s.rotation_steps) uniq.insert(step);
    for (int step : s.giant_steps) uniq.insert(step);
  }
  return std::vector<int>(uniq.begin(), uniq.end());
}

// ------------------------------------------------------------------ Planner --

namespace {

/// Split candidates of one rotation-sum stage: matmul 1..n1_max (split on
/// the diagonal step, unit 1), conv 0..n1_max (0 = the im2col fan; split on
/// the channel offset, unit ch_stride), window and compact the plain fan
/// only. n1_max caps near 2 sqrt(span), past which giants stop shrinking.
struct SplitCandidates {
  std::vector<int> n1s;
  int unit = 1;  ///< fhe::split_schedule's rotation per split key
};

SplitCandidates split_candidates(const Stage& st, const StageLayout& in,
                                 const PlanOptions& opts) {
  int span = 0, lo = 0, unit = 1;
  if (const auto* mm = std::get_if<MatMulStage>(&st.op)) {
    for (const MatMulStage& b : split_matmul_blocks(*mm, in))
      span = std::max(span, b.rows + b.cols - 1);
    lo = 1;
  } else if (const auto* cv = std::get_if<ConvStage>(&st.op)) {
    span = std::min(in.chans_per_block, cv->in_channels) +
           std::min(in.chans_per_block, cv->out_channels) - 1;
    unit = in.ch_stride;
  } else {
    return {{0}, unit};
  }
  if (opts.force_n1) {
    sp::check(*opts.force_n1 >= 0, "Planner: force_n1 must be >= 0");
    return {{*opts.force_n1}, unit};
  }
  const int n1_max = std::min(
      span, 2 * static_cast<int>(std::ceil(std::sqrt(static_cast<double>(span)))) + 1);
  SplitCandidates out{{}, unit};
  for (int n1 = lo; n1 <= n1_max; ++n1) out.n1s.push_back(n1);
  return out;
}

/// Prices one rotation-sum schedule into `sp_`: per input block a baby fan
/// (hoisted when the table says it pays, unless pinned), one naive rotation
/// per nonzero giant group, one plaintext mult per mask and one rescale per
/// output block.
void price_schedule(const fhe::LtSchedule& s, const CostModel& cost,
                    std::optional<bool> force_hoist, StagePlan& sp_) {
  std::set<int> babies;
  int fan_rots = 0;
  double rot_cost = 0.0;
  sp_.hoist_fan = false;
  for (int bi = 0; bi < s.blocks_in; ++bi) {
    const std::vector<int> fan = s.fan_steps(bi);
    const int n = static_cast<int>(fan.size());
    const bool h =
        n > 0 && force_hoist.value_or(cost.fan_cost(n, true) <= cost.fan_cost(n, false));
    sp_.hoist_fan = sp_.hoist_fan || h;
    rot_cost += cost.fan_cost(n, h);
    fan_rots += n;
    babies.insert(fan.begin(), fan.end());
  }
  rot_cost += static_cast<double>(s.rotations() - fan_rots) * cost.rotate_ms;
  sp_.n1 = s.n1;
  sp_.rotation_steps.assign(babies.begin(), babies.end());
  sp_.giant_steps = s.giant_steps();
  sp_.ops = fhe::SchedulePrediction{};
  sp_.ops.plain_mults = s.mask_mults();
  sp_.ops.rescales = s.blocks_out;
  sp_.predicted_cost = cost.eval_cost(sp_.ops) + rot_cost;
}

}  // namespace

Plan Planner::plan(const FhePipeline& pipe, const fhe::CkksContext& ctx,
                   const CostModel& cost, const PlanOptions& opts) {
  const auto& stages = pipe.stages();
  sp::check(!stages.empty(), "Planner: empty pipeline");
  const auto slots = ctx.slot_count();
  const int chain = ctx.q_count() - 1;
  const std::size_t extent = opts.pack_stride != 0 ? opts.pack_stride : slots;
  sp::check_fmt(extent <= slots && slots % extent == 0, "Planner: pack stride ",
                extent, " must divide the ", slots, " slots");
  if (opts.pack_stride != 0)
    sp::check_fmt(pipe.input_width() <= extent, "Planner: input width ",
                  pipe.input_width(), " exceeds the ", extent, "-slot layout");

  // Slot layouts threaded through the graph (grid strides, channel blocking,
  // multi-ciphertext column splits) with all the width/layout compatibility
  // checks; the per-parameter-set checks stay here.
  const std::vector<std::pair<StageLayout, StageLayout>> layouts =
      pipe.stage_layouts(extent);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& st = stages[i];
    if (const auto* win = std::get_if<WindowStage>(&st.op)) {
      sp::check_fmt(win->taps.size() <= slots, "Planner: window of ",
                    win->taps.size(), " taps exceeds the ", slots, " slots");
    } else if (const auto* paf = std::get_if<PafStage>(&st.op)) {
      if (paf->kind == SiteKind::MaxPool)
        sp::check_fmt(static_cast<std::size_t>(paf->pool_window) <= slots,
                      "Planner: pool window ", paf->pool_window, " exceeds the ",
                      slots, " slots");
    }
    // Packed batches replicate one layout per tile; a request spanning
    // several ciphertexts cannot tile, so multi-block layouts are
    // single-layout (pack_stride == 0) territory.
    if (opts.pack_stride != 0)
      sp::check_fmt(layouts[i].first.blocks == 1 && layouts[i].second.blocks == 1,
                    "Planner: '", st.label, "' spans ",
                    std::max(layouts[i].first.blocks, layouts[i].second.blocks),
                    " ciphertext blocks; packed batches need single-ciphertext"
                    " layouts");
  }

  Plan plan;
  plan.chain_levels = chain;
  plan.pack_stride = opts.pack_stride;
  plan.stages.resize(stages.size());

  // Fold pass: the run of bias-free linear stages directly preceding a
  // PAF-ReLU folds into that activation's Static-Scaling envelope — the
  // scalars ride the plaintext multiplications the envelope pays anyway, so
  // each folded stage saves one level, one plaintext mult and one rescale.
  // ReLU always absorbs a fold; a MaxPool only at pool_window == 2, where
  // both tournament operands are raw and the factor rides max()'s envelope
  // plaintexts (a longer tournament's running operand already carries the
  // factor after the first fold).
  std::vector<double> pre_factor(stages.size(), 1.0);
  std::vector<bool> folded(stages.size(), false);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto* paf = std::get_if<PafStage>(&stages[i].op);
    if (paf == nullptr) continue;
    const bool absorbs = paf->kind == SiteKind::ReLU ||
                         (paf->kind == SiteKind::MaxPool && paf->pool_window == 2);
    if (!absorbs) continue;
    for (std::size_t j = i; j-- > 0;) {
      const auto* lin = std::get_if<LinearStage>(&stages[j].op);
      if (lin == nullptr || lin->bias != 0.0 || lin->scale == 0.0) break;
      pre_factor[i] *= lin->scale;
      folded[j] = true;
    }
  }

  int level = chain;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& st = stages[i];
    StagePlan& sp_ = plan.stages[i];
    sp_.label = st.label;
    sp_.level_in = level;
    sp_.layout_in = layouts[i].first;
    sp_.layout_out = layouts[i].second;
    if (folded[i]) {
      sp_.folded = true;
      sp_.level_out = level;
      continue;
    }

    if (const auto* lin = std::get_if<LinearStage>(&st.op)) {
      if (lin->scale != 1.0) {
        sp_.ops.plain_mults = 1;
        sp_.ops.rescales = 1;
      }
      sp_.predicted_cost = cost.eval_cost(sp_.ops);
    } else if (!std::holds_alternative<PafStage>(st.op)) {
      // Window, compact, matmul and conv are one masked rotation-sum each:
      // one sweep over the stage's split candidates, each priced as a split
      // of the pure-fan term list run_blocks would execute; the first
      // cheapest wins.
      const fhe::LtSchedule fan =
          stage_transform(st, sp_.layout_in, sp_.layout_out, 0, extent, slots)->schedule;
      const SplitCandidates split = split_candidates(st, sp_.layout_in, opts);
      StagePlan best;
      bool first = true;
      for (const int n1 : split.n1s) {
        StagePlan cand = sp_;
        price_schedule(fhe::split_schedule(fan, n1, split.unit), cost, opts.force_hoist, cand);
        if (first || cand.predicted_cost < best.predicted_cost) {
          best = std::move(cand);
          first = false;
        }
      }
      sp_ = std::move(best);
    } else {
      const auto& paf = std::get<PafStage>(st.op);
      const int acts = paf.kind == SiteKind::MaxPool ? paf.pool_window - 1 : 1;
      // A MaxPool tournament fans the stage input out over the window taps.
      if (paf.kind == SiteKind::MaxPool)
        for (int t = 1; t < paf.pool_window; ++t) sp_.rotation_steps.push_back(t);
      const int fan = static_cast<int>(sp_.rotation_steps.size());
      if (fan > 0)
        sp_.hoist_fan =
            opts.force_hoist.value_or(cost.fan_cost(fan, true) <= cost.fan_cost(fan, false));
      // BSGS unless forced: its prediction never exceeds Ladder's on any
      // count at equal levels, so it is never the costlier pick under a
      // cost table (tests/test_poly_eval.cpp checks every preset).
      sp_.strategy = opts.force_strategy.value_or(fhe::PafEvaluator::Strategy::BSGS);
      fhe::SchedulePrediction one = fhe::PafEvaluator::predict_composite(paf.paf, sp_.strategy);
      // The Static-Scaling envelope per activation: input scaling + final
      // product (ReLU) or the tournament's d*p product + 0.5-halvings (max).
      one.ct_mults += 1;
      one.relins += 1;
      one.rescales += 1;
      one.plain_mults += paf.kind == SiteKind::MaxPool ? 3 : 2;
      sp_.ops = one;
      for (int a = 1; a < acts; ++a) sp_.ops += one;
      // Every tournament fold after the first lands its tap on the running max.
      sp_.ops.plain_mults += acts - 1;
      sp_.predicted_cost = cost.eval_cost(sp_.ops) + cost.fan_cost(fan, sp_.hoist_fan);
      sp_.pre_factor = pre_factor[i];
    }

    sp_.ops.levels = stage_levels(st);
    level -= sp_.ops.levels;
    sp_.level_out = level;
  }

  plan.levels_used = chain - level;
  for (const StagePlan& s : plan.stages) plan.predicted_cost += s.predicted_cost;

  if (plan.levels_used > chain) {
    std::ostringstream os;
    os << "Planner: pipeline needs " << plan.levels_used
       << " levels but the chain has " << chain << " (";
    bool sep = false;
    for (const StagePlan& s : plan.stages) {
      if (s.folded) continue;
      if (sep) os << ", ";
      os << s.label << ": " << s.ops.levels;
      sep = true;
    }
    os << "); use a deeper prime chain or a shallower PAF";
    throw sp::Error(os.str());
  }
  return plan;
}

}  // namespace sp::smartpaf
