#include "smartpaf/pipeline_planner.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"
#include "smartpaf/fhe_deploy.h"

namespace sp::smartpaf {
namespace {

/// Times `op` over fresh `setup()` state, returning the median ms.
template <typename Setup, typename Op>
double time_op(int repeats, const Setup& setup, const Op& op) {
  std::vector<double> ts;
  ts.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    auto state = setup();
    sp::Timer t;
    op(state);
    ts.push_back(t.ms());
  }
  return sp::median(ts);
}

/// JSON helpers for the tiny flat cost-table object (no external deps).
void json_field(std::ostringstream& os, const char* key, double v, bool last = false) {
  os << "  \"" << key << "\": " << std::setprecision(17) << v << (last ? "\n" : ",\n");
}

bool json_read(const std::string& text, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t colon = text.find(':', at + needle.size());
  if (colon == std::string::npos) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + colon + 1, &end);
  if (end == text.c_str() + colon + 1) return false;
  *out = v;
  return true;
}

}  // namespace

// ---------------------------------------------------------------- CostModel --

CostModel CostModel::calibrate(FheRuntime& rt, int repeats) {
  sp::check(repeats >= 1, "CostModel::calibrate: repeats must be >= 1");
  CostModel cm;
  cm.measured = true;
  cm.poly_degree = rt.ctx().n();
  cm.q_count = rt.ctx().q_count();

  fhe::Evaluator& ev = rt.evaluator();
  const auto slots = rt.ctx().slot_count();
  sp::Rng rng(99);
  std::vector<double> va(slots), vb(slots);
  for (auto& v : va) v = rng.uniform(-1.0, 1.0);
  for (auto& v : vb) v = rng.uniform(-1.0, 1.0);
  const fhe::Ciphertext a = rt.encrypt(va);
  const fhe::Ciphertext b = rt.encrypt(vb);
  const std::shared_ptr<const fhe::GaloisKeys> gk_snapshot = rt.rotation_keys({1});
  const fhe::GaloisKeys& gk = *gk_snapshot;
  const fhe::Plaintext pt = rt.encoder().encode(vb, rt.ctx().scale(), a.q_count());

  const auto no_setup = [] { return 0; };
  cm.ct_mult_ms = time_op(repeats, no_setup, [&](int) { (void)ev.multiply(a, b); });

  fhe::Ciphertext prod = ev.multiply(a, b);
  cm.relin_ms = time_op(
      repeats, [&] { return prod; },
      [&](fhe::Ciphertext& c) { ev.relinearize_inplace(c, rt.relin_key()); });

  fhe::Ciphertext relin = prod;
  ev.relinearize_inplace(relin, rt.relin_key());
  cm.rescale_ms = time_op(
      repeats, [&] { return relin; },
      [&](fhe::Ciphertext& c) { ev.rescale_inplace(c); });

  cm.plain_mult_ms = time_op(
      repeats, [&] { return a; },
      [&](fhe::Ciphertext& c) { ev.multiply_plain_inplace(c, pt); });

  cm.add_ms = time_op(repeats, no_setup, [&](int) { (void)ev.add(a, b); });
  cm.rotate_ms = time_op(repeats, no_setup, [&](int) { (void)ev.rotate(a, 1, gk); });
  cm.hoist_ms = time_op(repeats, no_setup, [&](int) { (void)ev.hoist(a); });

  const fhe::HoistedDecomposition h = ev.hoist(a);
  cm.hoisted_rotate_ms =
      time_op(repeats, no_setup, [&](int) { (void)ev.rotate_hoisted(h, 1, gk); });
  return cm;
}

bool CostModel::matches(const fhe::CkksContext& ctx) const {
  return poly_degree == ctx.n() && q_count == ctx.q_count();
}

std::string CostModel::to_json() const {
  std::ostringstream os;
  os << "{\n";
  json_field(os, "poly_degree", static_cast<double>(poly_degree));
  json_field(os, "q_count", static_cast<double>(q_count));
  json_field(os, "measured", measured ? 1.0 : 0.0);
  json_field(os, "ct_mult_ms", ct_mult_ms);
  json_field(os, "relin_ms", relin_ms);
  json_field(os, "rescale_ms", rescale_ms);
  json_field(os, "plain_mult_ms", plain_mult_ms);
  json_field(os, "add_ms", add_ms);
  json_field(os, "rotate_ms", rotate_ms);
  json_field(os, "hoist_ms", hoist_ms);
  json_field(os, "hoisted_rotate_ms", hoisted_rotate_ms, /*last=*/true);
  os << "}\n";
  return os.str();
}

std::optional<CostModel> CostModel::from_json(const std::string& text) {
  CostModel cm;
  double pd = 0.0, qc = 0.0, measured = 0.0;
  if (!json_read(text, "poly_degree", &pd) || !json_read(text, "q_count", &qc) ||
      !json_read(text, "measured", &measured))
    return std::nullopt;
  if (!json_read(text, "ct_mult_ms", &cm.ct_mult_ms) ||
      !json_read(text, "relin_ms", &cm.relin_ms) ||
      !json_read(text, "rescale_ms", &cm.rescale_ms) ||
      !json_read(text, "plain_mult_ms", &cm.plain_mult_ms) ||
      !json_read(text, "add_ms", &cm.add_ms) ||
      !json_read(text, "rotate_ms", &cm.rotate_ms) ||
      !json_read(text, "hoist_ms", &cm.hoist_ms) ||
      !json_read(text, "hoisted_rotate_ms", &cm.hoisted_rotate_ms))
    return std::nullopt;
  cm.poly_degree = static_cast<std::size_t>(pd);
  cm.q_count = static_cast<int>(qc);
  cm.measured = measured != 0.0;
  return cm;
}

CostModel CostModel::load_or_calibrate(FheRuntime& rt, const std::string& path,
                                       int repeats) {
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      const auto cached = from_json(ss.str());
      if (cached && cached->measured && cached->matches(rt.ctx())) return *cached;
    }
  }
  CostModel cm = calibrate(rt, repeats);
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (out) out << cm.to_json();
  return cm;
}

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
     << std::setprecision(2) << predicted_cost
     << (measured_costs ? " ms (measured)" : " units (heuristic)") << "\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StagePlan& s = stages[i];
    os << "  [" << i << "] " << std::left << std::setw(26) << s.label << std::right;
    if (s.folded) {
      os << (s.merged_into_next ? "merged into the next linear stage\n"
                                : "folded into the next PAF stage\n");
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
    } else if (s.width_in != s.width_out) {
      os << "  w" << s.width_in << "->" << s.width_out;
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
    if (s.merged_linear) os << "  (executes a merged linear run)";
    if (s.ops.ct_mults > 0) {
      os << "  " << (s.strategy == fhe::PafEvaluator::Strategy::BSGS ? "BSGS" : "Ladder")
         << (s.lazy_relin ? " lazy-relin" : " eager-relin") << "  " << s.ops.ct_mults
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

/// y = s2 * (s1 * x + b1) + b2 collapsed into one affine stage (broadcast
/// rules: size-1 vectors apply to every slot; empty bias = 0).
LinearStage compose_linear(const LinearStage& first, const LinearStage& second) {
  const auto at = [](const std::vector<double>& v, std::size_t j, double dflt) {
    if (v.empty()) return dflt;
    return v[v.size() == 1 ? 0 : j];
  };
  const std::size_t n =
      std::max({first.scale.size(), first.bias.size(), second.scale.size(),
                second.bias.size(), std::size_t{1}});
  LinearStage out;
  out.scale.resize(n);
  out.bias.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double s1 = at(first.scale, j, 1.0);
    const double b1 = at(first.bias, j, 0.0);
    const double s2 = at(second.scale, j, 1.0);
    const double b2 = at(second.bias, j, 0.0);
    out.scale[j] = s2 * s1;
    out.bias[j] = s2 * b1 + b2;
  }
  if (std::all_of(out.bias.begin(), out.bias.end(), [](double b) { return b == 0.0; }))
    out.bias.clear();  // keeps the merged stage foldable into a PAF envelope
  return out;
}

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
  sp_.ops.levels = 1;
  sp_.predicted_cost = cost.eval_cost(sp_.ops) + rot_cost;
}

}  // namespace

Plan Planner::plan(const FhePipeline& pipe, const fhe::CkksContext& ctx,
                   const CostModel& cost, const PlanOptions& opts) {
  const auto& stages = pipe.stages();
  sp::check(!stages.empty(), "Planner: empty pipeline");
  const RescalePolicy policy = opts.rescale_policy.value_or(pipe.rescale_policy());
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
    if (const auto* lin = std::get_if<LinearStage>(&st.op)) {
      sp::check_fmt(lin->scale.size() == 1 || lin->scale.size() == slots,
                    "Planner: linear scale must have 1 or ", slots,
                    " entries, got ", lin->scale.size());
      sp::check_fmt(lin->bias.empty() || lin->bias.size() == 1 ||
                        lin->bias.size() == slots,
                    "Planner: linear bias must have 0, 1 or ", slots,
                    " entries, got ", lin->bias.size());
    } else if (const auto* win = std::get_if<WindowStage>(&st.op)) {
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
  plan.measured_costs = cost.measured;
  plan.pack_stride = opts.pack_stride;
  plan.stages.resize(stages.size());

  // Merge pass (plan-level rescale placement): a run of back-to-back linear
  // stages collapses into its LAST stage — one plaintext multiplication and
  // ONE rescale instead of one per stage, saving a level for every extra
  // non-identity stage in the run. Skipped under PerStage (stages execute
  // literally as built).
  std::vector<bool> absorbed(stages.size(), false);
  std::vector<std::optional<LinearStage>> merged(stages.size());
  if (policy == RescalePolicy::FoldScalars) {
    std::size_t i = 0;
    while (i < stages.size()) {
      if (!std::holds_alternative<LinearStage>(stages[i].op)) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j + 1 < stages.size() &&
             std::holds_alternative<LinearStage>(stages[j + 1].op))
        ++j;
      if (j > i) {
        LinearStage combined = std::get<LinearStage>(stages[i].op);
        for (std::size_t k = i + 1; k <= j; ++k) {
          absorbed[k - 1] = true;
          combined = compose_linear(combined, std::get<LinearStage>(stages[k].op));
        }
        merged[j] = std::move(combined);
      }
      i = j + 1;
    }
  }

  // Fold pass: scalar, bias-free linear stages directly preceding a PAF-ReLU
  // ride that activation's envelope plaintexts (see RescalePolicy). Runs on
  // the post-merge view: a merged survivor folds with its combined scalar,
  // and the scan stops at absorbed stages (their effect is already inside
  // the survivor).
  std::vector<double> pre_factor(stages.size(), 1.0);
  std::vector<bool> folded(stages.size(), false);
  if (policy == RescalePolicy::FoldScalars) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const auto* paf = std::get_if<PafStage>(&stages[i].op);
      if (paf == nullptr) continue;
      // ReLU always absorbs; a MaxPool only for the single pairwise fold
      // (pool window 2), where both tournament operands are raw and the
      // factor rides max()'s envelope plaintexts.
      const bool absorbs = paf->kind == SiteKind::ReLU ||
                           (paf->kind == SiteKind::MaxPool && paf->pool_window == 2);
      if (!absorbs) continue;
      for (std::size_t j = i; j-- > 0;) {
        if (absorbed[j]) break;
        const auto* lin = merged[j] ? &*merged[j]
                                    : std::get_if<LinearStage>(&stages[j].op);
        if (lin == nullptr || folded[j] || lin->scale.size() != 1 ||
            linear_has_bias(*lin) || lin->scale[0] == 0.0)
          break;
        pre_factor[i] *= lin->scale[0];
        folded[j] = true;
      }
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
    sp_.width_in = sp_.layout_in.width;
    sp_.width_out = sp_.layout_out.width;
    if (absorbed[i]) {
      sp_.folded = true;
      sp_.merged_into_next = true;
      sp_.level_out = level;
      continue;
    }
    if (folded[i]) {
      sp_.folded = true;
      sp_.level_out = level;
      continue;
    }

    if (const auto* lin = std::get_if<LinearStage>(&st.op)) {
      if (merged[i]) sp_.merged_linear = merged[i];
      const LinearStage& eff = sp_.merged_linear ? *sp_.merged_linear : *lin;
      if (!linear_scale_is_identity(eff)) {
        sp_.ops.plain_mults = 1;
        sp_.ops.rescales = 1;
        sp_.ops.levels = 1;
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
      const int per_act_levels = paf.paf.mult_depth() + 2;
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
      one.levels = per_act_levels;
      sp_.ops = one;
      for (int a = 1; a < acts; ++a) sp_.ops += one;
      // Every tournament fold after the first lands its tap on the running max.
      sp_.ops.plain_mults += acts - 1;
      sp_.predicted_cost = cost.eval_cost(sp_.ops) + cost.fan_cost(fan, sp_.hoist_fan);
      sp_.pre_factor = pre_factor[i];
    }

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
