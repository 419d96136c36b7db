#include "fhe/poly_eval.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <optional>
#include <set>

#include "common/check.h"
#include "common/timer.h"

namespace sp::fhe {
namespace {

/// Smallest t with 2^t >= v (v >= 1).
int ceil_log2(int v) {
  int t = 0;
  while ((1 << t) < v) ++t;
  return t;
}

/// Depth-optimal split of an exponent: e = a + b with a the largest power of
/// two strictly below e (a == b == e/2 when e is itself a power of two), so
/// x^e = x^a * x^b lands at depth ceil(log2 e).
std::pair<int, int> split_exponent(int e) {
  int a = 1;
  while (a * 2 < e) a *= 2;
  return {a, e - a};
}

/// Effective degree of sum_{k in (lo..hi]} c_k x^(k-lo): index distance to
/// the highest nonzero coefficient (0 when the block is constant).
int effective_degree(const approx::Polynomial& p, int lo, int hi) {
  int degree = 0;
  for (int k = lo + 1; k <= hi; ++k)
    if (p.coeff(k) != 0.0) degree = k - lo;
  return degree;
}

/// True if BSGS block j (window exponents [j*kk, j*kk + kk - 1] of the window
/// starting at absolute coefficient `lo`) has any nonzero coefficient.
bool block_has_nonzero(const approx::Polynomial& p, int lo, int kk, int j) {
  for (int i = 0; i < kk; ++i)
    if (p.coeff(lo + j * kk + i) != 0.0) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Planning: pure cost models that mirror the executors below operation for
// operation, so the strategy choice and predict_poly() are exact rather than
// asymptotic.
// ---------------------------------------------------------------------------

/// Simulates PowerBasis: counts the ct-ct mults needed to extend the cached
/// exponent set by the requested powers (same split rule as the executor).
struct PowerSim {
  std::set<int> have;
  int mults = 0;
  void need(int e) {
    if (have.count(e)) return;
    auto [a, b] = split_exponent(e);
    need(a);
    if (b != a) need(b);
    have.insert(e);
    ++mults;
  }
};

/// Plan node for a BSGS block range: whether it reduces to a scalar constant
/// and, if not, the minimum depth (levels below the basis input) at which it
/// can be delivered.
struct BlockPlan {
  bool is_const;
  int depth;
};

/// Mirrors eval_blocks: block range [blo, bhi] of window `lo` with baby
/// window kk.
BlockPlan plan_blocks(const approx::Polynomial& p, int lo, int kk, int blo, int bhi,
                      PowerSim& ps, int& joins) {
  int d_blocks = 0;
  for (int j = blo + 1; j <= bhi; ++j)
    if (block_has_nonzero(p, lo, kk, j)) d_blocks = j - blo;

  if (d_blocks == 0) {
    int depth = 0;
    bool any = false;
    for (int i = 1; i < kk; ++i) {
      if (p.coeff(lo + blo * kk + i) == 0.0) continue;
      ps.need(i);
      depth = std::max(depth, ceil_log2(i) + 1);
      any = true;
    }
    if (!any) return {true, 0};
    return {false, depth};
  }

  int t = 1;
  while (t * 2 <= d_blocks) t *= 2;
  const int g = kk * t;
  ps.need(g);
  const BlockPlan b = plan_blocks(p, lo, kk, blo + t, blo + d_blocks, ps, joins);
  int term_depth;
  if (b.is_const) {
    term_depth = ceil_log2(g) + 1;
  } else {
    term_depth = std::max(ceil_log2(g), b.depth) + 1;
    ++joins;
  }
  const BlockPlan a = plan_blocks(p, lo, kk, blo, blo + t - 1, ps, joins);
  int depth = term_depth;
  if (!a.is_const) depth = std::max(depth, a.depth);
  return {false, depth};
}

PowerSim sim_from_basis(const PowerBasis& basis) {
  PowerSim ps;
  for (int e : basis.cached_exponents()) ps.have.insert(e);
  return ps;
}

void sim_window(const approx::Polynomial& p, int lo, int hi, int budget, bool use_bsgs,
                PowerSim& ps, int& joins);

/// Cheapest pure-ladder cost for the window, given already-cached powers.
int ladder_cost(const approx::Polynomial& p, int lo, int d, PowerSim seed) {
  int joins = 0;
  sim_window(p, lo, lo + d, /*budget=*/0, /*use_bsgs=*/false, seed, joins);
  return seed.mults + joins;
}

/// Picks the BSGS baby window kk for window [lo, lo+d] that fits the level
/// `budget` with the fewest ct-ct mults, or nullopt when no BSGS plan
/// strictly beats the pure ladder (the caller then runs the ladder node).
std::optional<int> choose_bsgs(const approx::Polynomial& p, int lo, int d, int budget,
                               const PowerSim& seed) {
  const int ladder_mults = ladder_cost(p, lo, d, seed);
  int best_k = 0;
  int best_mults = INT_MAX;
  for (int kk = 2; kk <= 2 * d; kk *= 2) {
    PowerSim ps = seed;
    int joins = 0;
    const BlockPlan plan = plan_blocks(p, lo, kk, 0, d / kk, ps, joins);
    if (plan.is_const || plan.depth > budget) continue;
    const int total = ps.mults + joins;
    if (total < best_mults) {
      best_mults = total;
      best_k = kk;
    }
  }
  if (best_k != 0 && best_mults < ladder_mults) return best_k;
  return std::nullopt;
}

/// Mirrors eval_window's full decision recursion for predict_poly (and, with
/// use_bsgs off, the pure ladder): every ladder node re-consults the BSGS
/// planner against the live power set (just like the executor), so the
/// predicted ct-mult count is exact. `budget` is the node's remaining level
/// slack (depth at the root, one less for each high-half recursion).
void sim_window(const approx::Polynomial& p, int lo, int hi, int budget, bool use_bsgs,
                PowerSim& ps, int& joins) {
  const int d = effective_degree(p, lo, hi);
  if (d <= 1) return;  // constant, or a single coefficient rescale
  if (use_bsgs) {
    if (auto kk = choose_bsgs(p, lo, d, budget, ps)) {
      plan_blocks(p, lo, *kk, 0, d / *kk, ps, joins);
      return;
    }
  }
  int h = 1;
  while (h * 2 <= d) h *= 2;
  ps.need(h);
  const int d_b = effective_degree(p, lo + h, lo + d);
  if (d_b > 0) {
    sim_window(p, lo + h, lo + d, budget - 1, use_bsgs, ps, joins);
    ++joins;
  }
  sim_window(p, lo, lo + h - 1, budget, use_bsgs, ps, joins);
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// Shared state of one eval_poly call.
struct EvalCtx {
  Evaluator* ev;
  const Encoder* encoder;
  const KSwitchKey* relin;
  const CkksContext* ctx;
  EvalStats* stats;
  PowerBasis* basis;
  bool use_bsgs;
};

/// Partial window sum during execution. `done` holds the 2-part
/// contributions already delivered at (target_level, target_scale);
/// `pending` holds lazily accumulated 3-part tensor products one level up
/// (scale target_scale * q), all sharing one relinearization + one rescale
/// at the join. Deferring the rescale together with the relin matters for
/// precision: rescaling a 3-part ciphertext would inject tau * s^2 rounding
/// noise per product, while the joined sum is relinearized first and then
/// rescaled once — never noisier than one relinearization and rescale per
/// product.
struct WindowSum {
  std::optional<Ciphertext> done;
  std::optional<Ciphertext> pending;
  double constant = 0.0;
};

void add_done(EvalCtx& ec, WindowSum& sum, Ciphertext&& ct) {
  if (sum.done)
    ec.ev->add_inplace(*sum.done, ct);
  else
    sum.done = std::move(ct);
}

void add_pending(EvalCtx& ec, WindowSum& sum, Ciphertext&& ct) {
  if (sum.pending)
    ec.ev->add_inplace(*sum.pending, ct);
  else
    sum.pending = std::move(ct);
}

/// term = xa * b into the sum, with xa (a cached power) read at b's level:
/// the raw 3-part product is parked in `pending` at `pre_scale`
/// (= target_scale * q), relinearized and rescaled at the join.
void add_product(EvalCtx& ec, WindowSum& sum, const Ciphertext& xa, const Ciphertext& b,
                 double pre_scale) {
  Ciphertext term = ec.ev->multiply(xa, b, b.level());
  term.scale = pre_scale;  // exact by construction
  if (ec.stats) {
    ++ec.stats->ct_mults;
    ++ec.stats->relins_deferred;
  }
  add_pending(ec, sum, std::move(term));
}

/// Coefficient term c * ct delivered at (target_level, target_scale).
Ciphertext coeff_term(EvalCtx& ec, const Ciphertext& ct, double c, int target_level,
                      double target_scale) {
  if (ec.stats) ++ec.stats->plain_mults;
  return scaled_to(*ec.ev, ct, c, target_level, target_scale);
}

void fold_constant(EvalCtx& ec, Ciphertext& ct, double c) {
  if (c == 0.0) return;
  ec.ev->add_plain_inplace(ct, ec.encoder->encode_scalar(c, ct.scale, ct.q_count()));
}

/// Joins a window sum into one ciphertext at (target_level, target_scale):
/// the pending products share a single relinearization + rescale. Returns
/// nullopt (leaving *constant_out) when the sum is a bare constant.
std::optional<Ciphertext> resolve(EvalCtx& ec, WindowSum&& sum, double target_scale,
                                  double* constant_out) {
  *constant_out = sum.constant;
  std::optional<Ciphertext> out;
  if (sum.pending) {
    ec.ev->relinearize_rescale_inplace(*sum.pending, *ec.relin);
    sum.pending->scale = target_scale;
    if (ec.stats) ++ec.stats->relins;
    out = std::move(sum.pending);
    if (sum.done) ec.ev->add_inplace(*out, *sum.done);
  } else {
    out = std::move(sum.done);
  }
  if (out) {
    fold_constant(ec, *out, *constant_out);
    *constant_out = 0.0;
  }
  return out;
}

/// Merges a sibling sum delivered at the same (level, scale) pair.
void merge(EvalCtx& ec, WindowSum& sum, WindowSum&& other) {
  if (other.done) add_done(ec, sum, std::move(*other.done));
  if (other.pending) add_pending(ec, sum, std::move(*other.pending));
  sum.constant += other.constant;
}

/// BSGS executor: sum_{j=blo..bhi} B_j(x) x^{(j-blo)*kk} delivered at exactly
/// (target_level, target_scale), where B_j is block j of the window at `lo`.
/// Baby blocks combine cached powers with fused coefficient rescales (no
/// ct-ct mults); giant steps x^(kk*t) join block ranges with one ct-ct mult
/// per non-constant range, mirroring plan_blocks.
WindowSum eval_blocks(EvalCtx& ec, const approx::Polynomial& p, int lo, int kk, int blo,
                      int bhi, int target_level, double target_scale) {
  WindowSum sum;
  int d_blocks = 0;
  for (int j = blo + 1; j <= bhi; ++j)
    if (block_has_nonzero(p, lo, kk, j)) d_blocks = j - blo;

  if (d_blocks == 0) {
    // Single baby block: a linear combination of cached powers x^1..x^{kk-1}.
    sum.constant = p.coeff(lo + blo * kk);
    std::optional<Ciphertext> acc;
    for (int i = 1; i < kk; ++i) {
      const double c = p.coeff(lo + blo * kk + i);
      if (c == 0.0) continue;
      const Ciphertext& xi = ec.basis->power(*ec.ev, i, ec.stats);
      Ciphertext term = coeff_term(ec, xi, c, target_level, target_scale);
      if (acc)
        ec.ev->add_inplace(*acc, term);
      else
        acc = std::move(term);
    }
    if (acc) {
      fold_constant(ec, *acc, sum.constant);
      sum.constant = 0.0;
      sum.done = std::move(acc);
    }
    return sum;
  }

  int t = 1;
  while (t * 2 <= d_blocks) t *= 2;
  const Ciphertext& xg = ec.basis->power(*ec.ev, kk * t, ec.stats);

  // term = x^(kk*t) * (blocks blo+t .. blo+d_blocks), landing at target_scale.
  {
    const u64 q = ec.ctx->q(target_level + 1).value();
    const double b_scale = target_scale * static_cast<double>(q) / xg.scale;
    double b_const = 0.0;
    std::optional<Ciphertext> b =
        resolve(ec,
                eval_blocks(ec, p, lo, kk, blo + t, blo + d_blocks, target_level + 1,
                            b_scale),
                b_scale, &b_const);
    if (!b) {
      add_done(ec, sum, coeff_term(ec, xg, b_const, target_level, target_scale));
    } else {
      add_product(ec, sum, xg, *b, target_scale * static_cast<double>(q));
    }
  }

  merge(ec, sum,
        eval_blocks(ec, p, lo, kk, blo, blo + t - 1, target_level, target_scale));
  return sum;
}

/// Evaluates the window sum_{k=lo..hi} c_k x^(k-lo), delivered at exactly
/// (target_level, target_scale) once the caller resolves the returned sum.
///
/// Each node first asks the planner whether a BSGS decomposition fits the
/// remaining level budget with strictly fewer ct-ct mults; otherwise it runs
/// one step of the balanced ladder split p = A + x^h * B and recurses — so
/// the schedule never consumes more levels or more multiplications than the
/// pure ladder (Appendix-C) baseline.
WindowSum eval_window(EvalCtx& ec, const approx::Polynomial& p, int lo, int hi,
                      int target_level, double target_scale) {
  WindowSum sum;
  sum.constant = p.coeff(lo);
  const int d = effective_degree(p, lo, hi);
  if (d == 0) return sum;

  const Ciphertext& x = ec.basis->x();
  if (d == 1) {
    add_done(ec, sum, coeff_term(ec, x, p.coeff(lo + 1), target_level, target_scale));
    return sum;
  }

  if (ec.use_bsgs) {
    const int budget = x.level() - target_level;
    if (auto kk = choose_bsgs(p, lo, d, budget, sim_from_basis(*ec.basis))) {
      // Block 0 of the decomposition covers the window constant p.coeff(lo).
      return eval_blocks(ec, p, lo, *kk, 0, d / *kk, target_level, target_scale);
    }
  }
  sum.constant = 0.0;  // the low-half recursion below carries p.coeff(lo)

  int h = 1;
  while (h * 2 <= d) h *= 2;
  const Ciphertext& xh = ec.basis->power(*ec.ev, h, ec.stats);

  // --- term = x^h * B, landing at target_scale -----------------------------
  const int d_b = effective_degree(p, lo + h, lo + d);
  if (d_b == 0) {
    // B is the single constant coefficient c_{lo+h} (nonzero by choice of d).
    add_done(ec, sum, coeff_term(ec, xh, p.coeff(lo + h), target_level, target_scale));
  } else {
    const u64 q = ec.ctx->q(target_level + 1).value();
    const double b_scale = target_scale * static_cast<double>(q) / xh.scale;
    double b_const = 0.0;
    std::optional<Ciphertext> b = resolve(
        ec, eval_window(ec, p, lo + h, lo + d, target_level + 1, b_scale), b_scale,
        &b_const);
    sp::check(b.has_value(), "eval_poly: non-constant block produced no ciphertext");
    add_product(ec, sum, xh, *b, target_scale * static_cast<double>(q));
  }

  // --- low block A at the same (level, scale) ------------------------------
  merge(ec, sum, eval_window(ec, p, lo, lo + h - 1, target_level, target_scale));
  return sum;
}

}  // namespace

// ---------------------------------------------------------------------------
// PowerBasis.
// ---------------------------------------------------------------------------

PowerBasis::PowerBasis(const KSwitchKey& relin, Ciphertext x) : relin_(&relin) {
  pow_.emplace(1, std::move(x));
}

std::vector<int> PowerBasis::cached_exponents() const {
  std::vector<int> out;
  out.reserve(pow_.size());
  for (const auto& [e, ct] : pow_) out.push_back(e);
  return out;
}

const Ciphertext& PowerBasis::power(Evaluator& ev, int e, EvalStats* stats) {
  sp::check(e >= 1, "PowerBasis: exponent must be >= 1");
  auto it = pow_.find(e);
  if (it != pow_.end()) return it->second;

  const auto [a, b] = split_exponent(e);
  const Ciphertext& pa = power(ev, a, stats);
  // std::map references are stable across the recursive insertions.
  const Ciphertext& pb = a == b ? pa : power(ev, b, stats);
  Ciphertext prod = ev.multiply(pa, pb, std::min(pa.level(), pb.level()));
  ev.relinearize_rescale_inplace(prod, *relin_);
  if (stats) {
    ++stats->ct_mults;
    ++stats->relins;
  }
  return pow_.emplace(e, std::move(prod)).first->second;
}

// ---------------------------------------------------------------------------
// PafEvaluator.
// ---------------------------------------------------------------------------

int PafEvaluator::mult_depth(const approx::Polynomial& p) {
  return ceil_log2(effective_degree(p, 0, p.degree()) + 1);
}

Ciphertext scaled_to(Evaluator& ev, const Ciphertext& ct, double factor, int target_level,
                     double target_scale) {
  sp::check(ct.level() >= target_level + 1, "scaled_to: out of levels");
  const u64 q = ev.context().q(target_level + 1).value();
  const double cs = target_scale * static_cast<double>(q) / ct.scale;
  Ciphertext out = ev.multiply_scalar(ct, factor, cs, target_level + 1);
  ev.rescale_inplace(out);
  out.scale = target_scale;  // exact by construction
  return out;
}

Ciphertext PafEvaluator::eval_poly(Evaluator& ev, const Ciphertext& x,
                                   const approx::Polynomial& p, EvalStats* stats) const {
  PowerBasis basis(*relin_, x);
  return eval_poly(ev, basis, p, stats);
}

Ciphertext PafEvaluator::eval_poly(Evaluator& ev, PowerBasis& basis,
                                   const approx::Polynomial& p, EvalStats* stats) const {
  sp::check(p.degree() >= 1, "eval_poly: degree >= 1 required");
  const int deg = effective_degree(p, 0, p.degree());
  sp::check(deg >= 1, "eval_poly: polynomial reduced to a constant");
  const Ciphertext& x = basis.x();
  const int depth = ceil_log2(deg + 1);
  sp::check(x.level() >= depth, "eval_poly: not enough levels for this degree");

  EvalCtx ec{&ev, encoder_, relin_, ctx_, stats, &basis, strategy_ == Strategy::BSGS};
  double constant = 0.0;
  // The final resolve is the last join: any lazily accumulated 3-part sum
  // pays its single relinearization + rescale here.
  std::optional<Ciphertext> out =
      resolve(ec, eval_window(ec, p, 0, deg, x.level() - depth, ctx_->scale()),
              ctx_->scale(), &constant);
  sp::check(out.has_value(), "eval_poly: polynomial reduced to a constant");
  return std::move(*out);
}

Ciphertext PafEvaluator::eval_composite(Evaluator& ev, Ciphertext x,
                                        const approx::CompositePaf& paf,
                                        EvalStats* stats) const {
  sp::check(!paf.stages().empty(), "eval_composite: empty PAF");
  // Each stage's input moves into its basis, which dies with the stage.
  for (const approx::Polynomial& stage : paf.stages()) {
    PowerBasis basis(*relin_, std::move(x));
    x = eval_poly(ev, basis, stage, stats);
  }
  return x;
}

Ciphertext PafEvaluator::sign(Evaluator& ev, const Ciphertext& d,
                              const approx::CompositePaf& paf, double input_scale,
                              double pre_factor, EvalStats* stats) const {
  sp::check_fmt(input_scale > 0, "PafEvaluator: input_scale must be positive, got ",
                input_scale);
  sp::check(pre_factor != 0.0, "PafEvaluator: pre_factor must be nonzero");
  // t = pre_factor * d / input_scale at scale Delta: pre_factor rides the
  // plaintext multiplication the envelope pays anyway, so a folded scalar
  // stage is free.
  Ciphertext t = scaled_to(ev, d, pre_factor / input_scale, d.level() - 1, ctx_->scale());
  if (stats) ++stats->plain_mults;
  return eval_composite(ev, std::move(t), paf, stats);
}

Ciphertext PafEvaluator::relu(Evaluator& ev, const Ciphertext& x,
                              const approx::CompositePaf& paf, double input_scale,
                              EvalStats* stats, double pre_factor) const {
  sp::Timer timer;
  Ciphertext p = sign(ev, x, paf, input_scale, pre_factor, stats);

  // y = (0.5 pre_factor x) * (1 + p): one extra ct-ct multiplication.
  Ciphertext xh = scaled_to(ev, x, 0.5 * pre_factor, p.level(), p.scale);
  const Plaintext one = encoder_->encode_scalar(1.0, p.scale, p.q_count());
  ev.add_plain_inplace(p, one);
  Ciphertext y = ev.multiply(xh, p);
  ev.relinearize_rescale_inplace(y, *relin_);
  if (stats) {
    ++stats->ct_mults;
    ++stats->relins;
    ++stats->plain_mults;
    stats->wall_ms += timer.ms();
  }
  return y;
}

Ciphertext PafEvaluator::max(Evaluator& ev, const Ciphertext& a, const Ciphertext& b,
                             const approx::CompositePaf& paf, double input_scale,
                             EvalStats* stats, double pre_factor) const {
  sp::Timer timer;
  const int level = std::min(a.level(), b.level());
  Ciphertext d = ev.sub(a, b, level);
  Ciphertext s = ev.add(a, b, level);

  // With pre_factor f: max(fa, fb) = 0.5 f (a+b) + 0.5 f (a-b) p(f(a-b)/s).
  const Ciphertext p = sign(ev, d, paf, input_scale, pre_factor, stats);
  Ciphertext dh = scaled_to(ev, d, 0.5 * pre_factor, p.level(), p.scale);
  Ciphertext dp = ev.multiply(dh, p);
  ev.relinearize_rescale_inplace(dp, *relin_);

  Ciphertext sh = scaled_to(ev, s, 0.5 * pre_factor, dp.level(), dp.scale);
  Ciphertext y = ev.add(dp, sh);
  if (stats) {
    ++stats->ct_mults;
    ++stats->relins;
    stats->plain_mults += 2;
    stats->wall_ms += timer.ms();
  }
  return y;
}

SchedulePrediction PafEvaluator::predict_poly(const approx::Polynomial& p, Strategy s) {
  SchedulePrediction out;
  const int deg = effective_degree(p, 0, p.degree());
  sp::check(deg >= 1, "predict_poly: polynomial reduced to a constant");
  out.levels = ceil_log2(deg + 1);

  PowerSim ps;
  ps.have.insert(1);
  int joins = 0;
  sim_window(p, 0, deg, out.levels, s == Strategy::BSGS, ps, joins);
  out.ct_mults = ps.mults + joins;
  out.relins = out.ct_mults;
  out.rescales = out.ct_mults;
  for (int k = 1; k <= deg; ++k)
    if (p.coeff(k) != 0.0) ++out.plain_mults;
  return out;
}

SchedulePrediction PafEvaluator::predict_composite(const approx::CompositePaf& paf,
                                                   Strategy s) {
  sp::check(!paf.stages().empty(), "predict_composite: empty PAF");
  SchedulePrediction out;
  for (const auto& stage : paf.stages()) out += predict_poly(stage, s);
  return out;
}

}  // namespace sp::fhe
