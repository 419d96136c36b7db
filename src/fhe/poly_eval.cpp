#include "fhe/poly_eval.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <optional>
#include <set>

#include "common/check.h"

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

/// Partial window sum. `done` holds the 2-part contributions already
/// delivered at (target_level, target_scale); `pending` holds lazily
/// accumulated 3-part tensor products one level up (scale target_scale * q),
/// all sharing one relinearization + one rescale at the join. Deferring the
/// rescale together with the relin matters for precision: rescaling a 3-part
/// ciphertext would inject tau * s^2 rounding noise per product, while the
/// joined sum is relinearized first and then rescaled once — never noisier
/// than one relinearization and rescale per product.
template <class B>
struct WindowSum {
  std::optional<typename B::Ct> done;
  std::optional<typename B::Ct> pending;
  double constant = 0.0;
};

// ---------------------------------------------------------------------------
// The schedule, written once over a backend B: `Run` executes it on
// ciphertexts, `Count` counts it without one. A backend provides
//   Ct               its ciphertext type (level(), scale)
//   use_bsgs         whether ladder nodes consult choose_bsgs
//   x(), power(e)    the basis input and its memoized powers
//   cached_exponents()  the powers built so far
//   prime(level)     the prime a rescale from `level` divides out
//   scaled(ct, factor, level, scale)   fhe::scaled_to
//   product(xa, b, scale)  xa * b read at b's level, left 3-part at `scale`
//   add(acc, ct), join(ct, scale), add_constant(ct, c)
// ---------------------------------------------------------------------------

/// Picks the BSGS baby window kk for window [lo, lo+d] that fits the level
/// `budget` with the fewest ct-ct mults, or nullopt when no BSGS plan
/// strictly beats the pure ladder (the caller then runs the ladder node).
/// `cached` are the powers already built, which cost nothing.
std::optional<int> choose_bsgs(const approx::Polynomial& p, int lo, int d, int budget,
                               const std::vector<int>& cached);

template <class B, class Ct>
void accumulate(B& be, std::optional<Ct>& acc, Ct&& ct) {
  if (acc)
    be.add(*acc, ct);
  else
    acc = std::move(ct);
}

/// term = xa * b into the sum, with xa (a cached power) read at b's level:
/// the raw 3-part product is parked in `pending` at `pre_scale`
/// (= target_scale * q), relinearized and rescaled at the join.
template <class B>
void add_product(B& be, WindowSum<B>& sum, const typename B::Ct& xa,
                 const typename B::Ct& b, double pre_scale) {
  accumulate(be, sum.pending, be.product(xa, b, pre_scale));
}

/// Joins a window sum into one ciphertext at (target_level, target_scale):
/// the pending products share a single relinearization + rescale. Returns
/// nullopt (leaving *constant_out) when the sum is a bare constant.
template <class B>
std::optional<typename B::Ct> resolve(B& be, WindowSum<B>&& sum, double target_scale,
                                      double* constant_out) {
  *constant_out = sum.constant;
  std::optional<typename B::Ct> out;
  if (sum.pending) {
    be.join(*sum.pending, target_scale);
    out = std::move(sum.pending);
    if (sum.done) be.add(*out, *sum.done);
  } else {
    out = std::move(sum.done);
  }
  if (out) {
    be.add_constant(*out, *constant_out);
    *constant_out = 0.0;
  }
  return out;
}

/// Merges a sibling sum delivered at the same (level, scale) pair.
template <class B>
void merge(B& be, WindowSum<B>& sum, WindowSum<B>&& other) {
  if (other.done) accumulate(be, sum.done, std::move(*other.done));
  if (other.pending) accumulate(be, sum.pending, std::move(*other.pending));
  sum.constant += other.constant;
}

/// BSGS: sum_{j=blo..bhi} B_j(x) x^{(j-blo)*kk} delivered at exactly
/// (target_level, target_scale), where B_j is block j of the window at `lo`.
/// Baby blocks combine cached powers with fused coefficient rescales (no
/// ct-ct mults); giant steps x^(kk*t) join block ranges with one ct-ct mult
/// per non-constant range.
template <class B>
WindowSum<B> eval_blocks(B& be, const approx::Polynomial& p, int lo, int kk, int blo,
                         int bhi, int target_level, double target_scale) {
  WindowSum<B> sum;
  int d_blocks = 0;
  for (int j = blo + 1; j <= bhi; ++j)
    if (block_has_nonzero(p, lo, kk, j)) d_blocks = j - blo;

  if (d_blocks == 0) {
    // Single baby block: a linear combination of cached powers x^1..x^{kk-1}.
    sum.constant = p.coeff(lo + blo * kk);
    for (int i = 1; i < kk; ++i) {
      const double c = p.coeff(lo + blo * kk + i);
      if (c == 0.0) continue;
      accumulate(be, sum.done, be.scaled(be.power(i), c, target_level, target_scale));
    }
    if (sum.done) {
      be.add_constant(*sum.done, sum.constant);
      sum.constant = 0.0;
    }
    return sum;
  }

  int t = 1;
  while (t * 2 <= d_blocks) t *= 2;
  const auto& xg = be.power(kk * t);

  // term = x^(kk*t) * (blocks blo+t .. blo+d_blocks), landing at target_scale.
  {
    const double q = be.prime(target_level + 1);
    const double b_scale = target_scale * q / xg.scale;
    double b_const = 0.0;
    auto b = resolve(be,
                     eval_blocks(be, p, lo, kk, blo + t, blo + d_blocks, target_level + 1,
                                 b_scale),
                     b_scale, &b_const);
    if (!b) {
      accumulate(be, sum.done, be.scaled(xg, b_const, target_level, target_scale));
    } else {
      add_product(be, sum, xg, *b, target_scale * q);
    }
  }

  merge(be, sum, eval_blocks(be, p, lo, kk, blo, blo + t - 1, target_level, target_scale));
  return sum;
}

/// Evaluates the window sum_{k=lo..hi} c_k x^(k-lo), delivered at exactly
/// (target_level, target_scale) once the caller resolves the returned sum.
///
/// Under BSGS each node first asks choose_bsgs whether a block decomposition
/// fits the remaining level budget with strictly fewer ct-ct mults; otherwise
/// it runs one step of the balanced ladder split p = A + x^h * B and recurses
/// — so the schedule never consumes more levels or more multiplications than
/// the pure ladder (Appendix-C) baseline.
template <class B>
WindowSum<B> eval_window(B& be, const approx::Polynomial& p, int lo, int hi, int target_level,
                         double target_scale) {
  WindowSum<B> sum;
  sum.constant = p.coeff(lo);
  const int d = effective_degree(p, lo, hi);
  if (d == 0) return sum;

  const auto& x = be.x();
  if (d == 1) {
    accumulate(be, sum.done, be.scaled(x, p.coeff(lo + 1), target_level, target_scale));
    return sum;
  }

  if (be.use_bsgs) {
    const int budget = x.level() - target_level;
    if (auto kk = choose_bsgs(p, lo, d, budget, be.cached_exponents())) {
      // Block 0 of the decomposition covers the window constant p.coeff(lo).
      return eval_blocks(be, p, lo, *kk, 0, d / *kk, target_level, target_scale);
    }
  }
  sum.constant = 0.0;  // the low-half recursion below carries p.coeff(lo)

  int h = 1;
  while (h * 2 <= d) h *= 2;
  const auto& xh = be.power(h);

  // --- term = x^h * B, landing at target_scale -----------------------------
  const int d_b = effective_degree(p, lo + h, lo + d);
  if (d_b == 0) {
    // B is the single constant coefficient c_{lo+h} (nonzero by choice of d).
    accumulate(be, sum.done, be.scaled(xh, p.coeff(lo + h), target_level, target_scale));
  } else {
    const double q = be.prime(target_level + 1);
    const double b_scale = target_scale * q / xh.scale;
    double b_const = 0.0;
    auto b = resolve(be, eval_window(be, p, lo + h, lo + d, target_level + 1, b_scale),
                     b_scale, &b_const);
    sp::check(b.has_value(), "eval_poly: non-constant block produced no ciphertext");
    add_product(be, sum, xh, *b, target_scale * q);
  }

  // --- low block A at the same (level, scale) ------------------------------
  merge(be, sum, eval_window(be, p, lo, lo + h - 1, target_level, target_scale));
  return sum;
}

/// Executes the schedule on ciphertexts: the evaluator, encoder, relin key
/// and power basis of one eval_poly call.
struct Run {
  using Ct = Ciphertext;

  Evaluator& ev;
  const Encoder& encoder;
  const KSwitchKey& relin;
  PowerBasis& basis;
  bool use_bsgs;

  const Ct& x() const { return basis.x(); }
  const Ct& power(int e) { return basis.power(ev, e); }
  std::vector<int> cached_exponents() const { return basis.cached_exponents(); }
  double prime(int level) const { return static_cast<double>(ev.context().q(level).value()); }
  Ct scaled(const Ct& ct, double factor, int level, double scale) {
    return scaled_to(ev, ct, factor, level, scale);
  }
  Ct product(const Ct& xa, const Ct& b, double scale) {
    Ct term = ev.multiply(xa, b, b.level());
    term.scale = scale;  // exact by construction
    return term;
  }
  void add(Ct& acc, const Ct& ct) { ev.add_inplace(acc, ct); }
  void join(Ct& ct, double scale) {
    ev.relinearize_rescale_inplace(ct, relin);
    ct.scale = scale;
  }
  void add_constant(Ct& ct, double c) {
    if (c == 0.0) return;
    ev.add_plain_inplace(ct, encoder.encode_scalar(c, ct.scale, ct.q_count()));
  }
};

/// Counts the schedule without a ciphertext: each Ct is reduced to its
/// level (the node's target sits at level 0) and scale (every prime reads 1).
/// Each new power and each product counts one ct-ct mult; `fits` stays true
/// while every operand of scaled() and product() could be read at the level
/// it is read at.
struct Count {
  struct Ct {
    int at;
    double scale;
    int level() const { return at; }
  };

  std::set<int> have;
  int x_level;
  bool use_bsgs;
  int ct_mults = 0;
  bool fits = true;

  /// x at `x_level`, with the powers `cached` already built.
  Count(const std::vector<int>& cached, int x_level, bool bsgs)
      : have(cached.begin(), cached.end()), x_level(x_level), use_bsgs(bsgs) {}

  Ct x() const { return {x_level, 1.0}; }
  /// x^e, built by PowerBasis's split, lands at x_level - ceil(log2 e).
  Ct power(int e) {
    if (!have.count(e)) {
      const auto [a, b] = split_exponent(e);
      power(a);
      power(b);
      have.insert(e);
      ++ct_mults;
    }
    return {x_level - ceil_log2(e), 1.0};
  }
  std::vector<int> cached_exponents() const { return {have.begin(), have.end()}; }
  double prime(int) const { return 1.0; }
  Ct scaled(const Ct& ct, double, int level, double scale) {
    fits = fits && ct.level() >= level + 1;
    return {level, scale};
  }
  Ct product(const Ct& xa, const Ct& b, double scale) {
    ++ct_mults;
    fits = fits && xa.level() >= b.level();
    return {b.level(), scale};
  }
  void add(Ct&, const Ct&) {}
  void join(Ct& ct, double scale) { ct = {ct.level() - 1, scale}; }
  void add_constant(Ct&, double) {}
};

std::optional<int> choose_bsgs(const approx::Polynomial& p, int lo, int d, int budget,
                               const std::vector<int>& cached) {
  int best_k = 0;
  int best_mults = INT_MAX;
  for (int kk = 2; kk <= 2 * d; kk *= 2) {
    Count blocks(cached, budget, /*bsgs=*/false);
    eval_blocks(blocks, p, lo, kk, 0, d / kk, 0, 1.0);
    if (blocks.fits && blocks.ct_mults < best_mults) {
      best_mults = blocks.ct_mults;
      best_k = kk;
    }
  }
  if (best_k == 0) return std::nullopt;
  Count ladder(cached, budget, /*bsgs=*/false);
  eval_window(ladder, p, lo, lo + d, 0, 1.0);
  if (best_mults < ladder.ct_mults) return best_k;
  return std::nullopt;
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

const Ciphertext& PowerBasis::power(Evaluator& ev, int e) {
  sp::check(e >= 1, "PowerBasis: exponent must be >= 1");
  auto it = pow_.find(e);
  if (it != pow_.end()) return it->second;

  const auto [a, b] = split_exponent(e);
  const Ciphertext& pa = power(ev, a);
  // std::map references are stable across the recursive insertions.
  const Ciphertext& pb = a == b ? pa : power(ev, b);
  Ciphertext prod = ev.multiply(pa, pb, std::min(pa.level(), pb.level()));
  ev.relinearize_rescale_inplace(prod, *relin_);
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
                                   const approx::Polynomial& p) const {
  PowerBasis basis(*relin_, x);
  return eval_poly(ev, basis, p);
}

Ciphertext PafEvaluator::eval_poly(Evaluator& ev, PowerBasis& basis,
                                   const approx::Polynomial& p) const {
  sp::check(p.degree() >= 1, "eval_poly: degree >= 1 required");
  const int deg = effective_degree(p, 0, p.degree());
  sp::check(deg >= 1, "eval_poly: polynomial reduced to a constant");
  const Ciphertext& x = basis.x();
  const int depth = ceil_log2(deg + 1);
  sp::check(x.level() >= depth, "eval_poly: not enough levels for this degree");

  Run run{ev, *encoder_, *relin_, basis, strategy_ == Strategy::BSGS};
  double constant = 0.0;
  // The final resolve is the last join: any lazily accumulated 3-part sum
  // pays its single relinearization + rescale here.
  std::optional<Ciphertext> out =
      resolve(run, eval_window(run, p, 0, deg, x.level() - depth, ctx_->scale()),
              ctx_->scale(), &constant);
  sp::check(out.has_value(), "eval_poly: polynomial reduced to a constant");
  return std::move(*out);
}

Ciphertext PafEvaluator::eval_composite(Evaluator& ev, Ciphertext x,
                                        const approx::CompositePaf& paf) const {
  sp::check(!paf.stages().empty(), "eval_composite: empty PAF");
  // Each stage's input moves into its basis, which dies with the stage.
  for (const approx::Polynomial& stage : paf.stages()) {
    PowerBasis basis(*relin_, std::move(x));
    x = eval_poly(ev, basis, stage);
  }
  return x;
}

Ciphertext PafEvaluator::sign(Evaluator& ev, const Ciphertext& d,
                              const approx::CompositePaf& paf, double input_scale,
                              double pre_factor) const {
  sp::check_fmt(input_scale > 0, "PafEvaluator: input_scale must be positive, got ",
                input_scale);
  sp::check(pre_factor != 0.0, "PafEvaluator: pre_factor must be nonzero");
  // t = pre_factor * d / input_scale at scale Delta: pre_factor rides the
  // plaintext multiplication the envelope pays anyway, so a folded scalar
  // stage is free.
  Ciphertext t = scaled_to(ev, d, pre_factor / input_scale, d.level() - 1, ctx_->scale());
  return eval_composite(ev, std::move(t), paf);
}

Ciphertext PafEvaluator::relu(Evaluator& ev, const Ciphertext& x,
                              const approx::CompositePaf& paf, double input_scale,
                              double pre_factor) const {
  Ciphertext p = sign(ev, x, paf, input_scale, pre_factor);

  // y = (0.5 pre_factor x) * (1 + p): one extra ct-ct multiplication.
  Ciphertext xh = scaled_to(ev, x, 0.5 * pre_factor, p.level(), p.scale);
  const Plaintext one = encoder_->encode_scalar(1.0, p.scale, p.q_count());
  ev.add_plain_inplace(p, one);
  Ciphertext y = ev.multiply(xh, p);
  ev.relinearize_rescale_inplace(y, *relin_);
  return y;
}

Ciphertext PafEvaluator::max(Evaluator& ev, const Ciphertext& a, const Ciphertext& b,
                             const approx::CompositePaf& paf, double input_scale,
                             double pre_factor) const {
  const int level = std::min(a.level(), b.level());
  Ciphertext d = ev.sub(a, b, level);
  Ciphertext s = ev.add(a, b, level);

  // With pre_factor f: max(fa, fb) = 0.5 f (a+b) + 0.5 f (a-b) p(f(a-b)/s).
  const Ciphertext p = sign(ev, d, paf, input_scale, pre_factor);
  Ciphertext dh = scaled_to(ev, d, 0.5 * pre_factor, p.level(), p.scale);
  Ciphertext dp = ev.multiply(dh, p);
  ev.relinearize_rescale_inplace(dp, *relin_);

  Ciphertext sh = scaled_to(ev, s, 0.5 * pre_factor, dp.level(), dp.scale);
  return ev.add(dp, sh);
}

SchedulePrediction PafEvaluator::predict_poly(const approx::Polynomial& p, Strategy s) {
  SchedulePrediction out;
  const int deg = effective_degree(p, 0, p.degree());
  sp::check(deg >= 1, "predict_poly: polynomial reduced to a constant");
  out.levels = ceil_log2(deg + 1);

  Count count({1}, out.levels, s == Strategy::BSGS);
  eval_window(count, p, 0, deg, 0, 1.0);
  out.ct_mults = count.ct_mults;
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
