#pragma once

#include <map>
#include <vector>

#include "approx/composite.h"
#include "fhe/evaluator.h"

namespace sp::fhe {

/// Per-evaluation statistics: the paper's latency model is
/// "ct-ct multiplications (with relinearization + rescale) dominate", so the
/// counters here drive wall-clock measurement. Depth is read off the
/// ciphertexts: every one carries its own level, and rescales are counted
/// by the evaluator's `OpCounters`. A schedule's saving over the pure
/// ladder is the difference of two runs' (or two predict_poly())
/// `ct_mults`.
struct EvalStats {
  int ct_mults = 0;
  int relins = 0;
  int plain_mults = 0;
  double wall_ms = 0.0;
  /// Multiplications whose relinearization was deferred to a join (3-part
  /// accumulation, one relin per join): `relins` counts only the
  /// relinearizations actually performed, so
  /// relins <= ct_mults <= relins + relins_deferred.
  int relins_deferred = 0;
};

/// Planner-side prediction of one evaluation schedule, produced without
/// touching any ciphertext. `ct_mults` and `levels` are exact — they come
/// from the same pure cost model the executor mirrors operation for
/// operation (the planner==measured cross-check in tests/test_poly_eval.cpp
/// pins this). `relins`/`rescales` are the upper bound of one per ct-ct
/// mult (lazy relinearization executes fewer); `plain_mults` counts the
/// coefficient folds (one per nonzero non-constant coefficient), a close
/// estimate. `smartpaf::Planner` weighs these counts with a `CostModel`.
struct SchedulePrediction {
  int ct_mults = 0;
  int relins = 0;      ///< one per ct-ct mult; executed <= this
  int rescales = 0;    ///< same bound as relins
  int plain_mults = 0; ///< coefficient-fold estimate
  int levels = 0;      ///< exact multiplication depth consumed

  SchedulePrediction& operator+=(const SchedulePrediction& o) {
    ct_mults += o.ct_mults;
    relins += o.relins;
    rescales += o.rescales;
    plain_mults += o.plain_mults;
    levels += o.levels;
    return *this;
  }
};

/// (factor * ct) landed at exactly (target_level, target_scale): one
/// scalar multiplication, reading `ct` at target_level + 1, then a rescale.
///
/// The scalar is multiplied in at scale target_scale * q / ct.scale (q = the
/// prime the rescale divides out), so the result's scale is target_scale
/// *exactly*.
/// This is how eval_poly delivers every coefficient term onto one common
/// (level, scale) pair, how the PAF envelopes scale their inputs, and how
/// operands whose scales drifted apart through different rescale chains
/// (a MaxPool tournament's running max vs its next tap, the encrypted
/// trainer's labels vs sigmoid output) meet again before an add/sub.
Ciphertext scaled_to(Evaluator& ev, const Ciphertext& ct, double factor, int target_level,
                     double target_scale);

/// Memoized power cache for one evaluation input: x^e is built on demand via
/// the depth-optimal balanced split (e = a + b with a the largest power of
/// two below e), so x^e always lands at level x.level() - ceil(log2 e).
/// eval_poly builds one per polynomial and drops it when the call returns.
class PowerBasis {
 public:
  /// @brief Seeds the basis with input `x`.
  /// @param relin  relinearization key used when building powers (must
  ///               outlive the basis)
  /// @param x      the evaluation input; kept as power(1)
  PowerBasis(const KSwitchKey& relin, Ciphertext x);

  /// @brief The basis input x (= power(1)).
  const Ciphertext& x() const { return pow_.at(1); }

  /// @brief x^e, computing and caching any missing intermediate powers.
  /// @param ev     evaluator to run the multiplications on
  /// @param e      exponent (>= 1)
  /// @param stats  optional tally for the ct-ct mults/relins/rescales spent
  /// @return cached ciphertext at level x.level() - ceil(log2 e)
  const Ciphertext& power(Evaluator& ev, int e, EvalStats* stats = nullptr);

  /// @brief Exponents currently cached (always includes 1). Used by the
  /// evaluation planner so already-paid-for powers count as free.
  std::vector<int> cached_exponents() const;

 private:
  const KSwitchKey* relin_;
  std::map<int, Ciphertext> pow_;
};

/// Evaluates polynomials / composite PAFs on ciphertexts.
///
/// Two schedules are available behind `Strategy`:
///  - `Ladder`: the balanced double-and-add ladder; a degree-n stage consumes
///    exactly ceil(log2(n+1)) levels (Appendix C of the paper) and O(n)
///    ct-ct multiplications.
///  - `BSGS`: budget-aware baby-step/giant-step. Each subtree of the ladder
///    recursion is replaced by a k-block Paterson-Stockmeyer decomposition
///    (baby powers x..x^{k-1}, giant steps x^k, x^2k, ...) whenever the plan
///    fits the ladder's level budget with strictly fewer ct-ct mults, so it
///    consumes the same number of levels and never more multiplications —
///    O(sqrt n) on the depth-slack portions that dominate for degree >= 8.
///
/// Either way, term combination encodes each coefficient at the scale that
/// lands every term on one common (level, scale) pair, so additions are
/// exact, and relinearization is lazy: ct-ct products inside a window stay
/// 3-part, block sums accumulate via the evaluator's 3-part-aware
/// add_inplace(), and one relinearization + rescale is paid per join (and
/// once at the end) instead of one per multiplication.
class PafEvaluator {
 public:
  enum class Strategy { Ladder, BSGS };

  /// @brief Binds the evaluator to its context, encoder and relin key, and
  /// fixes its schedule. Holds three pointers and an enum, so one per
  /// schedule is cheap to build.
  /// @param ctx         CKKS context (must outlive the evaluator)
  /// @param encoder     encoder used for coefficient plaintexts
  /// @param relin_key   relinearization key for ct-ct products
  /// @param strategy    evaluation schedule (BSGS by default; see class docs)
  PafEvaluator(const CkksContext& ctx, const Encoder& encoder, const KSwitchKey& relin_key,
               Strategy strategy = Strategy::BSGS)
      : ctx_(&ctx), encoder_(&encoder), relin_(&relin_key), strategy_(strategy) {}

  /// @brief p(x) for a general dense polynomial (degree >= 1).
  /// @param ev     evaluator to run on
  /// @param x      input ciphertext
  /// @param p      dense coefficient polynomial
  /// @param stats  optional op/level/latency tally for this evaluation
  /// @return p(x) at level x.level() - mult_depth(p), scale ~Delta
  Ciphertext eval_poly(Evaluator& ev, const Ciphertext& x, const approx::Polynomial& p,
                       EvalStats* stats = nullptr) const;

  /// @brief Composite PAF evaluation, stage by stage; each stage builds the
  /// power basis of its own input.
  /// @param ev     evaluator to run on
  /// @param x      input ciphertext (taken by value: pass an rvalue to move
  ///               it into the first stage's basis)
  /// @param paf    stage chain, applied left-to-right
  /// @param stats  optional tally accumulated across all stages
  Ciphertext eval_composite(Evaluator& ev, Ciphertext x, const approx::CompositePaf& paf,
                            EvalStats* stats = nullptr) const;

  /// @brief relu(x) ≈ 0.5 x (1 + paf(x / input_scale)) — the Static-Scaling
  /// deployment form (paper §4.5).
  ///
  /// @param ev           evaluator to run on
  /// @param x            input ciphertext (pre-activation values)
  /// @param paf          sign-approximating composite PAF
  /// @param input_scale  the frozen running max (> 0); x is divided by it so
  ///                     the PAF sees values in its accurate range
  /// @param stats        optional op/level/latency tally
  /// @param pre_factor  scalar folded into the activation input: evaluates
  ///     the PAF-ReLU of (pre_factor * x) at zero extra cost (the factor
  ///     rides the two plaintext multiplications the envelope already pays).
  ///     This is how the pipeline planner's fold pass folds scalar linear
  ///     stages into the activation.
  /// @return the PAF-ReLU of every slot, paf.mult_depth() + 2 levels below x
  Ciphertext relu(Evaluator& ev, const Ciphertext& x, const approx::CompositePaf& paf,
                  double input_scale, EvalStats* stats = nullptr,
                  double pre_factor = 1.0) const;

  /// @brief max(a,b) ≈ 0.5 (a + b) + 0.5 (a-b) paf((a-b)/input_scale).
  /// @param a            first operand
  /// @param b            second operand (same scale as `a`; levels are
  ///                     matched)
  /// @param paf          sign-approximating composite PAF
  /// @param input_scale  frozen bound on |a-b| (> 0)
  /// @param stats        optional op/level/latency tally
  /// @param pre_factor  scalar folded into BOTH operands: computes
  ///                     max(pre_factor * a, pre_factor * b) at zero extra
  ///                     cost. Only meaningful when a and b are both raw
  ///                     (unscaled) — the pipeline planner uses this for a
  ///                     single pairwise fold (pool window 2), never inside
  ///                     longer tournaments whose running operand already
  ///                     carries the factor.
  Ciphertext max(Evaluator& ev, const Ciphertext& a, const Ciphertext& b,
                 const approx::CompositePaf& paf, double input_scale,
                 EvalStats* stats = nullptr, double pre_factor = 1.0) const;

  /// @brief Multiplication depth eval_poly consumes for `p` (both
  /// strategies consume exactly the ladder bound ceil(log2(deg+1))).
  static int mult_depth(const approx::Polynomial& p);

  /// @brief Predicts the schedule eval_poly would execute for `p` under
  /// strategy `s`, without touching ciphertexts.
  /// `ct_mults` and `levels` are exact (the prediction runs the same pure
  /// planner the executor mirrors op-for-op); relins/rescales are the upper
  /// bound of one per ct-ct mult. The BSGS prediction uses the depth budget
  /// eval_poly grants itself (the ladder depth), so it is parameter-set
  /// independent.
  static SchedulePrediction predict_poly(const approx::Polynomial& p, Strategy s);

  /// @brief Stage-summed prediction for a composite PAF (each stage gets a
  /// fresh intermediate basis, mirroring eval_composite).
  static SchedulePrediction predict_composite(const approx::CompositePaf& paf,
                                              Strategy s);

 private:
  Ciphertext eval_poly(Evaluator& ev, PowerBasis& basis, const approx::Polynomial& p,
                       EvalStats* stats) const;

  /// The sign half both envelopes share: paf(pre_factor * d / input_scale),
  /// one level for the input scaling plus paf.mult_depth() below d.
  Ciphertext sign(Evaluator& ev, const Ciphertext& d, const approx::CompositePaf& paf,
                  double input_scale, double pre_factor, EvalStats* stats) const;

  const CkksContext* ctx_;
  const Encoder* encoder_;
  const KSwitchKey* relin_;
  Strategy strategy_;
};

}  // namespace sp::fhe
