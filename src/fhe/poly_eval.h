#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "approx/composite.h"
#include "fhe/evaluator.h"

namespace sp::fhe {

/// Per-evaluation statistics: the paper's latency model is
/// "ct-ct multiplications (with relinearization + rescale) dominate", so the
/// counters here drive both wall-clock measurement and depth verification.
///
/// The `ladder_*` / `*_saved` fields compare the executed schedule against
/// the pure power-ladder baseline for the same polynomials: when the BSGS
/// strategy runs they quantify the baby-step/giant-step savings; under the
/// ladder strategy the savings are zero by definition.
struct EvalStats {
  int ct_mults = 0;
  int relins = 0;
  int rescales = 0;
  int plain_mults = 0;
  int levels_consumed = 0;
  double wall_ms = 0.0;
  int ladder_ct_mults = 0;  ///< what the pure ladder schedule would have cost
  int ct_mults_saved = 0;   ///< ladder_ct_mults - executed ct_mults
  int relins_saved = 0;     ///< every saved ct mult also saves one relin...
  int rescales_saved = 0;   ///< ...and one rescale
  /// Multiplications whose relinearization was deferred by the lazy-relin
  /// path (3-part accumulation, one relin per join): `relins` counts only
  /// the relinearizations actually performed, so under lazy relin
  /// relins <= ct_mults <= relins + relins_deferred.
  int relins_deferred = 0;
};

/// Planner-side prediction of one evaluation schedule, produced without
/// touching any ciphertext. `ct_mults` and `levels` are exact — they come
/// from the same pure cost model the executor mirrors operation for
/// operation (the planner==measured cross-check in tests/test_poly_eval.cpp
/// pins this). `relins`/`rescales` are the eager upper bound (lazy
/// relinearization executes fewer); `plain_mults` counts the coefficient
/// folds (one per nonzero non-constant coefficient), a close estimate.
/// `smartpaf::Planner` weighs these counts with a measured `CostModel`.
struct SchedulePrediction {
  int ct_mults = 0;
  int relins = 0;      ///< eager bound; under lazy relin, executed <= this
  int rescales = 0;    ///< eager bound, same as relins
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

/// Memoized power cache for one evaluation input: x^e is built on demand via
/// the depth-optimal balanced split (e = a + b with a the largest power of
/// two below e), so x^e always lands at level x.level() - ceil(log2 e).
///
/// A basis is reusable: every eval_* call that receives the same basis
/// (same input ciphertext) reuses the cached powers instead of recomputing
/// x, x^2, x^4, ... — this is what makes repeated PAF-ReLU / max calls on
/// one input, and ladder-vs-BSGS comparisons, cheap.
class PowerBasis {
 public:
  PowerBasis() = default;

  /// @brief Seeds the basis with input `x` (equivalent to default-construct
  /// + reset()).
  /// @param ctx    CKKS context (must outlive the basis)
  /// @param relin  relinearization key used when building powers
  /// @param x      the evaluation input; cached as power(1)
  PowerBasis(const CkksContext& ctx, const KSwitchKey& relin, const Ciphertext& x) {
    reset(ctx, relin, x);
  }

  /// @brief True once the basis has been seeded with an input.
  bool initialized() const { return ctx_ != nullptr; }

  /// @brief Drops all cached powers and re-seeds the basis with a new input.
  /// @param ctx    CKKS context
  /// @param relin  relinearization key
  /// @param x      new evaluation input
  void reset(const CkksContext& ctx, const KSwitchKey& relin, const Ciphertext& x);

  /// @brief The basis input x (= power(1)).
  const Ciphertext& x() const { return pow_.at(1); }

  /// @brief x^e, computing and caching any missing intermediate powers.
  /// @param ev     evaluator to run the multiplications on
  /// @param e      exponent (>= 1)
  /// @param stats  optional tally for the ct-ct mults/relins/rescales spent
  /// @return cached ciphertext at level x.level() - ceil(log2 e)
  const Ciphertext& power(Evaluator& ev, int e, EvalStats* stats = nullptr);

  /// @brief Whether x^e is already cached (no cost to fetch).
  bool has(int e) const { return pow_.count(e) != 0; }

  /// @brief Exponents currently cached (always includes 1). Used by the
  /// evaluation planner so already-paid-for powers count as free.
  std::vector<int> cached_exponents() const;

  /// @brief Total ct-ct multiplications spent building this basis so far.
  int mults_spent() const { return mults_spent_; }

 private:
  const CkksContext* ctx_ = nullptr;
  const KSwitchKey* relin_ = nullptr;
  std::map<int, Ciphertext> pow_;
  int mults_spent_ = 0;
};

/// Per-stage evaluation cache for one composite-PAF input: stage i keeps the
/// PowerBasis of its intermediate input (x_i, x_i^2, x_i^4, ...) plus a memo
/// of the stage output, fingerprinted by the stage's coefficients. The
/// single-PowerBasis `basis_cache` of relu()/max() only covers the FIRST
/// composite stage; this cache extends the reuse to every stage, keyed on
/// the intermediate ciphertexts, so repeat-on-same-input evaluation is
/// nearly mult-free (only the final ReLU/max product remains).
///
/// Contract (same as PowerBasis reuse): an initialized cache must come from
/// a previous evaluation of the SAME input ciphertext. Level mismatches are
/// caught; content equality is the caller's duty. Coefficient changes are
/// handled: a stage whose coefficients no longer match the cached
/// fingerprint re-evaluates on its cached powers, and every later stage is
/// re-seeded (their intermediates changed) — so the Coefficient-Tuning loop
/// (same input, retrained coefficients) still keeps the power ladders of the
/// unchanged prefix.
class CompositeBasis {
 public:
  /// @brief True once any stage has been seeded by an evaluation.
  bool initialized() const { return !stages_.empty(); }
  /// @brief Drops every cached basis and output (ready for a new input).
  void clear() { stages_.clear(); }
  /// @brief Stages currently carrying cache state.
  std::size_t stage_count() const { return stages_.size(); }
  /// @brief Power basis of stage `i`'s input (grows the cache as needed).
  PowerBasis& stage_basis(std::size_t i) {
    if (stages_.size() <= i) stages_.resize(i + 1);
    return stages_[i].basis;
  }

 private:
  struct StageCache {
    PowerBasis basis;
    std::optional<Ciphertext> output;  ///< memoized stage output
    std::uint64_t coeff_hash = 0;      ///< coefficients the output is valid for
  };
  std::vector<StageCache> stages_;
  friend class PafEvaluator;
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
/// exact.
class PafEvaluator {
 public:
  enum class Strategy { Ladder, BSGS };

  /// @brief Binds the evaluator to its context, encoder and relin key.
  /// @param ctx        CKKS context (must outlive the evaluator)
  /// @param encoder    encoder used for coefficient plaintexts
  /// @param relin_key  relinearization key for ct-ct products
  /// @param strategy   initial schedule (BSGS by default; see class docs)
  PafEvaluator(const CkksContext& ctx, const Encoder& encoder, const KSwitchKey& relin_key,
               Strategy strategy = Strategy::BSGS)
      : ctx_(&ctx), encoder_(&encoder), relin_(&relin_key), strategy_(strategy) {}

  /// @brief Currently selected evaluation schedule.
  Strategy strategy() const { return strategy_; }
  /// @brief Switches between the Ladder and BSGS schedules.
  void set_strategy(Strategy s) { strategy_ = s; }

  /// @brief Whether lazy relinearization is on (default on): ct-ct products
  /// inside a window stay 3-part, block sums accumulate via the evaluator's
  /// 3-part-aware add_inplace(), and one relinearization is paid per
  /// giant-step join (and once at the end) instead of one per
  /// multiplication.
  bool lazy_relin() const { return lazy_relin_; }
  /// @brief Toggles lazy relinearization. Turn off to get the eager
  /// schedule (one relin per ct-ct mult), e.g. for comparisons.
  void set_lazy_relin(bool lazy) { lazy_relin_ = lazy; }

  /// @brief p(x) for a general dense polynomial (degree >= 1).
  /// @param ev     evaluator to run on
  /// @param x      input ciphertext
  /// @param p      dense coefficient polynomial
  /// @param stats  optional op/level/latency tally for this evaluation
  /// @return p(x) at level x.level() - mult_depth(p), scale ~Delta
  Ciphertext eval_poly(Evaluator& ev, const Ciphertext& x, const approx::Polynomial& p,
                       EvalStats* stats = nullptr) const;

  /// @brief Same, reusing (and extending) a caller-held power basis for x.
  /// @param basis  initialized basis whose x() is the evaluation input;
  ///               powers already cached count as free for the planner
  Ciphertext eval_poly(Evaluator& ev, PowerBasis& basis, const approx::Polynomial& p,
                       EvalStats* stats = nullptr) const;

  /// @brief Composite PAF evaluation, stage by stage.
  /// @param ev     evaluator to run on
  /// @param x      input ciphertext
  /// @param paf    stage chain, applied left-to-right
  /// @param stats  optional tally accumulated across all stages
  Ciphertext eval_composite(Evaluator& ev, const Ciphertext& x,
                            const approx::CompositePaf& paf,
                            EvalStats* stats = nullptr) const;

  /// @brief Same, reusing a caller-held basis for the first stage's input
  /// (later stages consume fresh intermediate ciphertexts and build their
  /// own).
  Ciphertext eval_composite(Evaluator& ev, PowerBasis& basis,
                            const approx::CompositePaf& paf,
                            EvalStats* stats = nullptr) const;

  /// @brief Composite evaluation through a per-stage CompositeBasis cache:
  /// every stage's power basis AND output are cached, so a repeat call on
  /// the same input (the CompositeBasis contract) costs zero ct-ct mults,
  /// and a call with retrained coefficients reuses the cached powers.
  /// @param x      evaluation input; ignored (beyond a level check) once the
  ///               cache is initialized
  /// @param cache  per-stage cache; seeded on first use
  Ciphertext eval_composite(Evaluator& ev, const Ciphertext& x,
                            const approx::CompositePaf& paf, CompositeBasis& cache,
                            EvalStats* stats = nullptr) const;

  /// @brief relu(x) ≈ 0.5 x (1 + paf(x / input_scale)) — the Static-Scaling
  /// deployment form (paper §4.5).
  ///
  /// @param ev           evaluator to run on
  /// @param x            input ciphertext (pre-activation values)
  /// @param paf          sign-approximating composite PAF
  /// @param input_scale  the frozen running max; x is divided by it so the
  ///                     PAF sees values in its accurate range
  /// @param stats        optional op/level/latency tally
  /// @param basis_cache  when given, carries the scaled input's power basis
  ///     for the *first stage* across repeated calls (x, x^2, x^4, ...
  ///     built once; later stages consume fresh intermediates and still
  ///     rebuild theirs). Contract: an initialized cache must come from a
  ///     previous call with the SAME ciphertext and input_scale — the
  ///     scaled input is not recomputed on reuse, so a mismatched cache
  ///     silently evaluates the wrong input. A level mismatch is caught,
  ///     content mismatches are the caller's duty.
  /// @param composite_cache  when given, supersedes `basis_cache`: EVERY
  ///     composite stage's basis and output are cached (see CompositeBasis),
  ///     so a repeat call on the same (x, input_scale, pre_factor, paf)
  ///     pays only the final 0.5 x (1 + p) product — one ct-ct mult.
  /// @param pre_factor  scalar folded into the activation input: evaluates
  ///     the PAF-ReLU of (pre_factor * x) at zero extra cost (the factor
  ///     rides the two plaintext multiplications the envelope already pays).
  ///     This is how the pipeline planner folds scalar linear stages into
  ///     the activation (RescalePolicy::FoldScalars).
  /// @return the PAF-ReLU of every slot, paf.mult_depth() + 2 levels below x
  Ciphertext relu(Evaluator& ev, const Ciphertext& x, const approx::CompositePaf& paf,
                  double input_scale, EvalStats* stats = nullptr,
                  PowerBasis* basis_cache = nullptr,
                  CompositeBasis* composite_cache = nullptr,
                  double pre_factor = 1.0) const;

  /// @brief max(a,b) ≈ 0.5 (a + b) + 0.5 (a-b) paf((a-b)/input_scale).
  /// @param a            first operand
  /// @param b            second operand (same level/scale as `a`)
  /// @param paf          sign-approximating composite PAF
  /// @param input_scale  frozen bound on |a-b|
  /// @param stats        optional op/level/latency tally
  /// @param basis_cache  same contract as relu(): must come from a previous
  ///                     call with the same (a, b, input_scale)
  /// @param composite_cache  supersedes `basis_cache`; caches every
  ///                     composite stage (same contract as relu())
  /// @param pre_factor  scalar folded into BOTH operands: computes
  ///                     max(pre_factor * a, pre_factor * b) at zero extra
  ///                     cost. Only meaningful when a and b are both raw
  ///                     (unscaled) — the pipeline planner uses this for a
  ///                     single pairwise fold (pool window 2), never inside
  ///                     longer tournaments whose running operand already
  ///                     carries the factor.
  Ciphertext max(Evaluator& ev, const Ciphertext& a, const Ciphertext& b,
                 const approx::CompositePaf& paf, double input_scale,
                 EvalStats* stats = nullptr, PowerBasis* basis_cache = nullptr,
                 CompositeBasis* composite_cache = nullptr,
                 double pre_factor = 1.0) const;

  /// @brief Multiplication depth eval_poly consumes for `p` (both
  /// strategies consume exactly the ladder bound ceil(log2(deg+1))).
  static int mult_depth(const approx::Polynomial& p);

  /// @brief Predicts the schedule eval_poly would execute for `p` under
  /// strategy `s` with a fresh basis, without touching ciphertexts.
  /// `ct_mults` and `levels` are exact (the prediction runs the same pure
  /// planner the executor mirrors op-for-op); relins/rescales are the eager
  /// upper bound. The BSGS prediction uses the depth budget eval_poly grants
  /// itself (the ladder depth), so it is parameter-set independent.
  static SchedulePrediction predict_poly(const approx::Polynomial& p, Strategy s);

  /// @brief Stage-summed prediction for a composite PAF (each stage gets a
  /// fresh intermediate basis, mirroring eval_composite).
  static SchedulePrediction predict_composite(const approx::CompositePaf& paf,
                                              Strategy s);

 private:
  /// (factor * ct) moved to `target_level` with scale exactly `target_scale`
  /// (one plaintext multiplication + rescale).
  Ciphertext scaled_to(Evaluator& ev, const Ciphertext& ct, double factor,
                       int target_level, double target_scale) const;

  const CkksContext* ctx_;
  const Encoder* encoder_;
  const KSwitchKey* relin_;
  Strategy strategy_;
  bool lazy_relin_ = true;
};

}  // namespace sp::fhe
