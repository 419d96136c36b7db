#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "fhe/encryptor.h"
#include "fhe/keys.h"

namespace sp::fhe {

/// Running tally of homomorphic operations (latency accounting for the
/// paper's cost model: ct-ct multiplications + relinearizations dominate).
///
/// Fields are relaxed atomics: evaluator internals fan work out across the
/// SMARTPAF_THREADS pool (key-switch lanes tally their NTTs from inside the
/// parallel region), so plain increments would race and drop counts. Atomic
/// tallies keep every total exactly thread-count-invariant. Copying takes a
/// snapshot.
struct OpCounters {
  std::atomic<std::size_t> adds{0};
  std::atomic<std::size_t> plain_mults{0};
  std::atomic<std::size_t> ct_mults{0};
  std::atomic<std::size_t> relins{0};
  std::atomic<std::size_t> rescales{0};
  std::atomic<std::size_t> rotations{0};
  /// Rotations served by a hoisted fan (rotate_hoisted; also counted in
  /// `rotations`): these skip the per-rotation digit decomposition.
  std::atomic<std::size_t> hoisted_rotations{0};
  /// Per-row forward/inverse NTTs issued by evaluator operations — the
  /// hoisting win shows up here: a hoisted rotation fan performs strictly
  /// fewer forward NTTs than the same fan of naive rotations.
  std::atomic<std::size_t> ntts_forward{0};
  std::atomic<std::size_t> ntts_inverse{0};

  /// The one authoritative field list: assignment, `delta_since` and the
  /// sums of several ledgers go through here, so a new counter added to the
  /// struct and to this list is picked up by each of them. `per_input()`
  /// does not: `OpCountersPerInput` is a separate struct that perfbench
  /// reads by field name, so a new counter needs a line there too.
  /// `fn` receives (destination atomic of `dst`, same field of `src`).
  template <typename Fn>
  static void zip_fields(OpCounters& dst, const OpCounters& src, const Fn& fn) {
    fn(dst.adds, src.adds);
    fn(dst.plain_mults, src.plain_mults);
    fn(dst.ct_mults, src.ct_mults);
    fn(dst.relins, src.relins);
    fn(dst.rescales, src.rescales);
    fn(dst.rotations, src.rotations);
    fn(dst.hoisted_rotations, src.hoisted_rotations);
    fn(dst.ntts_forward, src.ntts_forward);
    fn(dst.ntts_inverse, src.ntts_inverse);
  }

  OpCounters() = default;
  OpCounters(const OpCounters& o) { *this = o; }
  OpCounters& operator=(const OpCounters& o) {
    zip_fields(*this, o, [](std::atomic<std::size_t>& d, const std::atomic<std::size_t>& s) {
      d = s.load();
    });
    return *this;
  }

  /// @brief Resets every tally to zero.
  void reset() { *this = OpCounters(); }

  /// @brief Counter increments since a `baseline` snapshot (this - baseline).
  ///
  /// The usual pattern for scoping counters to one pipeline: copy the
  /// counters before, run, then diff. Every field of `baseline` must be
  /// <= the corresponding field here (counters only grow).
  /// @param baseline  snapshot taken before the measured region
  /// @return per-field differences as a fresh OpCounters snapshot
  OpCounters delta_since(const OpCounters& baseline) const {
    OpCounters d = *this;
    zip_fields(d, baseline, [](std::atomic<std::size_t>& v, const std::atomic<std::size_t>& b) {
      v = v.load() - b.load();
    });
    return d;
  }
};

/// Amortized per-input view of an OpCounters span: when one packed
/// ciphertext serves `batch_size` requests (client-side `pack_slots` or the
/// serving executor's packed groups), the whole-ciphertext op counts divide
/// across the batch. These are the figures that make latency-vs-throughput
/// tables honest: a rotation fan or relinearization paid once per ciphertext
/// costs 1/B of itself per request.
struct OpCountersPerInput {
  double adds = 0.0;
  double plain_mults = 0.0;
  double ct_mults = 0.0;
  double relins = 0.0;
  double rescales = 0.0;
  double rotations = 0.0;
  double hoisted_rotations = 0.0;
  double ntts_forward = 0.0;
  double ntts_inverse = 0.0;
};

/// @brief Divides an OpCounters span by `batch_size` packed inputs.
/// @param c  counter deltas covering one packed-ciphertext pipeline
/// @param batch_size  number of requests the ciphertext carried (>= 1)
/// @return each tally as a per-input double
inline OpCountersPerInput per_input(const OpCounters& c, int batch_size) {
  const double b = batch_size < 1 ? 1.0 : static_cast<double>(batch_size);
  OpCountersPerInput out;
  out.adds = static_cast<double>(c.adds.load()) / b;
  out.plain_mults = static_cast<double>(c.plain_mults.load()) / b;
  out.ct_mults = static_cast<double>(c.ct_mults.load()) / b;
  out.relins = static_cast<double>(c.relins.load()) / b;
  out.rescales = static_cast<double>(c.rescales.load()) / b;
  out.rotations = static_cast<double>(c.rotations.load()) / b;
  out.hoisted_rotations = static_cast<double>(c.hoisted_rotations.load()) / b;
  out.ntts_forward = static_cast<double>(c.ntts_forward.load()) / b;
  out.ntts_inverse = static_cast<double>(c.ntts_inverse.load()) / b;
  return out;
}

/// Leveled CKKS evaluator: arithmetic, rescaling, relinearization via hybrid
/// key-switching with one special prime, and slot rotations.
///
/// Conventions: ciphertext parts are kept in NTT form; `level` = q_count-1
/// counts remaining rescales; scales are tracked as exact doubles and
/// addition requires operands within 1e-6 relative scale mismatch.
///
/// Levels are explicit. Dropping a chain prime from an NTT-form part is
/// exact truncation of its flat row array, so the binary ops and
/// multiply_scalar take a `level` and read only the first level + 1 rows of
/// each operand: bit for bit a copy dropped to that level, without the copy.
/// A level above an operand's throws sp::Error, and the overloads without a
/// level require equal levels; no op matches levels silently. Every op that
/// returns a ciphertext writes each output row once, into fresh storage.
///
/// Hot loops (NTT batches, key switching one output prime per lane) run on
/// the SMARTPAF_THREADS pool; results are bit-identical for every thread
/// count.
class Evaluator {
 public:
  /// @brief Binds the evaluator to a context; no key material is held (keys
  /// are passed per operation).
  /// @param ctx  precomputed CKKS context (must outlive the evaluator)
  explicit Evaluator(const CkksContext& ctx) : ctx_(&ctx) {}

  /// @brief The context this evaluator operates under.
  const CkksContext& context() const { return *ctx_; }

  /// @brief Drops chain primes (without scaling) until the ciphertext sits
  /// at `level`; no-op if already there. For a ciphertext that is kept at
  /// the lower level; an operand read once at a lower level goes to an op
  /// that takes the level instead.
  /// @param ct     ciphertext to truncate in place
  /// @param level  target level, must be <= ct.level()
  void drop_to_level(Ciphertext& ct, int level) const;

  /// @brief Slot-wise a + b at `level`: reads the first level + 1 rows of
  /// every part of both operands. Operands must have equal part counts and
  /// (within 1e-6 relative) scales.
  /// @param level  0 <= level <= min(a.level(), b.level()); otherwise
  ///               sp::Error names the level and the operand's level
  /// @return fresh sum at `level`, a's scale
  Ciphertext add(const Ciphertext& a, const Ciphertext& b, int level) const;
  /// @brief add() at the common level; the levels must be equal.
  Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;

  /// @brief Slot-wise a - b at `level`, under the same preconditions as add().
  Ciphertext sub(const Ciphertext& a, const Ciphertext& b, int level) const;
  /// @brief sub() at the common level; the levels must be equal.
  Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;

  /// @brief Negates every slot in place (any part count, any level).
  void negate_inplace(Ciphertext& ct) const;

  /// @brief a += b with part-count mismatch support: a 2-part and a 3-part
  /// (pre-relinearization) operand add by zero-padding the shorter one, so
  /// the sum keeps the larger part count. This is what lets lazy
  /// relinearization accumulate BSGS block sums in 3-part form and pay a
  /// single relinearization per join.
  /// @param a  accumulator; grows to 3 parts if either operand has 3
  /// @param b  addend at the same level/scale as `a`
  void add_inplace(Ciphertext& a, const Ciphertext& b) const;

  /// @brief ct += pt (plaintext at the same level/scale).
  void add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const;

  /// @brief ct *= pt slot-wise; scale multiplies (rescale afterwards to
  /// return to ~Delta). Works for 2- and 3-part ciphertexts.
  void multiply_plain_inplace(Ciphertext& ct, const Plaintext& pt) const;

  /// @brief ct * pt into a fresh ciphertext: bit for bit a copy of `ct`
  /// given to multiply_plain_inplace(), tallied the same.
  Ciphertext multiply_plain(const Ciphertext& ct, const Plaintext& pt) const;

  /// @brief acc += ct * pt, the product formed one tile at a time in the
  /// lane's scratch and added in the same pass: bit for bit
  /// add_inplace(acc, multiply_plain(ct, pt)), tallied as one plain
  /// multiplication and one add. `acc` has at least ct's part count, its
  /// level and (within 1e-6 relative) the product's scale.
  void multiply_plain_add_inplace(Ciphertext& acc, const Ciphertext& ct,
                                  const Plaintext& pt) const;

  /// @brief ct *= value at `scale`: every row is multiplied by its prime's
  /// residue of scalar_coefficient(value, scale) with the Shoup kernel, and
  /// the scale multiplies. Bit for bit multiply_plain_inplace(ct,
  /// encode_scalar(value, scale, ct.q_count())) without building the
  /// plaintext; tallied as one plain multiplication. Works for 2- and
  /// 3-part ciphertexts.
  void multiply_scalar_inplace(Ciphertext& ct, double value, double scale) const;

  /// @brief multiply_scalar_inplace() out of place at `level`: reads the
  /// first level + 1 rows of ct's parts into a fresh ciphertext, bit for bit
  /// a copy dropped to `level` and multiplied in place; one plain
  /// multiplication.
  /// @param level  0 <= level <= ct.level(); otherwise sp::Error
  Ciphertext multiply_scalar(const Ciphertext& ct, double value, double scale, int level) const;

  /// @brief acc += ct * value at `scale`, formed and added one tile at a
  /// time like multiply_plain_add_inplace(), tallied the same.
  void multiply_scalar_add_inplace(Ciphertext& acc, const Ciphertext& ct, double value,
                                   double scale) const;

  /// @brief Tensor product of two 2-part ciphertexts at `level`: reads the
  /// first level + 1 rows of both operands' parts and writes
  /// p0 = a0·b0, p1 = a0·b1 + a1·b0 and p2 = a1·b1 once each.
  /// @param level  0 <= level <= min(a.level(), b.level()); otherwise
  ///               sp::Error names the level and the operand's level
  /// @return 3-part product at `level` with scale = a.scale * b.scale;
  ///         relinearize (or accumulate via add_inplace and relinearize once
  ///         at the join) before any further multiplication
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b, int level) const;
  /// @brief multiply() at the common level; the levels must be equal.
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;

  /// @brief Switches the quadratic part back to the canonical basis
  /// (3 parts -> 2). No-op input is an error: `ct` must have 3 parts.
  /// The decomposition of the quadratic part is streamed one output prime
  /// at a time (see apply_kswitch): no digit array is built. Costs c
  /// inverse and c^2 forward NTTs, then the mod-down's 2 and 2c. Only for
  /// a sum that is not rescaled next (LinearTransform's encrypted-mask
  /// groups rotate by their giant step first); a product that is rescaled
  /// next calls relinearize_rescale_inplace().
  /// @param ct  3-part ciphertext, relinearized in place
  /// @param rk  relinearization key (key-switching key for s^2); a key of
  ///            the wrong shape throws sp::Error before any work
  void relinearize_inplace(Ciphertext& ct, const KSwitchKey& rk) const;

  /// @brief relinearize_inplace() then rescale_inplace(), bit for bit, with
  /// one NTT-domain division that drops P and the last chain prime
  /// together: each surviving row sums its two lifts before one forward
  /// NTT. At c primes it costs c + 4 inverse and c^2 + 2c - 2 forward NTTs
  /// (the pair: c + 4 and c^2 + 4c - 2). Every relinearization that is
  /// immediately rescaled runs this op (PowerBasis, eval_poly's products
  /// and joins, the PAF envelopes, the encrypted trainer).
  /// @param ct  3-part ciphertext at level >= 1; afterwards 2 parts, one
  ///            level lower, scale / q_last
  /// @param rk  relinearization key; a key of the wrong shape throws
  ///            sp::Error before any work, as do a 2-part or level-0 `ct`
  void relinearize_rescale_inplace(Ciphertext& ct, const KSwitchKey& rk) const;

  /// @brief Divides by the last chain prime: level decreases by 1 and
  /// scale /= q_last. Works for 2- and 3-part ciphertexts. Runs in the NTT
  /// domain: one inverse NTT per part (the dropped row) and c - 1 forward.
  /// Rescales plain and scalar products and LinearTransform's output
  /// blocks; a fresh ct-ct product goes through
  /// relinearize_rescale_inplace() instead.
  void rescale_inplace(Ciphertext& ct) const;

  /// @brief Rotates slots left by `steps` (Galois automorphism + key
  /// switch). Permutes c1's NTT rows by the automorphism first, then runs
  /// the same streamed single-use switch as relinearize_inplace and adds the
  /// permuted c0. Bit for bit and NTT for NTT equal to the one-step fan
  /// `rotate_hoisted(ct, {steps}, gk)`, because the decomposition commutes
  /// with the automorphism; tallied as a plain rotation.
  /// @param ct     2-part source ciphertext
  /// @param steps  slot offset (negative = right rotation); a key for
  ///               galois_element(n, steps) must exist in `gk`
  /// @param gk     rotation keys
  /// @return rotated ciphertext at the same level/scale
  Ciphertext rotate(const Ciphertext& ct, int steps, const GaloisKeys& gk) const;

  /// @brief Hoisted rotation fan ("hoisting"): the key-switch digit
  /// decomposition of c1 is computed once (c inverse and c^2 forward NTTs)
  /// and every step permutes those NTT-form digits (a slot shuffle) before
  /// its key inner product, so each step costs only its mod-down (2 inverse,
  /// 2c forward NTTs) — the saving for rotation fans (BSGS baby steps, conv
  /// im2col, pooling). Each step's result is bit for bit rotate(ct, step,
  /// gk); c0 rotates as an NTT-domain permutation. A step of 0 returns `ct`
  /// unchanged; every other step counts one rotation and one hoisted
  /// rotation.
  /// @param ct     2-part source ciphertext
  /// @param steps  fan of slot offsets
  /// @param gk     rotation keys covering every nonzero step; a missing key
  ///               throws sp::Error naming the step and its Galois element
  /// @return one rotated ciphertext per step, in `steps` order
  std::vector<Ciphertext> rotate_hoisted(const Ciphertext& ct,
                                         const std::vector<int>& steps,
                                         const GaloisKeys& gk) const;

  mutable OpCounters counters;

 private:
  /// The hoistable half of hybrid key switching, used by the rotation fan
  /// only: digit i is the centered lift of `d`'s residue row i into the
  /// extended basis Q ∪ {P}, in NTT form. `d` is NTT form over c chain
  /// rows; digit i's row i is copied from it (a fan permutes it with the
  /// rest), so the cost is c inverse and c^2 forward NTTs. The c x (c + 1)
  /// rows are prime-major: digit i's row
  /// in output prime t (the c chain primes, then P) starts at (t·c + i)·n,
  /// so one prime's c rows are one block, laid out like a switch's scratch.
  /// One allocation holds every row: as c separate polynomials, a fan at 19
  /// primes (N = 2048) faulted its 6 MB of digits in afresh on every call.
  sp::AlignedVec<u64> decompose_digits(const RnsPoly& d) const;

  /// Throws sp::Error, naming the digits, rows and ring size found and
  /// expected, unless `key` has q_count() digits whose two parts are NTT
  /// form over the full chain plus the special row at the context's ring
  /// size. Every key switch calls it before any work.
  void check_kswitch_key(const KSwitchKey& key) const;

  /// Single-use key switch of `d` (NTT form over c chain rows) over
  /// Q ∪ {P}, streamed: `d` is copied into `d_coeff` (c rows) and
  /// inverse-transformed there (c NTTs); then each output prime t — the c
  /// chain primes, then P, one parallel unit each — lifts every other
  /// coefficient row into q_t in a per-thread scratch block,
  /// forward-transforms those lifts (digit t's own row in q_t is read from
  /// `d` itself), and calls simd::Kernels::key_inner_product against key
  /// row t, writing row t of both outputs at out0 / out1 + t·n. The NTT
  /// counts equal those of a full decomposition.
  void apply_kswitch(const RnsPoly& d, const KSwitchKey& key, u64* d_coeff, u64* out0,
                     u64* out1) const;

  /// The same switch into two fresh polynomials over Q ∪ {P}; callers
  /// mod_down() the result.
  std::pair<RnsPoly, RnsPoly> apply_kswitch(const RnsPoly& d, const KSwitchKey& key) const;

  /// The same switch over the c-prime digits of decompose_digits() under
  /// Galois element `g`: for each output prime, its c digit rows are
  /// permuted by galois_ntt_table(n, g) into the scratch block and handed
  /// to the same kernel.
  std::pair<RnsPoly, RnsPoly> apply_kswitch(const sp::AlignedVec<u64>& digits, int c,
                                            const KSwitchKey& key, u64 g) const;

  /// Mod-down of a rotation's key-switch output plus `src`'s c0 permuted by
  /// Galois element `g`: the shared tail of rotate() and rotate_hoisted().
  Ciphertext finish_rotation(std::pair<RnsPoly, RnsPoly> r, const Ciphertext& src,
                             u64 g) const;

  /// Divides both extended-basis key-switch outputs by the special prime P
  /// with centered rounding, in the NTT domain: only the P rows go back to
  /// coefficient form (2 inverse NTTs); their lifts into the chain primes
  /// take 2c forward NTTs in one batch. Leaves chain rows in NTT form.
  void mod_down(RnsPoly& r0, RnsPoly& r1) const;

  const CkksContext* ctx_;
};

}  // namespace sp::fhe
