#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <variant>
#include <vector>

#include "fhe/encoder.h"
#include "fhe/evaluator.h"

namespace sp::fhe {

/// Floor-division giant step of a baby-step/giant-step split:
/// g = n1 * floor(k / n1), so the baby k - g lands in [0, n1) for negative k
/// too. n1 == 0 is the pure fan: every term is a baby, g = 0.
int giant_of(int k, int n1);

/// Index math of one masked rotation-sum (the Halevi–Shoup identity every
/// rotation-fan linear layer reduces to):
///
///   y[bo] = sum_{bi, g} rot( sum_{terms (bi, bo, g, b)} m ⊙ rot(x[bi], b), g )
///
/// A term reads input block `in_block`, rotates it by its baby step, takes
/// a mask, and joins its (out_block, in_block, giant) group, whose sum is
/// rotated once by the giant step. Masks of a giant group are pre-rotated
/// by -giant when they are generated, so the term reads rot(x, giant + baby)
/// at every output slot. Generators emit each group as one contiguous run
/// of `terms`; the executor and every query below treat a run as a group.
///
/// The schedule is pure structure: keygen, the Planner's pricing and tests
/// query it without any mask or ciphertext.
struct LtSchedule {
  struct Term {
    int in_block = 0;
    int out_block = 0;
    int giant = 0;  ///< slot rotation of the group sum (0 = none)
    int baby = 0;   ///< slot rotation of the input block (0 = none)
  };

  int n1 = 0;  ///< split the generator used (0 = pure fan)
  int blocks_in = 1;
  int blocks_out = 1;
  std::vector<Term> terms;

  /// @brief Distinct nonzero baby steps of input block `bi`, ascending — the
  /// one fan (hoisted or naive) that block pays.
  std::vector<int> fan_steps(int bi) const;
  /// @brief Distinct nonzero giant steps, ascending.
  std::vector<int> giant_steps() const;
  /// @brief Union of every rotation step (keygen), ascending.
  std::vector<int> steps() const;
  /// @brief Rotations apply() executes: every input block's fan plus one per
  /// group with a nonzero giant.
  int rotations() const;
  /// @brief Mask multiplications apply() executes: one per term, plus one
  /// zero mask per output block no term feeds.
  int mask_mults() const;
};

/// Slot-vector mask generator; runs only on an Encoder::encode_cached miss.
using SlotMask = std::function<std::vector<double>()>;

/// One term's mask (or one output block's bias): a broadcast scalar, a
/// lazily generated slot vector, or a ciphertext (an encrypted matrix, not
/// owned; the product is 3-part and the group sum relinearizes before its
/// giant rotation).
using LtMask = std::variant<double, SlotMask, const Ciphertext*>;

/// A schedule plus its masks and per-output-block biases, and the one
/// executor every rotation-fan linear layer runs through (window, compact,
/// matmul, conv and the encrypted-matrix matvec).
///
/// apply() consumes exactly one level:
///  - per input block, one baby fan (hoisted or naive) over fan_steps(bi);
///  - per group, mask every baby and sum; a 3-part sum (ciphertext masks)
///    relinearizes; the sum rotates once by its giant;
///  - per output block, the group sums add up (an unfed block gets a zero
///    mask so every block lands at one level), rescale once, add the bias.
struct LinearTransform {
  LtSchedule schedule;
  std::vector<LtMask> masks;               ///< parallel to schedule.terms
  std::vector<std::optional<LtMask>> bias;  ///< empty, or one per output block
  /// Content hash of everything the generator read (weights, geometry,
  /// tile, split). Term i's slot mask caches under fnv_mix(key, i) and
  /// output block bo's bias under fnv_mix(key, terms + bo): one mix is a
  /// bijection, so the plaintexts of one transform never alias.
  std::uint64_t key = 0;

  LinearTransform(int blocks_in, int blocks_out, int n1);

  /// @brief Appends one term (keep each group's terms contiguous).
  void add(int in_block, int out_block, int giant, int baby, LtMask mask);

  /// @brief y = sum of masked rotations (+ bias), one level below `in`.
  /// Each term's product is written into its group or added into it in
  /// the same pass; no input or baby rotation is copied.
  /// @param in     `blocks` (= schedule.blocks_in) consecutive 2-part
  ///               ciphertexts at one level/scale, read only
  /// @param gk     rotation keys covering schedule.steps()
  /// @param hoist  route each input block's fan through one decomposition
  /// @param enc    encoder for slot masks and biases (may be null when every
  ///               mask is a scalar or a ciphertext and no bias is set)
  /// @param scale  encoding scale of scalar/slot masks (Delta)
  /// @param relin  relinearization key (ciphertext masks only; those must sit
  ///               at or above the inputs' level)
  std::vector<Ciphertext> apply(Evaluator& ev, const Ciphertext* in, std::size_t blocks,
                                const GaloisKeys& gk, bool hoist, const Encoder* enc,
                                double scale, const KSwitchKey* relin = nullptr) const;
};

/// Geometry of one channel-packed 2-D convolution under the grid slot
/// layout: input element (c, y, x) lives at slot
///   c * ch_stride + y * row_stride + x * elem_stride
/// and output element (oc, oy, ox) lands at the anchor
///   oc * ch_stride + oy * (row_stride * stride) + ox * (elem_stride * stride)
/// of the same grid, so strided convolutions compose without repacking.
///
/// The conv term (oc, ic, dy, dx) reads input slot out_pos + shift with the
/// constant shift (ic - oc) * ch_stride + dy * row_stride + dx * elem_stride,
/// so one rotation serves every output position and every (oc, ic) pair at
/// channel offset ic - oc: an extended diagonal in the Halevi–Shoup sense.
/// Valid (pad = 0) convolutions only: every masked slot's rotation source
/// stays inside the grid, so cyclic rotation never drags in foreign data.
struct ConvGeom {
  int in_channels = 0;
  int out_channels = 0;
  int height = 0;      ///< input spatial rows
  int width = 0;       ///< input spatial columns
  int kernel = 1;      ///< square kernel side
  int stride = 1;      ///< spatial stride (>= 1)
  int ch_stride = 0;   ///< slots between consecutive channel planes
  int row_stride = 0;  ///< slots between consecutive grid rows
  int elem_stride = 1; ///< slots between consecutive grid columns

  int out_h() const { return (height - kernel) / stride + 1; }
  int out_w() const { return (width - kernel) / stride + 1; }
  int out_row_stride() const { return row_stride * stride; }
  int out_elem_stride() const { return elem_stride * stride; }
  /// Slots a `channels`-plane block of this grid spans.
  int extent(int channels) const {
    return (channels - 1) * ch_stride + (height - 1) * row_stride +
           (width - 1) * elem_stride + 1;
  }
  /// Throws unless the grid is collision-free (rows fit inside a channel
  /// plane, columns inside a row) and the kernel fits the image.
  void validate() const;
};

/// @brief Extended-diagonal steps s in [-(rows-1), cols-1] with a nonzero
/// diagonal d_s[j] = W[j][j+s] of a row-major rows x cols matrix, ascending.
/// The masks make y[j] = sum_s d_s[j] * rot(x, s)[j] exact without padding.
std::vector<int> diagonal_steps(const std::vector<double>& weights, int rows, int cols);

/// @brief Diagonal-method schedule of `steps` (ascending) from input block
/// 0 to output block 0, each step split as giant_of(s, n1) + baby.
LtSchedule diagonal_schedule(const std::vector<int>& steps, int n1);

/// @brief `fan` (a pure-fan schedule: every giant 0) split at n1: a term's
/// rotation r becomes giant_of(r, n1 * unit) + baby, term order kept. `unit`
/// is the rotation between adjacent split keys: 1 for matmul diagonals,
/// ch_stride for conv channel offsets (a kernel tap's offset stays inside
/// one channel plane, so this is giant_of(c, n1) * ch_stride).
LtSchedule split_schedule(const LtSchedule& fan, int n1, int unit);

/// @brief The n1 in [1, span] with the fewest rotations, ties broken toward
/// fewer giant groups, then the smaller n1 (the encrypted trainer's split).
int fewest_rotations_n1(const std::vector<int>& steps, int span);

/// Slot vector of extended diagonal `s` of a row-major `rows` x `cols`
/// matrix, pre-rotated by -g (the entry for row j lands at slot
/// (j + g) mod tile) and replicated every `tile` slots of `slots`. Shared by
/// the plaintext matmul masks and the client-side packing of an encrypted
/// matrix, which must agree bit for bit.
std::vector<double> extended_diagonal_slots(const std::vector<double>& weights,
                                            int rows, int cols, int s, int g,
                                            std::size_t tile, std::size_t slots);

}  // namespace sp::fhe
