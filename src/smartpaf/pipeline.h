#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "approx/composite.h"
#include "fhe/linear_transform.h"
#include "fhe/poly_eval.h"
#include "smartpaf/replace.h"

namespace sp::smartpaf {

class FheRuntime;  // smartpaf/fhe_deploy.h
struct Plan;       // smartpaf/pipeline_planner.h

/// Scalar affine stage: y[j] = scale * x[j] + bias in every slot. Consumes
/// one level unless the scale is 1 (bias-only: zero levels) or the planner
/// folds it into the next PAF stage's envelope (bias 0).
struct LinearStage {
  double scale = 1.0;
  double bias = 0.0;
};

/// Rotation-fan stage: y[j] = bias + sum_t taps[t] * x[j + t] (cyclic over
/// all slots — a 1-D convolution realized as a fan of slot rotations whose
/// key-switch decomposition the plan may hoist). Consumes one level.
struct WindowStage {
  std::vector<double> taps;
  double bias = 0.0;
};

/// General dense matrix-vector stage (Halevi–Shoup diagonal method): the
/// input vector occupies slots [0, cols) of its layout and the product
/// y = W x (+ bias) lands in slots [0, rows), zero elsewhere. Executed as an
/// fhe::LinearTransform over the matrix's extended diagonals, split into
/// baby and giant steps on the diagonal step; the planner picks the split
/// from the cost table. Consumes one level, no relinearizations. This is
/// what nn::Linear lowers to.
struct MatMulStage {
  int rows = 0;                 ///< output dimension
  int cols = 0;                 ///< input dimension (must match the tracked width)
  std::vector<double> weights;  ///< row-major rows x cols
  std::vector<double> bias;     ///< empty, or one value per output row
};

/// Channel-packed 2-D convolution stage (valid mode, pad = 0). The input is
/// a [in_channels, height, width] image laid out on the grid slot layout the
/// pipeline tracks per stage (see StageLayout): element (c, y, x) lives at
/// slot c * ch_stride + y * row_stride + x * elem_stride, split across
/// ciphertext "column blocks" of chans_per_block channels when the image is
/// wider than the slot extent. Executed as an fhe::LinearTransform — an
/// im2col-style rotation fan (or a BSGS split over the channel offset, the
/// planner's fan-vs-diagonal choice) with one cached weight mask per term,
/// partial-sum joins across input blocks and one rescale per output block —
/// so the stage consumes one level. Outputs land at the anchor positions of
/// the SAME grid (spatial strides scale by `stride`), which is what lets
/// conv -> pool -> conv chains compose with zero repacking. This is what
/// nn::Conv2d (and nn::AvgPool2d, as a depthwise conv) lowers to.
struct ConvStage {
  int in_channels = 0;
  int out_channels = 0;
  int height = 0;  ///< input grid rows
  int width = 0;   ///< input grid columns
  int kernel = 1;  ///< square kernel side
  int stride = 1;  ///< spatial stride (>= 1)
  std::vector<double> weights;  ///< [out_ch][in_ch][k][k], row-major
  std::vector<double> bias;     ///< empty, or one value per output channel

  int out_h() const { return (height - kernel) / stride + 1; }
  int out_w() const { return (width - kernel) / stride + 1; }
};

/// Logical [channels, height, width] image shape declared for a pipeline
/// whose input is a channel-packed grid rather than a dense vector.
struct GridShape {
  int channels = 0;
  int height = 0;
  int width = 0;
};

/// Per-stage slot-layout metadata the pipeline threads through its stage
/// graph: what the data looks like inside the ciphertext(s) entering and
/// leaving each stage.
///
/// Dense: `width` logical elements packed contiguously from slot 0; widths
/// beyond the slot extent split into `blocks` ciphertexts of `block_width`
/// elements each (the last block ragged), joined by partial sums at the next
/// MatMul. Grid: a [channels, height, width_px] image at strides
/// (ch_stride, row_stride, elem_stride), `chans_per_block` channel planes
/// per ciphertext block. Grid strides grow through strided ConvStages while
/// ch_stride stays fixed, so the block structure is invariant across a conv
/// chain.
struct StageLayout {
  enum class Kind { Dense, Grid };
  Kind kind = Kind::Dense;
  std::size_t width = 0;        ///< logical element count (both kinds)
  int blocks = 1;               ///< ciphertexts carrying the data
  std::size_t block_width = 0;  ///< Dense: elements per (full) block
  // Grid only:
  int channels = 0;
  int height = 0;
  int width_px = 0;
  int ch_stride = 0;
  int row_stride = 0;
  int elem_stride = 1;
  int chans_per_block = 0;

  /// @brief Dense layout of `width` elements over `extent`-slot blocks.
  static StageLayout dense(std::size_t width, std::size_t extent);
  /// @brief Grid layout; chans_per_block derives from extent / ch_stride.
  static StageLayout grid(int channels, int height, int width_px, int ch_stride,
                          int row_stride, int elem_stride, std::size_t extent);
  /// @brief Compact human-readable form, e.g. "dense w576" or
  /// "grid 4x12x12 s(144,12,1) x2ct" — what Plan::describe() prints.
  std::string describe() const;
  /// @brief Field-wise equality (run_blocks and plan decoding compare a
  /// plan's layouts against the ones dense()/grid() derive).
  bool operator==(const StageLayout& o) const;
};

/// @brief (block, slot) position of logical element `i` under `layout`
/// (grid layouts index channel-major: i = c * h * w + y * w + x, matching
/// nn::Flatten).
std::pair<int, std::size_t> layout_slot(const StageLayout& layout, std::size_t i);

/// @brief Scatters `values` (logical order, size <= layout.width) into
/// layout.blocks slot vectors of `slots` entries each — what a client packs
/// before encrypting the input blocks of run_blocks().
std::vector<std::vector<double>> pack_layout(const std::vector<double>& values,
                                             const StageLayout& layout,
                                             std::size_t slots);

/// @brief Inverse of pack_layout: gathers the layout's logical elements back
/// out of decoded block slot vectors.
std::vector<double> unpack_layout(const std::vector<std::vector<double>>& blocks,
                                  const StageLayout& layout);

/// Slot-compaction stage after a strided pooling: keeps every `stride`-th
/// slot of the tracked input width W, re-packed densely —
/// y[i] = x[i * stride] for i < W / stride, zero elsewhere — so downstream
/// stages (matmul, further pooling) see a dense layout again. Executed as a
/// hoistable rotation fan of W/stride selection masks; consumes one level
/// (the mask multiplications). This is what a stride > 1 PafMaxPool1d lowers
/// to, right after its stride-1 tournament stage.
struct CompactStage {
  int stride = 2;  ///< subsampling factor (>= 2; must divide the width)
};

/// Non-polynomial stage: a Static-Scaling PAF activation.
///
/// `ReLU`: relu(x) ≈ 0.5 x (1 + paf(x / input_scale)), consuming
/// paf.mult_depth() + 2 levels. `MaxPool`: the cyclic pairwise tournament
/// y[j] = fold of max over x[j .. j+pool_window-1] — a rotation fan of the
/// stage input plus pool_window - 1 PAF-max folds, consuming
/// (pool_window - 1) * (paf.mult_depth() + 2) levels. Every fold after the
/// first lands its tap on the running max's level and scale with one
/// plaintext multiplication from the tap's own spare levels.
struct PafStage {
  SiteKind kind = SiteKind::ReLU;
  approx::CompositePaf paf;
  double input_scale = 1.0;
  int pool_window = 2;  ///< MaxPool only: cyclic window size (>= 2)
};

/// One pipeline stage (tagged union) plus its display label.
struct Stage {
  std::variant<LinearStage, WindowStage, PafStage, MatMulStage, CompactStage,
               ConvStage>
      op;
  std::string label;
};

/// A composable encrypted-inference pipeline: an ordered stage graph
/// ("linear -> PAF-ReLU -> window -> PAF-MaxPool") that exists independently
/// of any ciphertext or key material. Build it with the fluent Builder or
/// lower it from a trained nn::Sequential whose non-polynomial sites were
/// replaced by smartpaf::replace and converted to Static Scaling.
///
/// The pipeline is pure structure: `Planner::plan` validates it against a
/// prime chain and picks per-stage schedules from a CostModel —
/// inspectable via Plan::describe() before any encryption — and `run()`
/// executes a plan on a ciphertext through a shared FheRuntime. A packed
/// batch is one ciphertext like any other: plan it with
/// `PlanOptions::pack_stride` and check it with `reference(flat, stride)`.
class FhePipeline {
 public:
  /// Fluent construction: stages are appended in execution order.
  class Builder {
   public:
    /// @brief Scalar affine stage: y = scale * x + bias in every slot.
    Builder& linear(double scale, double bias = 0.0);
    /// @brief Cyclic rotation-fan window stage.
    Builder& window(std::vector<double> taps, double bias = 0.0);
    /// @brief Dense matrix-vector stage (row-major rows x cols weights).
    Builder& matmul(int rows, int cols, std::vector<double> weights,
                    std::vector<double> bias = {});
    /// @brief Strided-pooling slot compaction (keep every stride-th slot).
    Builder& compact(int stride);
    /// @brief Channel-packed 2-D convolution over an [in_channels, height,
    /// width] grid (valid mode; weights [out_ch][in_ch][k][k] row-major).
    Builder& conv(int in_channels, int out_channels, int height, int width,
                  int kernel, int stride, std::vector<double> weights,
                  std::vector<double> bias = {});
    /// @brief Declares the pipeline input as a channel-packed image grid
    /// (required before any ConvStage; mutually exclusive with input_width).
    Builder& input_grid(GridShape shape);
    /// @brief Declares the logical data width of the pipeline input (how
    /// many leading slots carry values). 0 (default) = the full slot vector;
    /// required for CompactStage counts and MatMul width validation when the
    /// data is narrower than the ciphertext.
    Builder& input_width(std::size_t width);
    /// @brief Static-Scaling PAF-ReLU stage.
    Builder& paf_relu(approx::CompositePaf paf, double input_scale);
    /// @brief Cyclic PAF-MaxPool tournament stage over `pool_window` slots.
    Builder& paf_maxpool(approx::CompositePaf paf, double input_scale, int pool_window);
    /// @brief Validates and returns the pipeline.
    FhePipeline build();

   private:
    std::vector<Stage> stages_;
    std::size_t input_width_ = 0;
    GridShape input_grid_;
  };

  /// @brief Starts a fluent build.
  static Builder builder() { return Builder(); }

  /// @brief Lowers a replaced, Static-Scaling network to a pipeline.
  ///
  /// The model root must be an nn::Sequential (nested Sequentials are
  /// walked in order) of slot-aligned layers:
  ///  - nn::Window1d        -> WindowStage (1 tap -> scalar LinearStage)
  ///  - PafActivation       -> PafStage ReLU  (Static scale folded in)
  ///  - PafMaxPool1d        -> PafStage MaxPool
  ///  - nn::Flatten / disabled nn::Dropout -> skipped (slot identity)
  /// Un-replaced non-polynomial sites (ReLU/MaxPool), Dynamic-scaling PAF
  /// layers and any other layer type are rejected with a diagnostic.
  ///
  /// Boundary contract: the cyclic Window1d/MaxPool1d layers wrap at their
  /// tensor width W, the lowered stages wrap at the ciphertext's
  /// slot_count. Exact parity with the plaintext forward therefore needs
  /// W == slot_count (what tests/test_pipeline.cpp pins); at smaller W the
  /// last window-1 slots of the ciphertext blend across the W boundary,
  /// just like a window over packed requests blends each request's tail
  /// into the next request.
  /// `input_width` declares the logical data width of the encrypted input
  /// (0 = full slot vector); nn::Linear layers lower to MatMulStage and
  /// stride > 1 PafMaxPool1d layers to a PafStage + CompactStage pair, both
  /// of which need the tracked width.
  static FhePipeline lower(const nn::Model& model, std::size_t input_width = 0);
  /// @brief Same, from a bare root layer.
  static FhePipeline lower(const nn::Layer& root, std::size_t input_width = 0);

  /// @brief Lowers a CNN whose input is a [channels, height, width] image:
  /// nn::Conv2d (pad = 0) lowers to ConvStage, nn::AvgPool2d to a depthwise
  /// ConvStage, nn::Flatten to the channel-major logical ordering the next
  /// MatMulStage scatters over — plus every dense-path layer lower() already
  /// supports.
  static FhePipeline lower(const nn::Model& model, const GridShape& input);
  /// @brief Same, from a bare root layer.
  static FhePipeline lower(const nn::Layer& root, const GridShape& input);

  const std::vector<Stage>& stages() const { return stages_; }
  /// @brief Declared logical width of the input data (0 = full slot vector).
  std::size_t input_width() const { return input_width_; }
  /// @brief Declared input image grid (channels == 0 when the input is a
  /// dense vector).
  const GridShape& input_grid() const { return input_grid_; }

  /// @brief Per-stage (layout_in, layout_out) tracking over an `extent`-slot
  /// ciphertext layout (the slot count, or the pack stride for packed
  /// batches): resolves grid strides and ciphertext block counts, and
  /// rejects every stage/layout mismatch with a diagnostic — conv on a
  /// non-grid or wrong-shape layout, matmul width or channel-layout
  /// mismatches, cyclic stages (window/maxpool/compact) on multi-ciphertext
  /// or grid layouts. The Planner calls this before
  /// anything executes (each StagePlan carries its pair, so the last
  /// layout_out.width is the per-request output slice of a packed batch);
  /// tests pin the messages.
  std::vector<std::pair<StageLayout, StageLayout>> stage_layouts(
      std::size_t extent) const;

  /// @brief Levels the pipeline consumes when executed literally (no
  /// folding); the plan may use fewer.
  int mult_depth() const;

  /// @brief Plaintext mirror of the pipeline over a full slot vector
  /// (double precision, cyclic semantics — exactly what run() computes up
  /// to ciphertext noise). `pack_stride` mirrors the plan's packed layout:
  /// MatMul/Compact stages then repeat per `pack_stride`-slot tile, exactly
  /// as run() replicates their diagonals and masks (0 = one layout over the
  /// whole vector).
  std::vector<double> reference(const std::vector<double>& slots,
                                std::size_t pack_stride = 0) const;

  /// @brief Executes a planned pipeline on `in` (top-level ciphertext).
  ///
  /// Rotation keys for every fan are drawn from the runtime's deduplicated
  /// rotation_keys() store (generated on first use, shared across stages and
  /// call sites). Each PAF stage runs on its own PafEvaluator built from
  /// the plan's strategy, so runs never change a schedule on the shared
  /// runtime.
  /// @param rt     shared CKKS machinery
  /// @param plan   a Plan produced by Planner::plan for THIS pipeline
  /// @param in     input ciphertext with at least plan.levels_used levels
  /// @param stats  optional tally accumulated across every PAF stage
  /// @return the pipeline output, exactly plan.levels_used levels below `in`
  fhe::Ciphertext run(FheRuntime& rt, const Plan& plan, const fhe::Ciphertext& in,
                      fhe::EvalStats* stats = nullptr) const;

  /// @brief Multi-ciphertext run(): executes a planned pipeline over the
  /// input's column blocks (plan.stages.front().layout_in.blocks ciphertexts
  /// packed via pack_layout) and returns the output blocks. Window, compact,
  /// matmul and conv stages run their stage_transform() — partial sums join
  /// inside it — and every other stage applies per block. run() is the
  /// single-block convenience wrapper.
  std::vector<fhe::Ciphertext> run_blocks(FheRuntime& rt, const Plan& plan,
                                          const std::vector<fhe::Ciphertext>& in,
                                          fhe::EvalStats* stats = nullptr) const;

 private:
  /// The stage loop of run() and run_blocks() over `count` consecutive
  /// input blocks at `in`: stages read the caller's blocks until one writes
  /// its own, and none writes into them.
  std::vector<fhe::Ciphertext> run_stages(FheRuntime& rt, const Plan& plan,
                                          const fhe::Ciphertext* in, std::size_t count,
                                          fhe::EvalStats* stats) const;

  std::vector<Stage> stages_;
  std::size_t input_width_ = 0;
  GridShape input_grid_;
};

/// @brief Levels `stage` consumes when executed literally (no folding):
/// linear 1 (0 when the scale is 1), window 1, matmul 1, compact 1, conv 1,
/// PAF-ReLU depth + 2, PAF-MaxPool (pool_window - 1) * (depth + 2). The
/// planner takes every unfolded stage's levels from it.
int stage_levels(const Stage& stage);

/// @brief Scatters a MatMulStage's columns into one dense (rows x
/// block-extent) matrix per input block of `in` — column j of the logical
/// matrix lands at layout_slot(in, j), zero columns fill the layout's gap
/// slots — so y = sum_b W_b x_b reproduces W x by partial-sum joins. The
/// bias rides block 0 only; a single-ciphertext dense input is the identity
/// split. Shared by the Planner, run_blocks and reference() (the plaintext
/// mirror), so the three can never disagree on the split.
std::vector<MatMulStage> split_matmul_blocks(const MatMulStage& mm,
                                             const StageLayout& in);

/// @brief The masked rotation-sum a window, compact, matmul or conv stage
/// executes from layout `in` to layout `out`, split at `n1` (0 = pure fan;
/// window and compact are always pure fans), with masks repeating every
/// `tile` of `slots` slots; nullopt for linear and PAF stages. Throws
/// unless `tile` divides `slots` and every matmul block or conv channel
/// block fits one tile. Masks build lazily, so the Planner prices its
/// candidate splits from the pure fan of the same term list run_blocks
/// executes (fhe::split_schedule).
std::optional<fhe::LinearTransform> stage_transform(const Stage& stage,
                                                    const StageLayout& in,
                                                    const StageLayout& out, int n1,
                                                    std::size_t tile, std::size_t slots);

}  // namespace sp::smartpaf
