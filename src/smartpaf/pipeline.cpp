#include "smartpaf/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>

#include "common/check.h"
#include "common/hash.h"
#include "nn/layers.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline_planner.h"

namespace sp::smartpaf {

namespace {

bool any_nonzero(const std::vector<double>& v) {
  return std::any_of(v.begin(), v.end(), [](double x) { return x != 0.0; });
}

std::string paf_label(const char* kind, const PafStage& paf) {
  std::ostringstream os;
  os << kind << "[";
  if (paf.kind == SiteKind::MaxPool) os << "k=" << paf.pool_window << " ";
  if (!paf.paf.name().empty()) os << paf.paf.name() << " ";
  os << "d" << paf.paf.mult_depth() << "]";
  return os.str();
}

}  // namespace

// -------------------------------------------------------------- StageLayout --

StageLayout StageLayout::dense(std::size_t width, std::size_t extent) {
  sp::check(width > 0 && extent > 0, "StageLayout: empty dense layout");
  StageLayout l;
  l.kind = Kind::Dense;
  l.width = width;
  l.block_width = std::min(width, extent);
  l.blocks = static_cast<int>((width + extent - 1) / extent);
  return l;
}

StageLayout StageLayout::grid(int channels, int height, int width_px, int ch_stride,
                              int row_stride, int elem_stride, std::size_t extent) {
  sp::check(channels >= 1 && height >= 1 && width_px >= 1,
            "StageLayout: empty grid layout");
  StageLayout l;
  l.kind = Kind::Grid;
  l.channels = channels;
  l.height = height;
  l.width_px = width_px;
  l.ch_stride = ch_stride;
  l.row_stride = row_stride;
  l.elem_stride = elem_stride;
  l.width = static_cast<std::size_t>(channels) * height * width_px;
  sp::check_fmt(ch_stride >= 1 && static_cast<std::size_t>(ch_stride) <= extent,
                "StageLayout: channel plane of ", ch_stride,
                " slots exceeds the ", extent, "-slot layout");
  l.chans_per_block = static_cast<int>(extent / static_cast<std::size_t>(ch_stride));
  l.blocks = (channels + l.chans_per_block - 1) / l.chans_per_block;
  // Slots one block of this grid actually spans (<= cpb * ch_stride <= extent
  // by the collision-free invariant the conv geometry validates).
  l.block_width = static_cast<std::size_t>(
      (std::min(l.chans_per_block, channels) - 1) * ch_stride +
      (height - 1) * row_stride + (width_px - 1) * elem_stride + 1);
  return l;
}

std::string StageLayout::describe() const {
  std::ostringstream os;
  if (kind == Kind::Dense) {
    os << "dense w" << width;
  } else {
    os << "grid " << channels << "x" << height << "x" << width_px << " s("
       << ch_stride << "," << row_stride << "," << elem_stride << ")";
  }
  if (blocks > 1) os << " x" << blocks << "ct";
  return os.str();
}

bool StageLayout::operator==(const StageLayout& o) const {
  const auto fields = [](const StageLayout& l) {
    return std::tie(l.kind, l.width, l.blocks, l.block_width, l.channels, l.height,
                    l.width_px, l.ch_stride, l.row_stride, l.elem_stride,
                    l.chans_per_block);
  };
  return fields(*this) == fields(o);
}

std::pair<int, std::size_t> layout_slot(const StageLayout& layout, std::size_t i) {
  sp::check(i < layout.width, "layout_slot: element index out of range");
  if (layout.kind == StageLayout::Kind::Dense) {
    // block_width is the FULL-block width; the last (ragged) block just holds
    // fewer elements.
    return {static_cast<int>(i / layout.block_width), i % layout.block_width};
  }
  const std::size_t plane = static_cast<std::size_t>(layout.height) * layout.width_px;
  const int c = static_cast<int>(i / plane);
  const std::size_t rem = i % plane;
  const int y = static_cast<int>(rem / static_cast<std::size_t>(layout.width_px));
  const int x = static_cast<int>(rem % static_cast<std::size_t>(layout.width_px));
  const int b = c / layout.chans_per_block;
  const std::size_t slot = static_cast<std::size_t>(
      (c - b * layout.chans_per_block) * layout.ch_stride + y * layout.row_stride +
      x * layout.elem_stride);
  return {b, slot};
}

std::vector<std::vector<double>> pack_layout(const std::vector<double>& values,
                                             const StageLayout& layout,
                                             std::size_t slots) {
  sp::check_fmt(values.size() <= layout.width, "pack_layout: ", values.size(),
                " values exceed the layout's ", layout.width, " elements");
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(layout.blocks), std::vector<double>(slots, 0.0));
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto [b, s] = layout_slot(layout, i);
    sp::check(s < slots, "pack_layout: layout wider than the slot vector");
    out[static_cast<std::size_t>(b)][s] = values[i];
  }
  return out;
}

std::vector<double> unpack_layout(const std::vector<std::vector<double>>& blocks,
                                  const StageLayout& layout) {
  sp::check(blocks.size() == static_cast<std::size_t>(layout.blocks),
            "unpack_layout: wrong block count");
  std::vector<double> out(layout.width, 0.0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto [b, s] = layout_slot(layout, i);
    const auto& block = blocks[static_cast<std::size_t>(b)];
    sp::check(s < block.size(), "unpack_layout: layout wider than the slot vector");
    out[i] = block[s];
  }
  return out;
}

std::vector<MatMulStage> split_matmul_blocks(const MatMulStage& mm,
                                             const StageLayout& in) {
  if (in.kind == StageLayout::Kind::Dense && in.blocks == 1) return {mm};
  sp::check(static_cast<std::size_t>(mm.cols) == in.width,
            "split_matmul_blocks: matmul cols must match the layout width");
  std::vector<MatMulStage> out(static_cast<std::size_t>(in.blocks));
  // Per-block input extent: the highest occupied slot + 1 of that block.
  std::vector<std::size_t> extent(out.size(), 0);
  for (std::size_t j = 0; j < in.width; ++j) {
    const auto [b, s] = layout_slot(in, j);
    extent[static_cast<std::size_t>(b)] =
        std::max(extent[static_cast<std::size_t>(b)], s + 1);
  }
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b].rows = mm.rows;
    out[b].cols = static_cast<int>(std::max<std::size_t>(extent[b], 1));
    out[b].weights.assign(
        static_cast<std::size_t>(out[b].rows) * out[b].cols, 0.0);
  }
  for (std::size_t j = 0; j < static_cast<std::size_t>(mm.cols); ++j) {
    const auto [b, s] = layout_slot(in, j);
    MatMulStage& mb = out[static_cast<std::size_t>(b)];
    for (int r = 0; r < mm.rows; ++r)
      mb.weights[static_cast<std::size_t>(r) * mb.cols + s] =
          mm.weights[static_cast<std::size_t>(r) * mm.cols + j];
  }
  out[0].bias = mm.bias;  // partial sums join once; the bias rides block 0
  return out;
}

// ---------------------------------------------------- Rotation-sum generators --

namespace {

std::uint64_t fnv_ints(std::uint64_t h, std::initializer_list<std::int64_t> vs) {
  for (std::int64_t v : vs) h = sp::fnv_mix(h, static_cast<std::uint64_t>(v));
  return h;
}

/// Writes `value` at slot `at` (mod tile) of every tile of `v`.
void put_tiled(std::vector<double>& v, std::size_t tile, std::int64_t at, double value) {
  const auto t = static_cast<std::int64_t>(tile);
  for (std::size_t base = 0; base < v.size(); base += tile)
    v[base + static_cast<std::size_t>((at % t + t) % t)] = value;
}

/// The validated grid geometry of `cv` over its input layout.
fhe::ConvGeom conv_geom(const ConvStage& cv, const StageLayout& in) {
  fhe::ConvGeom g;
  g.in_channels = cv.in_channels;
  g.out_channels = cv.out_channels;
  g.height = cv.height;
  g.width = cv.width;
  g.kernel = cv.kernel;
  g.stride = cv.stride;
  g.ch_stride = in.ch_stride;
  g.row_stride = in.row_stride;
  g.elem_stride = in.elem_stride;
  g.validate();
  return g;
}

/// Compact: output slot i reads rot(x, i * (stride - 1)) under a one-hot
/// mask at slot i of every tile.
void compact_terms(fhe::LinearTransform& lt, const CompactStage& cp, std::size_t width,
                   std::size_t tile, std::size_t slots) {
  lt.key = fnv_ints(0x636f6d7061637421ULL,  // "compact!"
                    {cp.stride, static_cast<std::int64_t>(tile)});
  for (std::size_t i = 0; i < width / static_cast<std::size_t>(cp.stride); ++i)
    lt.add(0, 0, 0, static_cast<int>(i) * (cp.stride - 1), fhe::SlotMask([=] {
             std::vector<double> m(slots, 0.0);
             put_tiled(m, tile, static_cast<std::int64_t>(i), 1.0);
             return m;
           }));
}

/// Matmul: one extended diagonal per nonzero step of every input block's
/// column slice, split on the step; every block feeds output block 0.
void matmul_terms(fhe::LinearTransform& lt, const MatMulStage& mm,
                  const StageLayout& in, int n1, std::size_t tile, std::size_t slots) {
  lt.key = sp::fnv_doubles(fnv_ints(0x6d61746d756c21ULL,  // "matmul!"
                                     {n1, static_cast<std::int64_t>(tile)}),
                           mm.bias);
  std::vector<MatMulStage> split = split_matmul_blocks(mm, in);
  for (std::size_t b = 0; b < split.size(); ++b) {
    sp::check_fmt(static_cast<std::size_t>(split[b].rows) <= tile &&
                      static_cast<std::size_t>(split[b].cols) <= tile,
                  "stage_transform: ", split[b].rows, "x", split[b].cols,
                  " matmul block exceeds the ", tile, "-slot tile");
    const auto blk = std::make_shared<const MatMulStage>(std::move(split[b]));
    lt.key = sp::fnv_doubles(fnv_ints(lt.key, {blk->rows, blk->cols}), blk->weights);
    for (int s : fhe::diagonal_steps(blk->weights, blk->rows, blk->cols)) {
      const int g = fhe::giant_of(s, n1);
      lt.add(static_cast<int>(b), 0, g, s - g, fhe::SlotMask([=] {
               return fhe::extended_diagonal_slots(blk->weights, blk->rows, blk->cols,
                                                   s, g, tile, slots);
             }));
    }
  }
  if (any_nonzero(mm.bias)) {
    const auto bias = std::make_shared<const std::vector<double>>(mm.bias);
    lt.bias = {fhe::SlotMask([=] {
      std::vector<double> v(slots, 0.0);
      for (std::size_t j = 0; j < bias->size(); ++j)
        put_tiled(v, tile, static_cast<std::int64_t>(j), (*bias)[j]);
      return v;
    })};
  }
}

/// Conv: per (output block, input block) pair, one term per channel offset
/// c and kernel tap with a nonzero weight, split on c (giant =
/// giant_of(c, n1) * ch_stride). Its mask carries w[oc][oc + c][dy][dx] at
/// every output anchor of channel oc, pre-rotated by the giant.
void conv_terms(fhe::LinearTransform& lt, const ConvStage& cv, const StageLayout& in,
                int n1, std::size_t tile, std::size_t slots) {
  const fhe::ConvGeom g = conv_geom(cv, in);
  const int cpb = in.chans_per_block;
  sp::check(cpb >= 1, "stage_transform: conv layout needs >= 1 channel per block");
  const int widest = std::min(cpb, std::max(g.in_channels, g.out_channels));
  sp::check_fmt(static_cast<std::size_t>(g.extent(widest)) <= tile, "stage_transform: ",
                widest, "-channel block spans ", g.extent(widest),
                " slots but the tile has ", tile);
  // Every output anchor of local channel ol at `offset` (mod tile) gets `w`.
  const auto put_anchors = [g](std::vector<double>& v, std::size_t tile_, int ol,
                               int offset, double w) {
    for (int oy = 0; oy < g.out_h(); ++oy)
      for (int ox = 0; ox < g.out_w(); ++ox)
        put_tiled(v, tile_,
                  ol * g.ch_stride + oy * g.out_row_stride() + ox * g.out_elem_stride() +
                      offset,
                  w);
  };
  const auto w = std::make_shared<const std::vector<double>>(cv.weights);
  const auto weight = [w, g](int oc, int ic, int dy, int dx) {
    return (*w)[((static_cast<std::size_t>(oc) * g.in_channels + ic) * g.kernel + dy) *
                    g.kernel + dx];
  };
  lt.key = sp::fnv_doubles(
      sp::fnv_doubles(fnv_ints(0x636f6e7621ULL,  // "conv!"
                               {g.in_channels, g.out_channels, g.height, g.width,
                                g.kernel, g.stride, g.ch_stride, g.row_stride,
                                g.elem_stride, cpb, n1, static_cast<std::int64_t>(tile)}),
                      cv.weights),
      cv.bias);

  for (int bo = 0; bo < lt.schedule.blocks_out; ++bo)
    for (int bi = 0; bi < lt.schedule.blocks_in; ++bi) {
      const int oc0 = bo * cpb, ic0 = bi * cpb;
      const int nout = std::min(cv.out_channels, oc0 + cpb) - oc0;
      const int nin = std::min(cv.in_channels, ic0 + cpb) - ic0;
      // Ascending c keeps each giant group contiguous (giant_of is monotone).
      for (int c = -(nout - 1); c < nin; ++c) {
        const int giant = fhe::giant_of(c, n1) * g.ch_stride;
        const int ol_lo = std::max(0, -c), ol_hi = std::min(nout, nin - c);
        for (int dy = 0; dy < g.kernel; ++dy)
          for (int dx = 0; dx < g.kernel; ++dx) {
            bool nonzero = false;
            for (int ol = ol_lo; ol < ol_hi && !nonzero; ++ol)
              nonzero = weight(oc0 + ol, ic0 + ol + c, dy, dx) != 0.0;
            if (!nonzero) continue;
            const int baby =
                c * g.ch_stride + dy * g.row_stride + dx * g.elem_stride - giant;
            lt.add(bi, bo, giant, baby, fhe::SlotMask([=] {
                     std::vector<double> m(slots, 0.0);
                     for (int ol = ol_lo; ol < ol_hi; ++ol)
                       put_anchors(m, tile, ol, giant,
                                   weight(oc0 + ol, ic0 + ol + c, dy, dx));
                     return m;
                   }));
          }
      }
    }

  if (any_nonzero(cv.bias)) {
    const auto bias = std::make_shared<const std::vector<double>>(cv.bias);
    for (int bo = 0; bo < lt.schedule.blocks_out; ++bo) {
      const int nout = std::min(cv.out_channels, (bo + 1) * cpb) - bo * cpb;
      lt.bias.push_back(fhe::SlotMask([=] {
        std::vector<double> v(slots, 0.0);
        for (int ol = 0; ol < nout; ++ol)
          put_anchors(v, tile, ol, 0, (*bias)[static_cast<std::size_t>(bo * cpb + ol)]);
        return v;
      }));
    }
  }
}

}  // namespace

std::optional<fhe::LinearTransform> stage_transform(const Stage& stage,
                                                    const StageLayout& in,
                                                    const StageLayout& out, int n1,
                                                    std::size_t tile, std::size_t slots) {
  if (std::holds_alternative<LinearStage>(stage.op) ||
      std::holds_alternative<PafStage>(stage.op))
    return std::nullopt;
  // Masks write slot (at mod tile) of every tile of a `slots`-long vector.
  sp::check_fmt(tile >= 1 && tile <= slots && slots % tile == 0, "stage_transform: tile ",
                tile, " must divide the ", slots, " slots");
  fhe::LinearTransform lt(in.blocks, out.blocks, n1);
  if (const auto* win = std::get_if<WindowStage>(&stage.op)) {
    // Tap t reads rot(x, t) under the scalar mask taps[t].
    for (std::size_t t = 0; t < win->taps.size(); ++t)
      lt.add(0, 0, 0, static_cast<int>(t), win->taps[t]);
    if (win->bias != 0.0) lt.bias = {win->bias};
  } else if (const auto* cp = std::get_if<CompactStage>(&stage.op)) {
    compact_terms(lt, *cp, in.width, tile, slots);
  } else if (const auto* mm = std::get_if<MatMulStage>(&stage.op)) {
    matmul_terms(lt, *mm, in, n1, tile, slots);
  } else {
    conv_terms(lt, std::get<ConvStage>(stage.op), in, n1, tile, slots);
  }
  return lt;
}

// ------------------------------------------------------------------ Builder --

FhePipeline::Builder& FhePipeline::Builder::linear(double scale, double bias) {
  std::ostringstream os;
  os << "linear(x" << scale << (bias == 0.0 ? "" : " +b") << ")";
  stages_.push_back(Stage{LinearStage{scale, bias}, os.str()});
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::window(std::vector<double> taps,
                                                   double bias) {
  sp::check(!taps.empty(), "FhePipeline: window stage needs taps");
  std::ostringstream os;
  os << "window[" << taps.size() << " taps]";
  stages_.push_back(Stage{WindowStage{std::move(taps), bias}, os.str()});
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::matmul(int rows, int cols,
                                                   std::vector<double> weights,
                                                   std::vector<double> bias) {
  sp::check(rows >= 1 && cols >= 1, "FhePipeline: matmul needs positive dimensions");
  sp::check(weights.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            "FhePipeline: matmul weights must be row-major rows x cols");
  sp::check(bias.empty() || bias.size() == static_cast<std::size_t>(rows),
            "FhePipeline: matmul bias must be empty or one value per row");
  std::ostringstream os;
  os << "matmul[" << rows << "x" << cols << (bias.empty() ? "]" : " +b]");
  stages_.push_back(
      Stage{MatMulStage{rows, cols, std::move(weights), std::move(bias)}, os.str()});
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::compact(int stride) {
  sp::check(stride >= 2, "FhePipeline: compact stride must be >= 2");
  std::ostringstream os;
  os << "compact[/" << stride << "]";
  stages_.push_back(Stage{CompactStage{stride}, os.str()});
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::conv(int in_channels, int out_channels,
                                                 int height, int width, int kernel,
                                                 int stride,
                                                 std::vector<double> weights,
                                                 std::vector<double> bias) {
  sp::check(in_channels >= 1 && out_channels >= 1 && height >= 1 && width >= 1,
            "FhePipeline: conv needs positive dimensions");
  sp::check(kernel >= 1 && kernel <= height && kernel <= width,
            "FhePipeline: conv kernel must fit the image");
  sp::check(stride >= 1, "FhePipeline: conv stride must be >= 1");
  sp::check(weights.size() == static_cast<std::size_t>(out_channels) * in_channels *
                                  kernel * kernel,
            "FhePipeline: conv weights must be [out][in][k][k]");
  sp::check(bias.empty() || bias.size() == static_cast<std::size_t>(out_channels),
            "FhePipeline: conv bias must be empty or one value per output channel");
  std::ostringstream os;
  os << "conv[" << in_channels << "->" << out_channels << " k" << kernel;
  if (stride > 1) os << "/s" << stride;
  os << " " << height << "x" << width << (bias.empty() ? "]" : " +b]");
  stages_.push_back(Stage{ConvStage{in_channels, out_channels, height, width,
                                    kernel, stride, std::move(weights),
                                    std::move(bias)},
                          os.str()});
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::input_grid(GridShape shape) {
  sp::check(shape.channels >= 1 && shape.height >= 1 && shape.width >= 1,
            "FhePipeline: input grid needs positive dimensions");
  input_grid_ = shape;
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::input_width(std::size_t width) {
  input_width_ = width;
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::paf_relu(approx::CompositePaf paf,
                                                     double input_scale) {
  sp::check(!paf.stages().empty(), "FhePipeline: PAF-ReLU stage needs a PAF");
  sp::check(input_scale > 0, "FhePipeline: input_scale must be positive");
  PafStage st;
  st.kind = SiteKind::ReLU;
  st.paf = std::move(paf);
  st.input_scale = input_scale;
  std::string label = paf_label("paf-relu", st);
  stages_.push_back(Stage{std::move(st), std::move(label)});
  return *this;
}

FhePipeline::Builder& FhePipeline::Builder::paf_maxpool(approx::CompositePaf paf,
                                                        double input_scale,
                                                        int pool_window) {
  sp::check(!paf.stages().empty(), "FhePipeline: PAF-MaxPool stage needs a PAF");
  sp::check(input_scale > 0, "FhePipeline: input_scale must be positive");
  sp::check(pool_window >= 2, "FhePipeline: pool_window must be >= 2");
  PafStage st;
  st.kind = SiteKind::MaxPool;
  st.paf = std::move(paf);
  st.input_scale = input_scale;
  st.pool_window = pool_window;
  std::string label = paf_label("paf-max", st);
  stages_.push_back(Stage{std::move(st), std::move(label)});
  return *this;
}

FhePipeline FhePipeline::Builder::build() {
  sp::check(!stages_.empty(), "FhePipeline: empty pipeline");
  sp::check(input_grid_.channels == 0 || input_width_ == 0,
            "FhePipeline: input_grid and input_width are mutually exclusive");
  FhePipeline pipe;
  pipe.stages_ = std::move(stages_);
  pipe.input_width_ = input_width_;
  pipe.input_grid_ = input_grid_;
  return pipe;
}

// ----------------------------------------------------------------- Lowering --

namespace {

/// Mutable [C, H, W] image shape threaded through the grid lowering;
/// channels == 0 once a Flatten (or a dense-input lower()) leaves the
/// pipeline in vector-land.
void lower_layer(const nn::Layer& layer, FhePipeline::Builder& b, GridShape* grid) {
  if (const auto* seq = dynamic_cast<const nn::Sequential*>(&layer)) {
    for (std::size_t i = 0; i < seq->size(); ++i) lower_layer(seq->at(i), b, grid);
    return;
  }
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
    sp::check(grid != nullptr && grid->channels > 0,
              "FhePipeline::lower: Conv2d '" + layer.name() +
                  "' needs a channel grid; lower(model, GridShape) declares "
                  "the input image");
    sp::check_fmt(conv->pad() == 0, "FhePipeline::lower: Conv2d '", layer.name(),
                  "' uses pad ", conv->pad(),
                  "; only valid (pad = 0) convolutions lower");
    sp::check_fmt(conv->in_channels() == grid->channels,
                  "FhePipeline::lower: Conv2d '", layer.name(), "' expects ",
                  conv->in_channels(), " input channels but the grid carries ",
                  grid->channels);
    b.conv(grid->channels, conv->out_channels(), grid->height, grid->width,
           conv->kernel(), conv->stride(), conv->weight_values(),
           conv->bias_values());
    grid->channels = conv->out_channels();
    grid->height = (grid->height - conv->kernel()) / conv->stride() + 1;
    grid->width = (grid->width - conv->kernel()) / conv->stride() + 1;
    return;
  }
  if (const auto* pool = dynamic_cast<const nn::AvgPool2d*>(&layer)) {
    sp::check(grid != nullptr && grid->channels > 0,
              "FhePipeline::lower: AvgPool2d '" + layer.name() +
                  "' needs a channel grid; lower(model, GridShape) declares "
                  "the input image");
    // Average pooling is linear: a depthwise conv whose every kernel tap is
    // 1/k^2, at stride k — one ConvStage, one level, no repacking.
    const int c = grid->channels, k = pool->kernel();
    std::vector<double> w(static_cast<std::size_t>(c) * c * k * k, 0.0);
    for (int ch = 0; ch < c; ++ch)
      for (int t = 0; t < k * k; ++t)
        w[(static_cast<std::size_t>(ch) * c + ch) * k * k + t] =
            1.0 / static_cast<double>(k * k);
    b.conv(c, c, grid->height, grid->width, k, pool->stride(), std::move(w));
    grid->height = (grid->height - k) / pool->stride() + 1;
    grid->width = (grid->width - k) / pool->stride() + 1;
    return;
  }
  if (const auto* win = dynamic_cast<const nn::Window1d*>(&layer)) {
    const std::vector<double> taps = win->tap_values();
    const double bias = win->bias_value();
    if (taps.size() == 1) {
      // A 1-tap window is a scalar affine stage — the foldable case.
      b.linear(taps[0], bias);
    } else {
      b.window(taps, bias);
    }
    return;
  }
  if (const auto* lin = dynamic_cast<const nn::Linear*>(&layer)) {
    b.matmul(lin->out_features(), lin->in_features(), lin->weight_values(),
             lin->bias_values());
    return;
  }
  if (const auto* paf = dynamic_cast<const PafLayerBase*>(&layer)) {
    sp::check_fmt(paf->mode() == ScaleMode::Static, "FhePipeline::lower: PAF layer '",
                  layer.name(),
                  "' uses Dynamic scaling; run convert_to_static_scaling first");
    if (const auto* act = dynamic_cast<const PafActivation*>(&layer)) {
      b.paf_relu(act->paf(), static_cast<double>(act->static_scale()));
      return;
    }
    if (const auto* pool = dynamic_cast<const PafMaxPool1d*>(&layer)) {
      // The stride-1 tournament is SIMD-free at every slot; a stride > 1
      // pool keeps the same tournament stage and re-packs the sampled slots
      // densely afterwards.
      b.paf_maxpool(pool->paf(), static_cast<double>(pool->static_scale()),
                    pool->window());
      if (pool->stride() > 1) b.compact(pool->stride());
      return;
    }
    throw sp::Error("FhePipeline::lower: PAF layer '" + layer.name() +
                    "' is not slot-aligned (2-D PafMaxPool; use MaxPool1d sites)");
  }
  if (dynamic_cast<const nn::Flatten*>(&layer) != nullptr) {
    // Channel-major flatten is the logical ordering the next MatMulStage
    // scatters over — a slot identity; the grid just becomes a vector.
    if (grid != nullptr) grid->channels = 0;
    return;
  }
  if (dynamic_cast<const nn::Dropout*>(&layer) != nullptr) {
    // Slot identity at inference time.
    return;
  }
  if (layer.is_nonpoly())
    throw sp::Error("FhePipeline::lower: non-polynomial site '" + layer.name() +
                    "' was not replaced; run smartpaf::replace_all first");
  throw sp::Error("FhePipeline::lower: unsupported layer '" + layer.name() +
                  "' (supported: Sequential, Conv2d, AvgPool2d, Window1d, "
                  "Linear, PafActivation, PafMaxPool1d, Flatten, Dropout)");
}

}  // namespace

FhePipeline FhePipeline::lower(const nn::Layer& root, std::size_t input_width) {
  Builder b = builder();
  b.input_width(input_width);
  lower_layer(root, b, nullptr);
  return b.build();
}

FhePipeline FhePipeline::lower(const nn::Model& model, std::size_t input_width) {
  return lower(model.root(), input_width);
}

FhePipeline FhePipeline::lower(const nn::Layer& root, const GridShape& input) {
  Builder b = builder();
  b.input_grid(input);
  GridShape grid = input;
  lower_layer(root, b, &grid);
  return b.build();
}

FhePipeline FhePipeline::lower(const nn::Model& model, const GridShape& input) {
  return lower(model.root(), input);
}

// ------------------------------------------------------------------ Queries --

int stage_levels(const Stage& stage) {
  if (const auto* lin = std::get_if<LinearStage>(&stage.op)) return lin->scale == 1.0 ? 0 : 1;
  const auto* paf = std::get_if<PafStage>(&stage.op);
  if (paf == nullptr) return 1;  // a rotation-sum stage: one rescale
  const int per_act = paf->paf.mult_depth() + 2;
  return paf->kind == SiteKind::MaxPool ? (paf->pool_window - 1) * per_act : per_act;
}

int FhePipeline::mult_depth() const {
  int total = 0;
  for (const Stage& s : stages_) total += stage_levels(s);
  return total;
}

std::vector<std::pair<StageLayout, StageLayout>> FhePipeline::stage_layouts(
    std::size_t extent) const {
  sp::check(extent > 0, "FhePipeline::stage_layouts: empty slot layout");
  StageLayout cur;
  // Dense layouts with an undeclared width resolve to the full extent; the
  // first MatMul then narrows to its own input dimension (trusting the
  // caller), mirroring the historical width tracking.
  bool width_known = true;
  if (input_grid_.channels > 0) {
    // Tight initial packing: elements adjacent, rows adjacent, channel
    // planes adjacent. ch_stride stays fixed through every conv, so the
    // channel-block structure is invariant across the whole grid portion.
    cur = StageLayout::grid(input_grid_.channels, input_grid_.height,
                            input_grid_.width,
                            input_grid_.height * input_grid_.width,
                            input_grid_.width, 1, extent);
  } else {
    cur = StageLayout::dense(input_width_ != 0 ? input_width_ : extent, extent);
    width_known = input_width_ != 0;
  }

  const auto require_single_dense = [&](const Stage& st, const char* why) {
    sp::check_fmt(cur.kind == StageLayout::Kind::Dense && cur.blocks == 1,
                  "Planner: '", st.label, "' ", why,
                  " and requires a single-ciphertext dense layout, got ",
                  cur.describe());
  };

  std::vector<std::pair<StageLayout, StageLayout>> out;
  out.reserve(stages_.size());
  for (const Stage& st : stages_) {
    const StageLayout in = cur;
    if (std::holds_alternative<LinearStage>(st.op)) {
      // Scalar and slot-wise: applies to every block of any layout.
    } else if (std::get_if<WindowStage>(&st.op) != nullptr) {
      require_single_dense(st, "is cyclic over one ciphertext");
    } else if (const auto* paf = std::get_if<PafStage>(&st.op)) {
      // PAF-ReLU is slot-wise and applies to every block of any layout; the
      // MaxPool tournament's cyclic rotation fan needs one dense ciphertext.
      if (paf->kind == SiteKind::MaxPool)
        require_single_dense(st, "is cyclic over one ciphertext");
    } else if (const auto* cp = std::get_if<CompactStage>(&st.op)) {
      require_single_dense(st, "re-packs slots cyclically");
      sp::check_fmt(static_cast<std::size_t>(cp->stride) <= cur.width &&
                        cur.width % static_cast<std::size_t>(cp->stride) == 0,
                    "Planner: '", st.label, "' stride ", cp->stride,
                    " must divide the tracked width ", cur.width);
      cur = StageLayout::dense(cur.width / static_cast<std::size_t>(cp->stride),
                               extent);
      width_known = true;
    } else if (const auto* mm = std::get_if<MatMulStage>(&st.op)) {
      if (cur.kind == StageLayout::Kind::Grid) {
        sp::check_fmt(
            static_cast<std::size_t>(mm->cols) == cur.width, "Planner: '",
            st.label, "' expects input width ", mm->cols,
            " but the channel-packed layout carries ", cur.width, " elements (",
            cur.channels, "x", cur.height, "x", cur.width_px, " grid)");
      } else if (width_known) {
        sp::check_fmt(static_cast<std::size_t>(mm->cols) == cur.width,
                      "Planner: '", st.label, "' expects input width ", mm->cols,
                      " but the tracked layout width is ", cur.width);
      } else {
        sp::check_fmt(static_cast<std::size_t>(mm->cols) <= extent, "Planner: ",
                      mm->rows, "x", mm->cols, " matmul exceeds the ", extent,
                      "-slot layout");
      }
      // The product always lands densely in slots [0, rows) of one block —
      // partial sums over the input blocks join by ciphertext addition.
      sp::check_fmt(static_cast<std::size_t>(mm->rows) <= extent, "Planner: ",
                    mm->rows, "x", mm->cols, " matmul exceeds the ", extent,
                    "-slot layout");
      cur = StageLayout::dense(static_cast<std::size_t>(mm->rows), extent);
      width_known = true;
    } else {
      const auto& cv = std::get<ConvStage>(st.op);
      sp::check_fmt(cur.kind == StageLayout::Kind::Grid &&
                        cur.channels == cv.in_channels && cur.height == cv.height &&
                        cur.width_px == cv.width,
                    "Planner: '", st.label, "' expects input grid ",
                    cv.in_channels, "x", cv.height, "x", cv.width,
                    " but the tracked layout is ", cur.describe());
      // Geometry sanity (collision-free strides, kernel fits), the same
      // checks the conv generator performs at execution time.
      (void)conv_geom(cv, cur);
      cur = StageLayout::grid(cv.out_channels, cv.out_h(), cv.out_w(),
                              cur.ch_stride, cur.row_stride * cv.stride,
                              cur.elem_stride * cv.stride, extent);
    }
    out.emplace_back(in, cur);
  }
  return out;
}

std::vector<double> FhePipeline::reference(const std::vector<double>& slots,
                                           std::size_t pack_stride) const {
  std::vector<double> v = slots;
  const std::size_t w = v.size();
  sp::check(w > 0, "FhePipeline::reference: empty slot vector");
  const std::size_t tile = pack_stride != 0 ? pack_stride : w;
  sp::check(tile <= w && w % tile == 0,
            "FhePipeline::reference: pack stride must divide the slot vector");
  // Layout tracking (grid strides, logical widths) shared with the Planner;
  // the mirror covers single-ciphertext layouts — multi-block pipelines are
  // checked against the nn forward instead (tests/test_conv.cpp).
  const auto layouts = stage_layouts(tile);
  for (const auto& [lin_, lout] : layouts)
    sp::check(lin_.blocks == 1 && lout.blocks == 1,
              "FhePipeline::reference: multi-ciphertext layouts have no "
              "single-vector mirror; compare run_blocks against the nn forward");
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const Stage& st = stages_[si];
    const StageLayout& layout_in = layouts[si].first;
    if (const auto* mm = std::get_if<MatMulStage>(&st.op)) {
      // Per-tile product, mirroring run()'s replicated diagonals. A grid
      // input routes through the same column scatter the executor uses.
      const MatMulStage eff = std::move(split_matmul_blocks(*mm, layout_in)[0]);
      sp::check(static_cast<std::size_t>(eff.cols) <= tile,
                "FhePipeline::reference: matmul wider than the slot layout");
      std::vector<double> y(w, 0.0);
      for (std::size_t base = 0; base < w; base += tile)
        for (int i = 0; i < eff.rows; ++i) {
          double acc = eff.bias.empty() ? 0.0 : eff.bias[static_cast<std::size_t>(i)];
          for (int c = 0; c < eff.cols; ++c)
            acc += eff.weights[static_cast<std::size_t>(i) * eff.cols + c] *
                   v[base + static_cast<std::size_t>(c)];
          y[base + static_cast<std::size_t>(i)] = acc;
        }
      v = std::move(y);
      continue;
    }
    if (const auto* cv = std::get_if<ConvStage>(&st.op)) {
      // Anchor-position conv on the tracked grid: output (oc, oy, ox) lands
      // at oc * ch + oy * (row * s) + ox * (elem * s); every other slot of
      // the fresh vector is exactly zero, like the masked FHE sum.
      const int ch = layout_in.ch_stride, rs = layout_in.row_stride,
                es = layout_in.elem_stride;
      const int oh = cv->out_h(), ow = cv->out_w();
      std::vector<double> y(w, 0.0);
      for (std::size_t base = 0; base < w; base += tile)
        for (int oc = 0; oc < cv->out_channels; ++oc)
          for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox) {
              double acc = cv->bias.empty()
                               ? 0.0
                               : cv->bias[static_cast<std::size_t>(oc)];
              for (int ic = 0; ic < cv->in_channels; ++ic)
                for (int dy = 0; dy < cv->kernel; ++dy)
                  for (int dx = 0; dx < cv->kernel; ++dx)
                    acc += cv->weights[((static_cast<std::size_t>(oc) *
                                             cv->in_channels +
                                         ic) *
                                            cv->kernel +
                                        dy) *
                                           cv->kernel +
                                       dx] *
                           v[base +
                             static_cast<std::size_t>(
                                 ic * ch + (oy * cv->stride + dy) * rs +
                                 (ox * cv->stride + dx) * es)];
              y[base + static_cast<std::size_t>(oc * ch + oy * rs * cv->stride +
                                                ox * es * cv->stride)] = acc;
            }
      v = std::move(y);
      continue;
    }
    if (const auto* cp = std::get_if<CompactStage>(&st.op)) {
      const auto stride = static_cast<std::size_t>(cp->stride);
      const std::size_t width = layout_in.width;
      sp::check(stride <= width && width % stride == 0,
                "FhePipeline::reference: compact stride must divide the width");
      const std::size_t count = width / stride;
      std::vector<double> y(w, 0.0);
      for (std::size_t base = 0; base < w; base += tile)
        for (std::size_t i = 0; i < count; ++i) y[base + i] = v[base + i * stride];
      v = std::move(y);
      continue;
    }
    if (const auto* lin = std::get_if<LinearStage>(&st.op)) {
      for (double& x : v) x = lin->scale * x + lin->bias;
    } else if (const auto* win = std::get_if<WindowStage>(&st.op)) {
      std::vector<double> y(w);
      for (std::size_t j = 0; j < w; ++j) {
        double acc = win->bias;
        for (std::size_t t = 0; t < win->taps.size(); ++t)
          acc += win->taps[t] * v[(j + t) % w];
        y[j] = acc;
      }
      v = std::move(y);
    } else {
      const auto& paf = std::get<PafStage>(st.op);
      const double s = paf.input_scale;
      if (paf.kind == SiteKind::ReLU) {
        for (double& x : v) x = approx::paf_relu(paf.paf, x / s) * s;
      } else {
        std::vector<double> y(w);
        for (std::size_t j = 0; j < w; ++j) {
          double m = v[j];
          for (int t = 1; t < paf.pool_window; ++t) {
            const double b = v[(j + static_cast<std::size_t>(t)) % w];
            const double d = m - b;
            m = 0.5 * ((m + b) + d * paf.paf(d / s));
          }
          y[j] = m;
        }
        v = std::move(y);
      }
    }
  }
  return v;
}

// ---------------------------------------------------------------- Execution --

namespace {

/// The blocks between two stages: the caller's, read in place, until a
/// stage writes its own.
class StageBlocks {
 public:
  StageBlocks(const fhe::Ciphertext* in, std::size_t count) : view_(in), count_(count) {}

  const fhe::Ciphertext* data() const { return view_; }
  std::size_t size() const { return count_; }
  const fhe::Ciphertext& operator[](std::size_t i) const { return view_[i]; }

  /// For a stage that writes in place: a copy of the caller's blocks, taken
  /// once; afterwards the blocks themselves.
  std::vector<fhe::Ciphertext>& own() {
    if (owned_.empty()) replace({view_, view_ + count_});
    return owned_;
  }
  /// A stage's fresh outputs become the blocks.
  void replace(std::vector<fhe::Ciphertext> next) {
    owned_ = std::move(next);
    view_ = owned_.data();
    count_ = owned_.size();
  }

 private:
  const fhe::Ciphertext* view_;
  std::size_t count_;
  std::vector<fhe::Ciphertext> owned_;
};

}  // namespace

fhe::Ciphertext FhePipeline::run(FheRuntime& rt, const Plan& plan,
                                 const fhe::Ciphertext& in,
                                 fhe::EvalStats* stats) const {
  std::vector<fhe::Ciphertext> out = run_stages(rt, plan, &in, 1, stats);
  sp::check_fmt(out.size() == 1, "FhePipeline::run: the pipeline output spans ",
                out.size(), " ciphertext blocks; use run_blocks");
  return std::move(out[0]);
}

std::vector<fhe::Ciphertext> FhePipeline::run_blocks(
    FheRuntime& rt, const Plan& plan, const std::vector<fhe::Ciphertext>& in,
    fhe::EvalStats* stats) const {
  return run_stages(rt, plan, in.data(), in.size(), stats);
}

std::vector<fhe::Ciphertext> FhePipeline::run_stages(FheRuntime& rt, const Plan& plan,
                                                     const fhe::Ciphertext* in,
                                                     std::size_t count,
                                                     fhe::EvalStats* stats) const {
  sp::check(plan.stages.size() == stages_.size(),
            "FhePipeline::run: plan does not match this pipeline");
  const std::size_t slots = rt.ctx().slot_count();
  const std::size_t tile = plan.pack_stride != 0 ? plan.pack_stride : slots;
  sp::check_fmt(tile <= slots && slots % tile == 0, "FhePipeline::run: pack stride ", tile,
                " must divide the ", slots, " slots");
  // The rotation-sum generators index slots through these layouts, so a
  // plan runs only with the ones this pipeline derives at its tile: a plan
  // made for another pipeline or stride is refused here, never executed.
  const auto layouts = stage_layouts(tile);
  for (std::size_t i = 0; i < stages_.size(); ++i)
    sp::check_fmt(plan.stages[i].layout_in == layouts[i].first &&
                      plan.stages[i].layout_out == layouts[i].second,
                  "FhePipeline::run: stage ", i, " ('", stages_[i].label,
                  "') layout does not match this pipeline at a ", tile, "-slot tile");
  sp::check(count != 0, "FhePipeline::run: no input ciphertexts");
  sp::check_fmt(count == static_cast<std::size_t>(plan.stages.front().layout_in.blocks),
                "FhePipeline::run: the plan's input layout spans ",
                plan.stages.front().layout_in.blocks, " ciphertext blocks, got ", count);
  sp::check_fmt(in[0].level() >= plan.levels_used, "FhePipeline::run: input has ",
                in[0].level(), " levels but the plan needs ", plan.levels_used);

  fhe::Evaluator& ev = rt.evaluator();
  fhe::Encoder& enc = rt.encoder();
  const double delta = rt.ctx().scale();

  StageBlocks blocks(in, count);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& st = stages_[i];
    const StagePlan& sp_ = plan.stages[i];
    if (sp_.folded) continue;  // absorbed into a later PAF stage's envelope

    if (const auto* lin = std::get_if<LinearStage>(&st.op)) {
      // Slot-wise, so every block takes the same ops.
      if (lin->scale == 1.0 && lin->bias == 0.0) continue;
      for (fhe::Ciphertext& cur : blocks.own()) {
        if (lin->scale != 1.0) {
          ev.multiply_scalar_inplace(cur, lin->scale, delta);
          ev.rescale_inplace(cur);
        }
        if (lin->bias != 0.0)
          ev.add_plain_inplace(cur, enc.encode_scalar(lin->bias, cur.scale, cur.q_count()));
      }
      continue;
    }

    if (const auto lt = stage_transform(st, sp_.layout_in, sp_.layout_out, sp_.n1, tile,
                                        slots)) {
      std::vector<int> steps = sp_.rotation_steps;
      steps.insert(steps.end(), sp_.giant_steps.begin(), sp_.giant_steps.end());
      blocks.replace(lt->apply(ev, blocks.data(), blocks.size(), *rt.rotation_keys(steps),
                               sp_.hoist_fan, &enc, delta));
      continue;
    }

    const auto& paf = std::get<PafStage>(st.op);
    const fhe::PafEvaluator pe(rt.ctx(), enc, rt.relin_key(), sp_.strategy);
    std::vector<fhe::Ciphertext> next;
    if (paf.kind == SiteKind::ReLU) {
      // Slot-wise, so every block passes through the same envelope (the
      // zero padding slots of partial blocks stay zero: relu(0) == 0).
      for (std::size_t b = 0; b < blocks.size(); ++b)
        next.push_back(pe.relu(ev, blocks[b], paf.paf, paf.input_scale, stats, sp_.pre_factor));
    } else {
      // Cyclic pairwise tournament over one ciphertext (layout validation):
      // the fan rotates the STAGE INPUT once (hoisted when the plan says so),
      // then folds PAF-max left to right — the same order as PafMaxPool1d
      // and reference(). After the first fold the running max sits
      // depth + 2 levels lower at scale ~Delta^2/q, so every later tap first
      // lands on it, spending one of the tap's own spare levels.
      const fhe::Ciphertext& x = blocks[0];
      const auto gk = rt.rotation_keys(sp_.rotation_steps);
      std::vector<fhe::Ciphertext> rotated;
      if (sp_.hoist_fan) {
        rotated = ev.rotate_hoisted(x, sp_.rotation_steps, *gk);
      } else {
        for (int step : sp_.rotation_steps) rotated.push_back(ev.rotate(x, step, *gk));
      }
      std::optional<fhe::Ciphertext> m;
      for (std::size_t t = 0; t < rotated.size(); ++t) {
        if (m) {
          rotated[t] = fhe::scaled_to(ev, rotated[t], 1.0, m->level(), m->scale);
          if (stats) ++stats->plain_mults;
        }
        m = pe.max(ev, m ? *m : x, rotated[t], paf.paf, paf.input_scale, stats, sp_.pre_factor);
      }
      if (!m) continue;
      next.push_back(std::move(*m));
    }
    blocks.replace(std::move(next));
  }

  sp::check_fmt(in[0].level() - blocks[0].level() == plan.levels_used,
                "FhePipeline::run: executed pipeline consumed ",
                in[0].level() - blocks[0].level(), " levels but the plan predicted ",
                plan.levels_used);
  return std::move(blocks.own());
}

}  // namespace sp::smartpaf
