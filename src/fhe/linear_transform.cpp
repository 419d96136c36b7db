#include "fhe/linear_transform.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace sp::fhe {
namespace {

using Term = LtSchedule::Term;

bool same_group(const Term& a, const Term& b) {
  return a.in_block == b.in_block && a.out_block == b.out_block && a.giant == b.giant;
}

void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// A scalar or slot mask encoded at (scale, q_count); slot vectors go
/// through the encode cache under `key`.
std::shared_ptr<const Plaintext> encode(const Encoder* enc, const LtMask& m,
                                        std::uint64_t key, double scale, int q_count) {
  sp::check(enc != nullptr && !std::holds_alternative<const Ciphertext*>(m),
            "LinearTransform::apply: plaintext masks need an encoder");
  if (const auto* make = std::get_if<SlotMask>(&m))
    return enc->encode_cached(key, scale, q_count, *make);
  return std::make_shared<const Plaintext>(
      enc->encode_scalar(std::get<double>(m), scale, q_count));
}

}  // namespace

int giant_of(int k, int n1) {
  if (n1 == 0) return 0;
  int g = (k / n1) * n1;
  if (k < 0 && g > k) g -= n1;
  return g;
}

// ---------------------------------------------------------------- LtSchedule --

std::vector<int> LtSchedule::fan_steps(int bi) const {
  std::vector<int> fan;
  for (const Term& t : terms)
    if (t.in_block == bi && t.baby != 0) fan.push_back(t.baby);
  sort_unique(fan);
  return fan;
}

std::vector<int> LtSchedule::giant_steps() const {
  std::vector<int> giants;
  for (const Term& t : terms)
    if (t.giant != 0) giants.push_back(t.giant);
  sort_unique(giants);
  return giants;
}

std::vector<int> LtSchedule::steps() const {
  std::vector<int> all = giant_steps();
  for (const Term& t : terms)
    if (t.baby != 0) all.push_back(t.baby);
  sort_unique(all);
  return all;
}

int LtSchedule::rotations() const {
  int rot = 0;
  for (int bi = 0; bi < blocks_in; ++bi) rot += static_cast<int>(fan_steps(bi).size());
  for (std::size_t i = 0; i < terms.size(); ++i)
    if (terms[i].giant != 0 && (i == 0 || !same_group(terms[i], terms[i - 1]))) ++rot;
  return rot;
}

int LtSchedule::mask_mults() const {
  std::vector<bool> fed(static_cast<std::size_t>(blocks_out), false);
  for (const Term& t : terms) fed[static_cast<std::size_t>(t.out_block)] = true;
  return static_cast<int>(terms.size() + std::count(fed.begin(), fed.end(), false));
}

// ----------------------------------------------------------- LinearTransform --

LinearTransform::LinearTransform(int blocks_in, int blocks_out, int n1) {
  sp::check(blocks_in >= 1 && blocks_out >= 1, "LinearTransform: needs >= 1 block per side");
  sp::check(n1 >= 0, "LinearTransform: n1 must be >= 0 (0 = pure fan)");
  schedule.blocks_in = blocks_in;
  schedule.blocks_out = blocks_out;
  schedule.n1 = n1;
}

void LinearTransform::add(int in_block, int out_block, int giant, int baby, LtMask mask) {
  sp::check(0 <= in_block && in_block < schedule.blocks_in && 0 <= out_block &&
                out_block < schedule.blocks_out,
            "LinearTransform: term block out of range");
  schedule.terms.push_back({in_block, out_block, giant, baby});
  masks.push_back(std::move(mask));
}

std::vector<Ciphertext> LinearTransform::apply(Evaluator& ev, const Ciphertext* in,
                                               std::size_t blocks, const GaloisKeys& gk,
                                               bool hoist, const Encoder* enc, double scale,
                                               const KSwitchKey* relin) const {
  const std::vector<Term>& terms = schedule.terms;
  sp::check(static_cast<int>(blocks) == schedule.blocks_in,
            "LinearTransform::apply: wrong input block count");
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    sp::check(in[bi].size() == 2, "LinearTransform::apply: inputs must be 2-part");
    sp::check(in[bi].level() >= 1, "LinearTransform::apply: no level left for the rescale");
  }

  std::vector<std::optional<Ciphertext>> acc(static_cast<std::size_t>(schedule.blocks_out));
  for (int bi = 0; bi < schedule.blocks_in; ++bi) {
    // One fan per input block, shared by every group that reads it.
    const Ciphertext& x = in[static_cast<std::size_t>(bi)];
    const std::vector<int> fan = schedule.fan_steps(bi);
    std::vector<Ciphertext> rotated;
    if (hoist && !fan.empty()) {
      rotated = ev.rotate_hoisted(x, fan, gk);
    } else {
      for (int b : fan) rotated.push_back(ev.rotate(x, b, gk));
    }
    const auto baby = [&](int b) -> const Ciphertext& {
      if (b == 0) return x;
      return rotated[static_cast<std::size_t>(
          std::lower_bound(fan.begin(), fan.end(), b) - fan.begin())];
    };

    std::size_t i = 0;
    while (i < terms.size()) {
      const Term& head = terms[i];
      if (head.in_block != bi) {
        ++i;
        continue;
      }
      // Every term of a group sits at one scale, so the sum is exact; one
      // relinearization (3-part sums only) and one giant rotation close it.
      // The group's first plaintext or scalar term is written straight into
      // it; a later one is formed tile by tile and added in the same pass.
      std::optional<Ciphertext> group;
      for (; i < terms.size() && same_group(terms[i], head); ++i) {
        const Ciphertext& b = baby(terms[i].baby);
        if (const auto* ct = std::get_if<const Ciphertext*>(&masks[i])) {
          // Encrypted mask, read at the baby's level: a 3-part product.
          Ciphertext t = ev.multiply(**ct, b, b.level());
          if (!group)
            group = std::move(t);
          else
            ev.add_inplace(*group, t);
        } else if (const auto* w = std::get_if<double>(&masks[i])) {
          if (!group)
            group = ev.multiply_scalar(b, *w, scale, b.level());
          else
            ev.multiply_scalar_add_inplace(*group, b, *w, scale);
        } else {
          const auto pt = encode(enc, masks[i], fnv_mix(key, i), scale, b.q_count());
          if (!group)
            group = ev.multiply_plain(b, *pt);
          else
            ev.multiply_plain_add_inplace(*group, b, *pt);
        }
      }
      if (group->size() == 3) {
        sp::check(relin != nullptr, "LinearTransform::apply: ciphertext masks need a relin key");
        ev.relinearize_inplace(*group, *relin);
      }
      if (head.giant != 0) group = ev.rotate(*group, head.giant, gk);
      std::optional<Ciphertext>& sum = acc[static_cast<std::size_t>(head.out_block)];
      if (!sum) {
        sum = std::move(group);
      } else {
        ev.add_inplace(*sum, *group);
      }
    }
  }

  std::vector<Ciphertext> out;
  out.reserve(acc.size());
  for (std::size_t bo = 0; bo < acc.size(); ++bo) {
    if (!acc[bo]) {
      // No term feeds this block: a zero mask keeps the one-level shape.
      acc[bo] = ev.multiply_scalar(in[0], 0.0, scale, in[0].level());
    }
    Ciphertext& y = *acc[bo];
    ev.rescale_inplace(y);
    if (bo < bias.size() && bias[bo])
      ev.add_plain_inplace(y, *encode(enc, *bias[bo], fnv_mix(key, terms.size() + bo),
                                      y.scale, y.q_count()));
    out.push_back(std::move(y));
  }
  return out;
}

// -------------------------------------------------------------------- ConvGeom --

void ConvGeom::validate() const {
  sp::check(in_channels >= 1 && out_channels >= 1, "ConvGeom: empty channel range");
  sp::check(height >= 1 && width >= 1, "ConvGeom: empty spatial grid");
  sp::check(kernel >= 1 && kernel <= height && kernel <= width,
            "ConvGeom: kernel must fit the image");
  sp::check(stride >= 1, "ConvGeom: stride must be >= 1");
  sp::check(elem_stride >= 1 && row_stride >= 1 && ch_stride >= 1,
            "ConvGeom: slot strides must be positive");
  // Collision-free grid: a full row fits between row starts and a full
  // channel plane between channel starts, so distinct (c, y, x) triples map
  // to distinct slots and conv masks never overwrite each other.
  sp::check((width - 1) * elem_stride < row_stride,
            "ConvGeom: grid rows overlap (width * elem_stride > row_stride)");
  sp::check((height - 1) * row_stride + (width - 1) * elem_stride < ch_stride,
            "ConvGeom: channel planes overlap (spatial extent > ch_stride)");
}

// ------------------------------------------------------------ diagonal method --

std::vector<int> diagonal_steps(const std::vector<double>& weights, int rows, int cols) {
  sp::check(rows >= 1 && cols >= 1, "diagonal_steps: empty matrix");
  sp::check(weights.size() == static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
            "diagonal_steps: weights must be row-major rows x cols");
  std::vector<int> steps;
  for (int s = -(rows - 1); s < cols; ++s) {
    bool nonzero = false;
    for (int j = std::max(0, -s); j < std::min(rows, cols - s) && !nonzero; ++j)
      nonzero = weights[static_cast<std::size_t>(j) * cols + (j + s)] != 0.0;
    if (nonzero) steps.push_back(s);
  }
  return steps;
}

LtSchedule diagonal_schedule(const std::vector<int>& steps, int n1) {
  LtSchedule s;
  s.n1 = n1;
  for (int step : steps) {
    const int g = giant_of(step, n1);
    s.terms.push_back({0, 0, g, step - g});
  }
  return s;
}

LtSchedule split_schedule(const LtSchedule& fan, int n1, int unit) {
  LtSchedule s = fan;
  s.n1 = n1;
  for (Term& t : s.terms) {
    sp::check(t.giant == 0, "split_schedule: input must be a pure fan");
    t.giant = giant_of(t.baby, n1 * unit);
    t.baby -= t.giant;
  }
  return s;
}

int fewest_rotations_n1(const std::vector<int>& steps, int span) {
  sp::check(!steps.empty(), "fewest_rotations_n1: no nonzero diagonals");
  int best = 1, best_rot = -1, best_groups = -1;
  for (int n1 = 1; n1 <= span; ++n1) {
    const LtSchedule s = diagonal_schedule(steps, n1);
    const int rot = s.rotations();
    int groups = 0;
    for (std::size_t i = 0; i < s.terms.size(); ++i)
      groups += i == 0 || s.terms[i].giant != s.terms[i - 1].giant ? 1 : 0;
    if (best_rot < 0 || rot < best_rot || (rot == best_rot && groups < best_groups)) {
      best = n1;
      best_rot = rot;
      best_groups = groups;
    }
  }
  return best;
}

std::vector<double> extended_diagonal_slots(const std::vector<double>& weights,
                                            int rows, int cols, int s, int g,
                                            std::size_t tile, std::size_t slots) {
  sp::check(tile > 0 && slots % tile == 0 && tile <= slots,
            "extended_diagonal_slots: tile must divide the slot count");
  const int tile_i = static_cast<int>(tile);
  std::vector<double> v(slots, 0.0);
  for (int j = std::max(0, -s); j < std::min(rows, cols - s); ++j) {
    const double w = weights[static_cast<std::size_t>(j) * cols + (j + s)];
    if (w == 0.0) continue;
    // Pre-rotation by -g: the giant rotation of the group sum moves this
    // entry back to slot j (mod tile), where diagonal s expects it.
    const int at = ((j + g) % tile_i + tile_i) % tile_i;
    for (std::size_t base = 0; base < slots; base += tile)
      v[base + static_cast<std::size_t>(at)] = w;
  }
  return v;
}

}  // namespace sp::fhe
