#include "fhe/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/aligned.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "fhe/ntt.h"
#include "fhe/simd/simd.h"

namespace sp::fhe {
namespace {

void check_scale_close(double a, double b) {
  sp::check(std::abs(a - b) <= 1e-6 * std::max(a, b),
            "Evaluator: scale mismatch between operands");
}

/// Exact division of every poly in `polys` by the prime of its last row (the
/// last chain prime for rescale, P for mod-down) with centered rounding, in
/// the NTT domain: only the dropped row goes back to coefficient form; its
/// centered lift into each surviving prime is transformed forward there, and
/// row <- (row - lift) * inv[row]. An NTT is an exact linear map mod each
/// prime and every row is canonical, so this is bit-identical to dividing in
/// the coefficient domain. The dropped row is left in coefficient form for
/// the caller to remove.
void divide_by_last_row(const std::vector<RnsPoly*>& polys, const std::vector<u64>& inv,
                        OpCounters& counters) {
  const int last = polys.front()->row_count() - 1;  // rows [0, last) survive
  std::vector<NttJob> dropped;
  for (RnsPoly* p : polys) {
    sp::check(p->is_ntt() && p->row_count() == last + 1,
              "divide_by_last_row: expects equally shaped NTT-form polynomials");
    dropped.push_back({p->row(last), &p->row_ntt(last)});
  }
  ntt_inverse_batch(dropped);
  counters.ntts_inverse += polys.size();

  // Unit u is surviving row u % rows of poly u / rows; its lift is at u * n.
  const std::size_t rows = static_cast<std::size_t>(last);
  const std::size_t units = polys.size() * rows;
  const std::size_t n = polys.front()->n();
  const auto poly_of = [&](std::size_t u) -> RnsPoly& { return *polys[u / rows]; };
  const auto row_of = [&](std::size_t u) { return static_cast<int>(u % rows); };
  sp::AlignedVec<u64> lift(units * n);
  const u64 d = polys.front()->row_mod(last).value();
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(units, n, [&](std::size_t u, std::size_t off, std::size_t len) {
    const RnsPoly& p = poly_of(u);
    k.lift_centered(lift.data() + u * n + off, p.row(last) + off, len, d,
                    p.row_mod(row_of(u)).value());
  });
  std::vector<NttJob> jobs(units);
  for (std::size_t u = 0; u < units; ++u)
    jobs[u] = {lift.data() + u * n, &poly_of(u).row_ntt(row_of(u))};
  ntt_forward_batch(jobs);
  counters.ntts_forward += units;

  std::vector<u64> inv_shoup(rows);
  for (std::size_t j = 0; j < rows; ++j)
    inv_shoup[j] = shoup_precompute(inv[j], polys.front()->row_mod(static_cast<int>(j)).value());
  for_each_row_tile(units, n, [&](std::size_t u, std::size_t off, std::size_t len) {
    RnsPoly& p = poly_of(u);
    const std::size_t j = u % rows;
    const u64 q = p.row_mod(row_of(u)).value();
    u64* r = p.row(row_of(u)) + off;
    k.sub_mod(r, lift.data() + u * n + off, len, q);
    k.mul_shoup(r, len, inv[j], inv_shoup[j], q);
  });
}

}  // namespace

void Evaluator::drop_to_level(Ciphertext& ct, int level) const {
  sp::check(level >= 0 && level <= ct.level(), "drop_to_level: bad target level");
  while (ct.level() > level)
    for (auto& part : ct.parts) part.drop_last_q();
}

void Evaluator::match_levels(Ciphertext& a, Ciphertext& b) const {
  if (a.level() > b.level())
    drop_to_level(a, b.level());
  else if (b.level() > a.level())
    drop_to_level(b, a.level());
}

Ciphertext Evaluator::add(const Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.q_count() == b.q_count(), "add: level mismatch");
  sp::check(a.size() == b.size(), "add: size mismatch");
  check_scale_close(a.scale, b.scale);
  Ciphertext out = a;
  for (int i = 0; i < out.size(); ++i) out.parts[static_cast<std::size_t>(i)].add_inplace(b.parts[static_cast<std::size_t>(i)]);
  ++counters.adds;
  return out;
}

Ciphertext Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.q_count() == b.q_count(), "sub: level mismatch");
  sp::check(a.size() == b.size(), "sub: size mismatch");
  check_scale_close(a.scale, b.scale);
  Ciphertext out = a;
  for (int i = 0; i < out.size(); ++i) out.parts[static_cast<std::size_t>(i)].sub_inplace(b.parts[static_cast<std::size_t>(i)]);
  ++counters.adds;
  return out;
}

void Evaluator::negate_inplace(Ciphertext& ct) const {
  for (auto& p : ct.parts) p.negate_inplace();
}

void Evaluator::add_inplace(Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.q_count() == b.q_count(), "add_inplace: level mismatch");
  check_scale_close(a.scale, b.scale);
  const int common = std::min(a.size(), b.size());
  for (int i = 0; i < common; ++i)
    a.parts[static_cast<std::size_t>(i)].add_inplace(b.parts[static_cast<std::size_t>(i)]);
  // The shorter operand is implicitly zero in its missing (quadratic) part.
  for (int i = common; i < b.size(); ++i)
    a.parts.push_back(b.parts[static_cast<std::size_t>(i)]);
  ++counters.adds;
}

void Evaluator::add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  sp::check(ct.q_count() == pt.q_count(), "add_plain: level mismatch");
  check_scale_close(ct.scale, pt.scale);
  ct.parts[0].add_inplace(pt.poly);
  ++counters.adds;
}

void Evaluator::multiply_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  sp::check(ct.q_count() == pt.q_count(), "multiply_plain: level mismatch");
  for (auto& part : ct.parts) part.mul_inplace(pt.poly);
  ct.scale *= pt.scale;
  ++counters.plain_mults;
}

Ciphertext Evaluator::multiply(const Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.size() == 2 && b.size() == 2, "multiply: operands must have 2 parts");
  sp::check(a.q_count() == b.q_count(), "multiply: level mismatch");

  sp::check(a.parts[0].is_ntt() && b.parts[0].is_ntt(), "multiply: requires NTT form");

  Ciphertext out;
  out.scale = a.scale * b.scale;
  RnsPoly p0 = a.parts[0];
  RnsPoly cross = a.parts[0];
  RnsPoly cross2 = a.parts[1];
  RnsPoly p2 = a.parts[1];
  // The four cross-term products are independent; dispatching their
  // (product x row x tile) units in one parallel region keeps the pool fed
  // even at short chain lengths, where per-row parallelism alone stalls.
  struct Prod {
    RnsPoly* dst;
    const RnsPoly* src;
  };
  const Prod prods[4] = {{&p0, &b.parts[0]},
                         {&cross, &b.parts[1]},
                         {&cross2, &b.parts[0]},
                         {&p2, &b.parts[1]}};
  const std::size_t rows = static_cast<std::size_t>(p0.row_count());
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(4 * rows, p0.n(), [&](std::size_t u, std::size_t off, std::size_t len) {
    const Prod& p = prods[u / rows];
    const int r = static_cast<int>(u % rows);
    const Modulus& m = p.dst->row_mod(r);
    k.mul_mod(p.dst->row(r) + off, p.src->row(r) + off, len, m.value(), m.ratio_hi(),
              m.ratio_lo());
  });
  cross.add_inplace(cross2);
  out.parts.push_back(std::move(p0));
  out.parts.push_back(std::move(cross));
  out.parts.push_back(std::move(p2));
  ++counters.ct_mults;
  return out;
}

std::vector<RnsPoly> Evaluator::decompose_digits(const RnsPoly& d) const {
  sp::check(d.is_ntt() && !d.has_special(),
            "decompose_digits: expects NTT form over chain rows");
  const int l = d.q_count();
  const std::size_t rows = static_cast<std::size_t>(l) + 1;  // + special
  const std::size_t n = ctx_->n();
  RnsPoly d_coeff = d;
  d_coeff.from_ntt();
  counters.ntts_inverse += static_cast<std::size_t>(l);

  // Rows are filled in coefficient form and transformed in place below.
  std::vector<RnsPoly> digits(static_cast<std::size_t>(l));
  for (auto& digit : digits)
    digit = RnsPoly(ctx_, l, /*with_special=*/true, /*ntt_form=*/true);
  // Digit i's row i is the lift of a residue into its own prime, i.e. d's
  // own NTT row i, so it is copied. Every other (digit, target row) pair is
  // an independent centered lift, parallel at l*(l+1) granularity.
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(digits.size() * rows, n, [&](std::size_t u, std::size_t off, std::size_t len) {
    const int i = static_cast<int>(u / rows), t = static_cast<int>(u % rows);
    RnsPoly& digit = digits[u / rows];
    if (t == i)
      std::memcpy(digit.row(t) + off, d.row(i) + off, len * sizeof(u64));
    else
      k.lift_centered(digit.row(t) + off, d_coeff.row(i) + off, len, ctx_->q(i).value(),
                      digit.row_mod(t).value());
  });
  // All l*l forward NTTs go out as one batch, so sub-row splitting sees the
  // full row set at once.
  std::vector<NttJob> jobs;
  for (std::size_t i = 0; i < digits.size(); ++i)
    for (int t = 0; t <= l; ++t)
      if (t != static_cast<int>(i)) jobs.push_back({digits[i].row(t), &digits[i].row_ntt(t)});
  ntt_forward_batch(jobs);
  counters.ntts_forward += jobs.size();
  return digits;
}

std::pair<RnsPoly, RnsPoly> Evaluator::apply_kswitch(const std::vector<RnsPoly>& digits,
                                                     const KSwitchKey& key,
                                                     const std::uint32_t* ntt_perm) const {
  const int l = static_cast<int>(digits.size());
  const int rows = l + 1;
  const int key_q = ctx_->q_count();  // key basis chain size
  const std::size_t n = ctx_->n();

  RnsPoly r0(ctx_, l, true, true), r1(ctx_, l, true, true);
  // Each extended-basis row accumulates its digit inner product
  // independently; the digit order inside a row is fixed, so sums (and the
  // final Barrett reductions) are bit-identical for any thread count.
  sp::parallel_for(0, static_cast<std::size_t>(rows), [&](std::size_t tt) {
    const int t = static_cast<int>(tt);
    // Ciphertext chain row t maps to key row t; the special row maps to the
    // key's special row (index key_q).
    const int key_row = (t == l) ? key_q : t;
    std::vector<u128> acc0(n, 0), acc1(n, 0);
    for (int i = 0; i < l; ++i) {
      const u64* dg = digits[static_cast<std::size_t>(i)].row(t);
      const auto& kd = key.digits[static_cast<std::size_t>(i)];
      const u64* k0 = kd[0].row(key_row);
      const u64* k1 = kd[1].row(key_row);
      if (ntt_perm) {
        for (std::size_t j = 0; j < n; ++j) {
          const u64 dgj = dg[ntt_perm[j]];
          acc0[j] += static_cast<u128>(dgj) * k0[j];
          acc1[j] += static_cast<u128>(dgj) * k1[j];
        }
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          acc0[j] += static_cast<u128>(dg[j]) * k0[j];
          acc1[j] += static_cast<u128>(dg[j]) * k1[j];
        }
      }
    }
    const Modulus& m = r0.row_mod(t);
    u64* d0 = r0.row(t);
    u64* d1 = r1.row(t);
    for (std::size_t j = 0; j < n; ++j) {
      d0[j] = m.reduce128(acc0[j]);
      d1[j] = m.reduce128(acc1[j]);
    }
  });

  return {std::move(r0), std::move(r1)};
}

void Evaluator::mod_down(RnsPoly& r0, RnsPoly& r1) const {
  sp::check(r0.has_special() && r1.has_special(), "mod_down: expects rows over Q ∪ {P}");
  std::vector<u64> p_inv(static_cast<std::size_t>(r0.q_count()));
  for (int j = 0; j < r0.q_count(); ++j) p_inv[static_cast<std::size_t>(j)] = ctx_->p_inv_mod(j);
  divide_by_last_row({&r0, &r1}, p_inv, counters);
  r0.drop_special();
  r1.drop_special();
}

void Evaluator::relinearize_inplace(Ciphertext& ct, const KSwitchKey& rk) const {
  sp::check(ct.size() == 3, "relinearize: ciphertext must have 3 parts");
  auto [r0, r1] = apply_kswitch(decompose_digits(ct.parts[2]), rk, /*ntt_perm=*/nullptr);
  mod_down(r0, r1);
  ct.parts.pop_back();
  ct.parts[0].add_inplace(r0);
  ct.parts[1].add_inplace(r1);
  ++counters.relins;
}

void Evaluator::rescale_inplace(Ciphertext& ct) const {
  sp::check(ct.level() >= 1, "rescale: no levels remaining");
  const int last = ct.q_count() - 1;
  std::vector<u64> inv(static_cast<std::size_t>(last));
  for (int j = 0; j < last; ++j) inv[static_cast<std::size_t>(j)] = ctx_->q_inv_mod(last, j);
  std::vector<RnsPoly*> parts;
  parts.reserve(ct.parts.size());
  for (auto& part : ct.parts) parts.push_back(&part);
  divide_by_last_row(parts, inv, counters);
  for (auto& part : ct.parts) part.drop_last_q();
  ct.scale /= static_cast<double>(ctx_->q(last).value());
  ++counters.rescales;
}

Ciphertext Evaluator::rotate(const Ciphertext& ct, int steps, const GaloisKeys& gk) const {
  sp::check(ct.size() == 2, "rotate: relinearize first");
  const u64 g = galois_element(ctx_->n(), steps);
  if (g == 1) return ct;
  Ciphertext out = rotate_decomposed(hoist(ct), g, gk);
  ++counters.rotations;
  return out;
}

HoistedDecomposition Evaluator::hoist(const Ciphertext& ct) const {
  sp::check(ct.size() == 2, "hoist: relinearize first");
  HoistedDecomposition h;
  h.src = ct;
  h.digits = decompose_digits(ct.parts[1]);
  return h;
}

Ciphertext Evaluator::rotate_hoisted(const HoistedDecomposition& h, int steps,
                                     const GaloisKeys& gk) const {
  sp::check(!h.digits.empty(), "rotate_hoisted: empty decomposition");
  const u64 g = galois_element(ctx_->n(), steps);
  if (g == 1) return h.src;
  Ciphertext out = rotate_decomposed(h, g, gk);
  ++counters.rotations;
  ++counters.hoisted_rotations;
  return out;
}

Ciphertext Evaluator::rotate_decomposed(const HoistedDecomposition& h, u64 g,
                                        const GaloisKeys& gk) const {
  const auto it = gk.keys.find(g);
  sp::check(it != gk.keys.end(), "rotate: missing Galois key for requested step");

  // The decomposition commutes with the automorphism: lifting is
  // coefficient-wise and X -> X^g is a signed coefficient permutation, so
  // permuting the cached NTT-form digits equals decomposing the rotated
  // ciphertext — bit for bit — at zero additional NTTs.
  const std::vector<std::uint32_t>& table = galois_ntt_table(ctx_->n(), g);
  auto [r0, r1] = apply_kswitch(h.digits, it->second, table.data());
  mod_down(r0, r1);

  // c0 rotates as the same pure NTT-domain permutation (no NTT round-trip).
  const RnsPoly& c0 = h.src.parts[0];
  const std::size_t n = ctx_->n();
  for (int t = 0; t < r0.row_count(); ++t) {
    const Modulus& m = r0.row_mod(t);
    u64* dst = r0.row(t);
    const u64* src = c0.row(t);
    for (std::size_t j = 0; j < n; ++j) dst[j] = m.add(dst[j], src[table[j]]);
  }

  Ciphertext out;
  out.parts.push_back(std::move(r0));
  out.parts.push_back(std::move(r1));
  out.scale = h.src.scale;
  return out;
}

std::vector<Ciphertext> Evaluator::rotate_hoisted(const Ciphertext& ct,
                                                  const std::vector<int>& steps,
                                                  const GaloisKeys& gk) const {
  const HoistedDecomposition h = hoist(ct);
  std::vector<Ciphertext> out;
  out.reserve(steps.size());
  for (int s : steps) out.push_back(rotate_hoisted(h, s, gk));
  return out;
}

}  // namespace sp::fhe
