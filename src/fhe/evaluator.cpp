#include "fhe/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

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

/// Per-thread blocks of scratch rows, reused across calls and only grown.
/// A fresh AlignedVec per call would zero-fill every row before it was
/// overwritten, and the heap churn of such temporaries made glibc give
/// pages back and fault them in again on every call. They are per thread
/// because the pool's lanes fill their primes at once and the evaluator's
/// const methods may run on several caller threads.
///  - kLane: one output prime's digit rows in a key switch's lane (the
///    inner-product kernel reads them back while they are in cache), an
///    exact division's lift rows, and one tile of a product's a1·b0.
///  - kSwitch: a key switch's coefficient-form input and, in
///    relinearize_rescale_inplace, its two outputs. These stay live while
///    the calling thread, as one of the pool's lanes, fills its kLane rows.
/// A caller takes each block once, at its full size: growing a block moves it.
enum ScratchBlock { kLane, kSwitch };
u64* scratch_rows(ScratchBlock block, std::size_t words) {
  thread_local sp::AlignedVec<u64> blocks[2];
  sp::AlignedVec<u64>& rows = blocks[block];
  if (rows.size() < words) rows.resize(words);
  return rows.data();
}

/// The lift rows of an exact division over `polys`, whose rows [0, rows)
/// survive: unit u is row u % rows of poly u / rows, and its lift row sits
/// at u·n in the calling thread's scratch block. fill(poly, row, dst, off,
/// len) writes one tile of the coefficient-form lift; then every lift row
/// is transformed forward in its prime, in one batch.
template <typename Fill>
const u64* forward_lifts(const std::vector<RnsPoly*>& polys, std::size_t rows, const Fill& fill,
                         OpCounters& counters) {
  const std::size_t units = polys.size() * rows, n = polys.front()->n();
  u64* lift = scratch_rows(kLane, units * n);
  for_each_row_tile(units, n, [&](std::size_t u, std::size_t off, std::size_t len) {
    fill(u / rows, static_cast<int>(u % rows), lift + u * n + off, off, len);
  });
  std::vector<NttJob> jobs(units);
  for (std::size_t u = 0; u < units; ++u)
    jobs[u] = {lift + u * n, &polys[u / rows]->row_ntt(static_cast<int>(u % rows))};
  ntt_forward_batch(jobs);
  counters.ntts_forward += units;
  return lift;
}

/// The last step of an exact division: row <- (row - lift) * inv[row] for
/// each surviving row of every poly, with `lift` in forward_lifts' layout.
void subtract_and_scale(const std::vector<RnsPoly*>& polys, std::size_t rows, const u64* lift,
                        const std::vector<u64>& inv) {
  const std::size_t n = polys.front()->n();
  std::vector<u64> inv_shoup(rows);
  for (std::size_t j = 0; j < rows; ++j)
    inv_shoup[j] = shoup_precompute(inv[j], polys.front()->row_mod(static_cast<int>(j)).value());
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(polys.size() * rows, n, [&](std::size_t u, std::size_t off, std::size_t len) {
    RnsPoly& p = *polys[u / rows];
    const std::size_t j = u % rows;
    const u64 q = p.row_mod(static_cast<int>(j)).value();
    u64* r = p.row(static_cast<int>(j)) + off;
    k.sub_mod(r, lift + u * n + off, len, q);
    k.mul_shoup(r, len, inv[j], inv_shoup[j], q);
  });
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

  const u64 d = polys.front()->row_mod(last).value();
  const simd::Kernels& k = simd::kernels();
  const auto rows = static_cast<std::size_t>(last);
  const u64* lift = forward_lifts(
      polys, rows,
      [&](std::size_t poly, int j, u64* dst, std::size_t off, std::size_t len) {
        const RnsPoly& p = *polys[poly];
        k.lift_centered(dst, p.row(last) + off, len, d, p.row_mod(j).value());
      },
      counters);
  subtract_and_scale(polys, rows, lift, inv);
}

/// The division of relinearize_rescale_inplace: e <- (e + r / P) / q_l, each
/// division exact with centered rounding, for the two parts `e` (c chain
/// rows, l = c - 1) of a relinearized ciphertext and their key-switch
/// outputs `r` (row j at r[i] + j·n: the c chain rows, then P), all in NTT
/// form. Bit for bit what mod_down(r), e += r and a rescale by q_l compute,
/// but the surviving rows take one forward NTT each instead of two: an NTT
/// is an exact linear map mod each prime, so the two lifts of a row are
/// summed before one transform. Row l is left in coefficient form for the
/// caller to drop.
void divide_by_special_and_last(const std::vector<RnsPoly*>& e, const std::vector<u64*>& r,
                                OpCounters& counters) {
  const CkksContext& ctx = *e.front()->context();
  const int c = e.front()->q_count(), l = c - 1;  // r's P row is row c
  const std::size_t n = ctx.n(), parts = e.size(), chain = static_cast<std::size_t>(c);
  for (const RnsPoly* p : e)
    sp::check(p->is_ntt() && !p->has_special() && p->q_count() == c,
              "divide_by_special_and_last: expects NTT-form parts over the same chain");
  const auto r_row = [&](std::size_t i, int j) { return r[i] + static_cast<std::size_t>(j) * n; };
  const u64 p = ctx.special().value(), q_l = ctx.q(l).value();
  std::vector<u64> p_inv(chain), p_inv_shoup(chain);
  for (std::size_t j = 0; j < chain; ++j) {
    p_inv[j] = ctx.p_inv_mod(static_cast<int>(j));
    p_inv_shoup[j] = shoup_precompute(p_inv[j], ctx.q(static_cast<int>(j)).value());
  }
  const simd::Kernels& k = simd::kernels();

  // e_j += r_j * P^-1 in every chain row. From here on only r's P row is
  // read; its chain rows are free for temporaries.
  for_each_row_tile(parts * chain, n, [&](std::size_t u, std::size_t off, std::size_t len) {
    const std::size_t j = u % chain;
    const u64 q = ctx.q(static_cast<int>(j)).value();
    u64* rj = r_row(u / chain, static_cast<int>(j)) + off;
    k.mul_shoup(rj, len, p_inv[j], p_inv_shoup[j], q);
    k.add_mod(e[u / chain]->row(static_cast<int>(j)) + off, rj, len, q);
  });
  // a = r's P row and e's row l to coefficient form: 2 inverse NTTs a part.
  std::vector<NttJob> jobs;
  for (std::size_t i = 0; i < parts; ++i) {
    jobs.push_back({r_row(i, c), &ctx.special_ntt()});
    jobs.push_back({e[i]->row(l), &ctx.ntt(l)});
  }
  ntt_inverse_batch(jobs);
  counters.ntts_inverse += jobs.size();
  // b = e_l - lift_P(a) * P^-1 mod q_l: the row the sequential mod-down and
  // add leave for the rescale to inverse-transform. r's row l holds the lift.
  for_each_row_tile(parts, n, [&](std::size_t i, std::size_t off, std::size_t len) {
    u64* lift = r_row(i, l) + off;
    k.lift_centered(lift, r_row(i, c) + off, len, p, q_l);
    k.mul_shoup(lift, len, p_inv[static_cast<std::size_t>(l)],
                p_inv_shoup[static_cast<std::size_t>(l)], q_l);
    k.sub_mod(e[i]->row(l) + off, lift, len, q_l);
  });
  // Rows j < l: one forward NTT of lift_P(a) * P^-1 + lift_{q_l}(b), with
  // r's row j holding the second lift.
  const u64* lift = forward_lifts(
      e, static_cast<std::size_t>(l),
      [&](std::size_t i, int j, u64* dst, std::size_t off, std::size_t len) {
        const u64 q = ctx.q(j).value();
        const auto jj = static_cast<std::size_t>(j);
        k.lift_centered(dst, r_row(i, c) + off, len, p, q);
        k.mul_shoup(dst, len, p_inv[jj], p_inv_shoup[jj], q);
        u64* lift_b = r_row(i, j) + off;
        k.lift_centered(lift_b, e[i]->row(l) + off, len, q_l, q);
        k.add_mod(dst, lift_b, len, q);
      },
      counters);
  std::vector<u64> q_l_inv(static_cast<std::size_t>(l));
  for (int j = 0; j < l; ++j) q_l_inv[static_cast<std::size_t>(j)] = ctx.q_inv_mod(l, j);
  subtract_and_scale(e, static_cast<std::size_t>(l), lift, q_l_inv);
}

/// Coefficient form of a key-switch input `d` (NTT form over chain rows),
/// row i at out + i·n: a copy, inverse-transformed (c NTTs).
void coefficient_rows(const RnsPoly& d, u64* out, OpCounters& counters) {
  sp::check(d.is_ntt() && !d.has_special(), "key switch: expects NTT form over chain rows");
  const std::size_t n = d.n();
  std::vector<NttJob> jobs;
  for (int i = 0; i < d.q_count(); ++i) {
    u64* row = out + static_cast<std::size_t>(i) * n;
    std::memcpy(row, d.row(i), n * sizeof(u64));
    jobs.push_back({row, &d.row_ntt(i)});
  }
  ntt_inverse_batch(jobs);
  counters.ntts_inverse += jobs.size();
}

/// Writes every digit's NTT-form row in output prime t (one of the c chain
/// primes, or P at t = c), digit i's at rows + i·n. Digit i is the centered
/// lift of d's residue row i, so its row in q_i is d's own NTT row, copied;
/// the other c - 1 lifts of d's coefficient rows (`d_coeff`, laid out like
/// `rows`) are transformed in one batch. Returns the number of NTTs run.
std::size_t decompose_prime(const RnsPoly& d, const u64* d_coeff, int t, u64* rows) {
  const CkksContext& ctx = *d.context();
  const int c = d.q_count();
  const std::size_t n = ctx.n();
  const bool special = t == c;
  const u64 q_t = special ? ctx.special().value() : ctx.q(t).value();
  const NttTables& tables = special ? ctx.special_ntt() : ctx.ntt(t);
  const simd::Kernels& k = simd::kernels();
  std::vector<NttJob> jobs;
  jobs.reserve(static_cast<std::size_t>(c));
  for (int i = 0; i < c; ++i) {
    u64* row = rows + static_cast<std::size_t>(i) * n;
    if (i == t) {
      std::memcpy(row, d.row(i), n * sizeof(u64));
    } else {
      k.lift_centered(row, d_coeff + static_cast<std::size_t>(i) * n, n, ctx.q(i).value(), q_t);
      jobs.push_back({row, &tables});
    }
  }
  ntt_forward_batch(jobs);
  return jobs.size();
}

/// The inner-product half of every key switch, over the c chain primes and
/// then P. Output prime t (one parallel unit each) gets its c digit rows in
/// NTT form from fill(t, rows), row i at rows + i·n in the lane's scratch
/// block, and key_inner_product sums them against key row t into out0 and
/// out1 + t·n. The special prime is key row ctx.q_count(), since keys span
/// the whole chain.
template <typename Fill>
void key_inner_products(const CkksContext& ctx, const KSwitchKey& key, int c, const Fill& fill,
                        u64* out0, u64* out1) {
  const std::size_t n = ctx.n();
  const std::size_t count = static_cast<std::size_t>(c);
  const simd::Kernels& k = simd::kernels();
  sp::parallel_for(0, count + 1, [&](std::size_t tt) {
    const int t = static_cast<int>(tt);
    const int key_row = t == c ? ctx.q_count() : t;
    u64* rows = scratch_rows(kLane, count * n);
    fill(t, rows);
    std::vector<const u64*> ptrs(3 * count);  // digit rows, then k0 rows, then k1 rows
    for (std::size_t i = 0; i < count; ++i) {
      ptrs[i] = rows + i * n;
      ptrs[count + i] = key.digits[i][0].row(key_row);
      ptrs[2 * count + i] = key.digits[i][1].row(key_row);
    }
    const Modulus& m = t == c ? ctx.special() : ctx.q(t);
    k.key_inner_product(out0 + tt * n, out1 + tt * n, ptrs.data(), ptrs.data() + count,
                        ptrs.data() + 2 * count, count, n, m.value(), m.ratio_hi(),
                        m.ratio_lo());
  });
}

/// The rotation key for `steps`, whose Galois element is g; a missing key
/// throws sp::Error naming both.
const KSwitchKey& galois_key(const GaloisKeys& gk, int steps, u64 g) {
  const auto it = gk.keys.find(g);
  sp::check_fmt(it != gk.keys.end(), "rotate: missing Galois key for step ", steps,
                " (Galois element ", g, ")");
  return it->second;
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

void Evaluator::multiply_scalar_inplace(Ciphertext& ct, double value, double scale) const {
  const std::int64_t v = scalar_coefficient(value, scale);
  const auto rows = static_cast<std::size_t>(ct.q_count());
  std::vector<u64> q(rows), w(rows), w_shoup(rows);
  for (std::size_t j = 0; j < rows; ++j) {
    const Modulus& m = ctx_->q(static_cast<int>(j));
    q[j] = m.value();
    w[j] = m.from_signed(v);
    w_shoup[j] = shoup_precompute(w[j], q[j]);
  }
  const simd::Kernels& k = simd::kernels();
  const auto tile = [&](std::size_t u, std::size_t off, std::size_t len) {
    const std::size_t j = u % rows;
    k.mul_shoup(ct.parts[u / rows].row(static_cast<int>(j)) + off, len, w[j], w_shoup[j], q[j]);
  };
  for_each_row_tile(ct.parts.size() * rows, ctx_->n(), tile);
  ct.scale *= scale;
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
  RnsPoly p2 = a.parts[1];
  // p0 = a0·b0, cross = a0·b1 + a1·b0 and p2 = a1·b1. Dispatching the three
  // terms' (term x row x tile) units in one parallel region keeps the pool
  // fed even at short chain lengths, where per-row parallelism alone stalls.
  // a1·b0 is formed one tile at a time in the lane's scratch and added into
  // the cross term in the same pass.
  const std::size_t rows = static_cast<std::size_t>(p0.row_count());
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(3 * rows, p0.n(), [&](std::size_t u, std::size_t off, std::size_t len) {
    const int r = static_cast<int>(u % rows);
    const Modulus& m = p0.row_mod(r);
    const auto mul = [&](u64* dst, const RnsPoly& src) {
      k.mul_mod(dst, src.row(r) + off, len, m.value(), m.ratio_hi(), m.ratio_lo());
    };
    switch (u / rows) {
      case 0:
        return mul(p0.row(r) + off, b.parts[0]);
      case 1: {
        u64* a1b0 = scratch_rows(kLane, len);
        std::memcpy(a1b0, a.parts[1].row(r) + off, len * sizeof(u64));
        mul(a1b0, b.parts[0]);
        mul(cross.row(r) + off, b.parts[1]);
        return k.add_mod(cross.row(r) + off, a1b0, len, m.value());
      }
      default:
        return mul(p2.row(r) + off, b.parts[1]);
    }
  });
  out.parts.push_back(std::move(p0));
  out.parts.push_back(std::move(cross));
  out.parts.push_back(std::move(p2));
  ++counters.ct_mults;
  return out;
}

sp::AlignedVec<u64> Evaluator::decompose_digits(const RnsPoly& d) const {
  const std::size_t c = static_cast<std::size_t>(d.q_count()), n = ctx_->n();
  u64* d_coeff = scratch_rows(kSwitch, c * n);
  coefficient_rows(d, d_coeff, counters);
  sp::AlignedVec<u64> rows(c * (c + 1) * n);
  sp::parallel_for(0, c + 1, [&](std::size_t t) {
    counters.ntts_forward +=
        decompose_prime(d, d_coeff, static_cast<int>(t), rows.data() + t * c * n);
  });
  return rows;
}

void Evaluator::check_kswitch_key(const KSwitchKey& key) const {
  const int chain = ctx_->q_count();
  const std::size_t n = ctx_->n();
  const auto part_ok = [&](const RnsPoly& p) {
    return p.context() != nullptr && p.n() == n && p.q_count() == chain && p.has_special() &&
           p.is_ntt();
  };
  const RnsPoly* bad = nullptr;
  for (const auto& digit : key.digits)
    for (const RnsPoly& part : digit)
      if (!bad && !part_ok(part)) bad = &part;
  if (key.digits.size() == static_cast<std::size_t>(chain) && !bad) return;
  std::ostringstream found;
  found << key.digits.size() << " digits";
  if (bad != nullptr) {
    found << ", a part with " << bad->q_count() << " chain + " << (bad->has_special() ? 1 : 0)
          << " special rows";
    if (bad->context() != nullptr) found << " at n = " << bad->n();
    found << (bad->is_ntt() ? " in NTT form" : " in coefficient form");
  }
  throw sp::Error("key switch: key has " + found.str() + "; expected " +
                  std::to_string(chain) + " digits, each part " + std::to_string(chain) +
                  " chain + 1 special rows at n = " + std::to_string(n) + " in NTT form");
}

void Evaluator::apply_kswitch(const RnsPoly& d, const KSwitchKey& key, u64* d_coeff, u64* out0,
                              u64* out1) const {
  check_kswitch_key(key);
  coefficient_rows(d, d_coeff, counters);
  // Each lane decomposes into its own prime's rows of the scratch block and
  // sums them while they are in cache.
  key_inner_products(
      *ctx_, key, d.q_count(),
      [&](int t, u64* rows) { counters.ntts_forward += decompose_prime(d, d_coeff, t, rows); },
      out0, out1);
}

std::pair<RnsPoly, RnsPoly> Evaluator::apply_kswitch(const RnsPoly& d,
                                                     const KSwitchKey& key) const {
  RnsPoly r0(ctx_, d.q_count(), /*with_special=*/true, /*ntt_form=*/true);
  RnsPoly r1(ctx_, d.q_count(), /*with_special=*/true, /*ntt_form=*/true);
  apply_kswitch(d, key, scratch_rows(kSwitch, static_cast<std::size_t>(d.q_count()) * ctx_->n()),
                r0.row(0), r1.row(0));
  return {std::move(r0), std::move(r1)};
}

std::pair<RnsPoly, RnsPoly> Evaluator::apply_kswitch(const sp::AlignedVec<u64>& digits, int c,
                                                     const KSwitchKey& key, u64 g) const {
  check_kswitch_key(key);
  const std::size_t n = ctx_->n(), block = static_cast<std::size_t>(c) * n;
  const std::vector<std::uint32_t>& perm = galois_ntt_table(n, g);
  const auto permute = [&](int t, u64* rows) {
    const u64* prime = digits.data() + static_cast<std::size_t>(t) * block;
    for (std::size_t r = 0; r < block; r += n)
      for (std::size_t j = 0; j < n; ++j) rows[r + j] = prime[r + perm[j]];
  };
  RnsPoly r0(ctx_, c, /*with_special=*/true, /*ntt_form=*/true);
  RnsPoly r1(ctx_, c, /*with_special=*/true, /*ntt_form=*/true);
  key_inner_products(*ctx_, key, c, permute, r0.row(0), r1.row(0));
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
  auto [r0, r1] = apply_kswitch(ct.parts[2], rk);
  mod_down(r0, r1);
  ct.parts.pop_back();
  ct.parts[0].add_inplace(r0);
  ct.parts[1].add_inplace(r1);
  ++counters.relins;
}

void Evaluator::relinearize_rescale_inplace(Ciphertext& ct, const KSwitchKey& rk) const {
  sp::check(ct.size() == 3, "relinearize: ciphertext must have 3 parts");
  sp::check(ct.level() >= 1, "rescale: no levels remaining");
  // The switch input's coefficient form and both outputs (c + 1 rows each)
  // are all consumed here, so they live in the calling thread's scratch.
  const std::size_t c = static_cast<std::size_t>(ct.q_count()), n = ctx_->n();
  u64* d_coeff = scratch_rows(kSwitch, (3 * c + 2) * n);
  u64* r0 = d_coeff + c * n;
  u64* r1 = r0 + (c + 1) * n;
  apply_kswitch(ct.parts[2], rk, d_coeff, r0, r1);
  ct.parts.pop_back();
  const int last = ct.q_count() - 1;
  divide_by_special_and_last({&ct.parts[0], &ct.parts[1]}, {r0, r1}, counters);
  for (auto& part : ct.parts) part.drop_last_q();
  ct.scale /= static_cast<double>(ctx_->q(last).value());
  ++counters.relins;
  ++counters.rescales;
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
  const KSwitchKey& key = galois_key(gk, steps, g);
  // The decomposition commutes with the automorphism: lifting is
  // coefficient-wise and X -> X^g is a signed coefficient permutation, so
  // switching the permuted c1 equals switching permuted digits of c1, bit
  // for bit (what a hoisted rotation does).
  Ciphertext out = finish_rotation(apply_kswitch(apply_galois_ntt(ct.parts[1], g), key), ct, g);
  ++counters.rotations;
  return out;
}

Ciphertext Evaluator::finish_rotation(std::pair<RnsPoly, RnsPoly> r, const Ciphertext& src,
                                      u64 g) const {
  auto& [r0, r1] = r;
  mod_down(r0, r1);
  // c0 rotates as the same pure NTT-domain permutation (no NTT round-trip).
  const std::vector<std::uint32_t>& table = galois_ntt_table(ctx_->n(), g);
  const RnsPoly& c0 = src.parts[0];
  const std::size_t n = ctx_->n();
  for (int t = 0; t < r0.row_count(); ++t) {
    const Modulus& m = r0.row_mod(t);
    u64* dst = r0.row(t);
    const u64* row = c0.row(t);
    for (std::size_t j = 0; j < n; ++j) dst[j] = m.add(dst[j], row[table[j]]);
  }

  Ciphertext out;
  out.parts.push_back(std::move(r0));
  out.parts.push_back(std::move(r1));
  out.scale = src.scale;
  return out;
}

std::vector<Ciphertext> Evaluator::rotate_hoisted(const Ciphertext& ct,
                                                  const std::vector<int>& steps,
                                                  const GaloisKeys& gk) const {
  sp::check(ct.size() == 2, "rotate_hoisted: relinearize first");
  const sp::AlignedVec<u64> digits = decompose_digits(ct.parts[1]);
  std::vector<Ciphertext> out;
  out.reserve(steps.size());
  for (int s : steps) {
    const u64 g = galois_element(ctx_->n(), s);
    if (g == 1) {
      out.push_back(ct);
      continue;
    }
    const KSwitchKey& key = galois_key(gk, s, g);
    // Permuting the cached NTT-form digits equals decomposing the rotated
    // ciphertext, at zero additional NTTs.
    out.push_back(finish_rotation(apply_kswitch(digits, ct.q_count(), key, g), ct, g));
    ++counters.rotations;
    ++counters.hoisted_rotations;
  }
  return out;
}

}  // namespace sp::fhe
