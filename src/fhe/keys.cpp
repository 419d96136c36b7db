#include "fhe/keys.h"

#include <mutex>
#include <utility>

#include "common/check.h"

namespace sp::fhe {

KeyGenerator::KeyGenerator(const CkksContext& ctx, std::uint64_t seed)
    : ctx_(&ctx), rng_(seed) {
  const int L = ctx_->q_count();
  sk_.s_coeff = RnsPoly(ctx_, L, /*with_special=*/true, /*ntt_form=*/false);
  sk_.s_coeff.sample_ternary(rng_);
  sk_.s_ntt = sk_.s_coeff;
  sk_.s_ntt.to_ntt();
}

PublicKey KeyGenerator::public_key() {
  const int L = ctx_->q_count();
  RnsPoly a(ctx_, L, false, true);
  a.sample_uniform(rng_);
  RnsPoly e(ctx_, L, false, false);
  e.sample_gaussian(rng_, ctx_->params().noise_stddev);
  e.to_ntt();

  // p0 = -a*s + e (restrict s to the Q basis rows).
  RnsPoly p0 = a;
  for (int i = 0; i < L; ++i) {
    const Modulus& m = p0.row_mod(i);
    u64* r = p0.row(i);
    const u64* s = sk_.s_ntt.row(i);
    for (std::size_t j = 0; j < p0.n(); ++j) r[j] = m.mul(r[j], s[j]);
  }
  p0.negate_inplace();
  p0.add_inplace(e);
  return PublicKey{std::move(p0), std::move(a)};
}

KSwitchKey KeyGenerator::make_kswitch_key(const RnsPoly& w_ntt) {
  const int L = ctx_->q_count();
  sp::check(w_ntt.q_count() == L && w_ntt.has_special() && w_ntt.is_ntt(),
            "make_kswitch_key: w must be NTT over the full basis");
  KSwitchKey key;
  key.digits.resize(static_cast<std::size_t>(L));
  for (int i = 0; i < L; ++i) {
    RnsPoly a(ctx_, L, true, true);
    a.sample_uniform(rng_);
    RnsPoly e(ctx_, L, true, false);
    e.sample_gaussian(rng_, ctx_->params().noise_stddev);
    e.to_ntt();

    RnsPoly k0 = a;
    k0.mul_inplace(sk_.s_ntt);
    k0.negate_inplace();
    k0.add_inplace(e);
    // Add P * w on the i-th prime row only (CRT indicator of q_i).
    const Modulus& m = ctx_->q(i);
    const u64 p_mod_qi = ctx_->p_mod(i);
    u64* r = k0.row(i);
    const u64* w = w_ntt.row(i);
    for (std::size_t j = 0; j < k0.n(); ++j)
      r[j] = m.add(r[j], m.mul(p_mod_qi, w[j]));
    key.digits[static_cast<std::size_t>(i)] = {std::move(k0), std::move(a)};
  }
  return key;
}

KSwitchKey KeyGenerator::relin_key() {
  RnsPoly s2 = sk_.s_ntt;
  s2.mul_inplace(sk_.s_ntt);
  return make_kswitch_key(s2);
}

GaloisKeys KeyGenerator::galois_keys(const std::vector<int>& steps) {
  GaloisKeys out;
  for (int s : steps) {
    const u64 g = galois_element(ctx_->n(), s);
    if (out.keys.count(g)) continue;
    RnsPoly sg = apply_galois(sk_.s_coeff, g);
    sg.to_ntt();
    out.keys.emplace(g, make_kswitch_key(sg));
  }
  return out;
}

namespace {

std::vector<std::uint32_t> build_galois_ntt_table(std::size_t n, u64 galois_elt) {
  int log_n = 0;
  while ((std::size_t(1) << log_n) < n) ++log_n;
  const auto brev = [log_n](std::size_t v) {
    std::size_t r = 0;
    for (int b = 0; b < log_n; ++b) {
      r = (r << 1) | (v & 1);
      v >>= 1;
    }
    return r;
  };
  const std::size_t two_n = 2 * n;
  std::vector<std::uint32_t> table(n);
  for (std::size_t j = 0; j < n; ++j) {
    // Slot j evaluates at exponent e = 2*brev(j)+1; X -> X^g sends it to the
    // slot holding exponent e*g mod 2n (odd, since g is odd).
    const std::size_t e = ((2 * brev(j) + 1) * galois_elt) % two_n;
    table[j] = static_cast<std::uint32_t>(brev((e - 1) / 2));
  }
  return table;
}

}  // namespace

u64 galois_element(std::size_t n, int steps) {
  const u64 two_n = 2 * n;
  const int half = static_cast<int>(n / 2);  // slot count; ord(5) mod 2n
  int r = steps % half;
  if (r < 0) r += half;
  u64 g = 1;
  for (u64 base = 5 % two_n; r > 0; r >>= 1, base = base * base % two_n)
    if (r & 1) g = g * base % two_n;
  return g;
}

const std::vector<std::uint32_t>& galois_ntt_table(std::size_t n, u64 galois_elt) {
  // Rotation-heavy layers re-request the same few (n, g) tables constantly;
  // std::map nodes are stable, so the reference survives later inserts.
  static std::mutex mu;
  static std::map<std::pair<std::size_t, u64>, std::vector<std::uint32_t>> cache;
  std::lock_guard<std::mutex> lk(mu);
  auto it = cache.find({n, galois_elt});
  if (it == cache.end())
    it = cache.emplace(std::make_pair(n, galois_elt),
                       build_galois_ntt_table(n, galois_elt)).first;
  return it->second;
}

RnsPoly apply_galois_ntt(const RnsPoly& ntt_poly, u64 galois_elt) {
  sp::check(ntt_poly.is_ntt(), "apply_galois_ntt: expects NTT form");
  const std::size_t n = ntt_poly.n();
  const std::vector<std::uint32_t>& table = galois_ntt_table(n, galois_elt);
  RnsPoly out(ntt_poly.context(), ntt_poly.q_count(), ntt_poly.has_special(),
              /*ntt_form=*/true, RnsPoly::kUnwritten);
  for (int r = 0; r < ntt_poly.row_count(); ++r) {
    const u64* src = ntt_poly.row(r);
    u64* dst = out.row(r);
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[table[j]];
  }
  return out;
}

RnsPoly apply_galois(const RnsPoly& coeff_poly, u64 galois_elt) {
  sp::check(!coeff_poly.is_ntt(), "apply_galois: expects coefficient form");
  const std::size_t n = coeff_poly.n();
  const std::size_t two_n = 2 * n;
  RnsPoly out(coeff_poly.context(), coeff_poly.q_count(), coeff_poly.has_special(),
              /*ntt_form=*/false);
  for (int r = 0; r < coeff_poly.row_count(); ++r) {
    const Modulus& m = coeff_poly.row_mod(r);
    const u64* src = coeff_poly.row(r);
    u64* dst = out.row(r);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = (i * galois_elt) % two_n;
      if (idx < n)
        dst[idx] = src[i];
      else
        dst[idx - n] = m.neg(src[i]);  // X^n = -1
    }
  }
  return out;
}

}  // namespace sp::fhe
