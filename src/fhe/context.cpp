#include "fhe/context.h"

#include <cmath>

#include "common/check.h"
#include "fhe/primes.h"

namespace sp::fhe {

CkksParams CkksParams::for_depth(std::size_t n, int depth, int scale_bits) {
  CkksParams p;
  p.poly_degree = n;
  p.q_bits.assign(1, 60);
  for (int i = 0; i < depth; ++i) p.q_bits.push_back(scale_bits);
  p.special_bits = 60;
  p.scale = std::ldexp(1.0, scale_bits);
  return p;
}

CkksParams CkksParams::test_small() {
  CkksParams p = for_depth(2048, 3, 30);
  p.q_bits[0] = 40;
  p.special_bits = 40;
  p.scale = std::ldexp(1.0, 30);
  return p;
}

CkksParams CkksParams::paper_paf() { return for_depth(32768, 12, 40); }

CkksContext::CkksContext(const CkksParams& params) : params_(params) {
  const std::size_t n = params_.poly_degree;
  sp::check(n >= 8 && (n & (n - 1)) == 0, "CkksContext: N must be a power of two");
  sp::check(!params_.q_bits.empty(), "CkksContext: empty modulus chain");
  // Below 3.19 ~ 8/sqrt(2 pi), the width the HE-standard security tables
  // assume, the error no longer hides the secret; above 2^56 (or NaN/inf)
  // llround in RnsPoly::sample_gaussian overflows and every error sample
  // is one known constant. Either way the public key gives the secret away.
  const double sigma = params_.noise_stddev;
  sp::check_fmt(std::isfinite(sigma) && sigma >= 3.19 && sigma <= 0x1p56,
                "CkksContext: noise_stddev ", sigma,
                " is outside [3.19, 2^56]; the public key would reveal the secret key");

  // Generate distinct primes; group requests by bit size to avoid collisions.
  std::vector<u64> taken;
  auto take = [&](int bits) {
    const auto got = generate_ntt_primes(bits, 1, n, taken);
    taken.push_back(got[0]);
    return got[0];
  };
  for (int bits : params_.q_bits) {
    const u64 q = take(bits);
    q_mods_.emplace_back(q);
  }
  special_mod_ = Modulus(take(params_.special_bits));
  sp::check(special_mod_.value() >= q_mods_.back().value(),
            "CkksContext: special prime should be at least as large as chain primes");

  for (const auto& m : q_mods_) q_ntt_.push_back(std::make_unique<NttTables>(n, m));
  special_ntt_ = std::make_unique<NttTables>(n, special_mod_);

  const int L = q_count();
  q_inv_mod_.assign(static_cast<std::size_t>(L), std::vector<u64>(static_cast<std::size_t>(L), 0));
  for (int last = 0; last < L; ++last) {
    for (int i = 0; i < L; ++i) {
      if (i == last) continue;
      q_inv_mod_[static_cast<std::size_t>(last)][static_cast<std::size_t>(i)] =
          q(i).inv(q(last).value() % q(i).value());
    }
  }
  p_inv_mod_.resize(static_cast<std::size_t>(L));
  p_mod_.resize(static_cast<std::size_t>(L));
  for (int i = 0; i < L; ++i) {
    p_mod_[static_cast<std::size_t>(i)] = special_mod_.value() % q(i).value();
    p_inv_mod_[static_cast<std::size_t>(i)] = q(i).inv(p_mod_[static_cast<std::size_t>(i)]);
  }
  garner_inv_.resize(static_cast<std::size_t>(L));
  for (int j = 0; j < L; ++j) {
    u64 prod = 1;
    for (int k = 0; k < j; ++k) prod = q(j).mul(prod, q(k).value() % q(j).value());
    garner_inv_[static_cast<std::size_t>(j)] = j == 0 ? 1 : q(j).inv(prod);
  }
}

u64 CkksContext::q_inv_mod(int last, int i) const {
  return q_inv_mod_[static_cast<std::size_t>(last)][static_cast<std::size_t>(i)];
}

}  // namespace sp::fhe
