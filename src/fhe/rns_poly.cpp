#include "fhe/rns_poly.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "fhe/ntt.h"
#include "fhe/simd/simd.h"

namespace sp::fhe {

RnsPoly::RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form)
    : RnsPoly(ctx, q_count, with_special, ntt_form, kUnwritten) {
  std::fill(data_.begin(), data_.end(), 0);
}

RnsPoly::RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form,
                 Unwritten)
    : ctx_(ctx), q_count_(q_count), with_special_(with_special), ntt_(ntt_form) {
  sp::check(ctx != nullptr, "RnsPoly: null context");
  sp::check(q_count >= 1 && q_count <= ctx->q_count(), "RnsPoly: bad q_count");
  data_.resize(static_cast<std::size_t>(row_count()) * ctx->n());
#ifndef NDEBUG
  std::fill(data_.begin(), data_.end(), ~u64{0});
#endif
}

const Modulus& RnsPoly::row_mod(int i) const {
  if (with_special_ && i == q_count_) return ctx_->special();
  return ctx_->q(i);
}

const NttTables& RnsPoly::row_ntt(int i) const {
  if (with_special_ && i == q_count_) return ctx_->special_ntt();
  return ctx_->ntt(i);
}

void RnsPoly::to_ntt() {
  sp::check(!ntt_, "RnsPoly::to_ntt: already in NTT form");
  std::vector<NttJob> jobs(static_cast<std::size_t>(row_count()));
  for (int i = 0; i < row_count(); ++i) jobs[static_cast<std::size_t>(i)] = {row(i), &row_ntt(i)};
  ntt_forward_batch(jobs);
  ntt_ = true;
}

void RnsPoly::from_ntt() {
  sp::check(ntt_, "RnsPoly::from_ntt: not in NTT form");
  std::vector<NttJob> jobs(static_cast<std::size_t>(row_count()));
  for (int i = 0; i < row_count(); ++i) jobs[static_cast<std::size_t>(i)] = {row(i), &row_ntt(i)};
  ntt_inverse_batch(jobs);
  ntt_ = false;
}

namespace {
void check_compatible(const RnsPoly& a, const RnsPoly& b) {
  sp::check(a.context() == b.context() && a.q_count() == b.q_count() &&
                a.has_special() == b.has_special() && a.is_ntt() == b.is_ntt(),
            "RnsPoly: incompatible operands");
}
}  // namespace

void RnsPoly::add_inplace(const RnsPoly& o) {
  check_compatible(*this, o);
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    k.add_mod(row(i) + off, row(i) + off, o.row(i) + off, len, row_mod(i).value());
  });
}

void RnsPoly::sub_inplace(const RnsPoly& o) {
  check_compatible(*this, o);
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    k.sub_mod(row(i) + off, row(i) + off, o.row(i) + off, len, row_mod(i).value());
  });
}

void RnsPoly::negate_inplace() {
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    k.neg_mod(row(i) + off, len, row_mod(i).value());
  });
}

void RnsPoly::mul_inplace(const RnsPoly& o) {
  check_compatible(*this, o);
  sp::check(ntt_, "RnsPoly::mul_inplace: requires NTT form");
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    const Modulus& m = row_mod(i);
    k.mul_mod(row(i) + off, row(i) + off, o.row(i) + off, len, m.value(), m.ratio_hi(),
              m.ratio_lo());
  });
}

void RnsPoly::drop_last_q() {
  sp::check(q_count_ >= 2, "RnsPoly::drop_last_q: cannot drop base prime");
  // Flat layout: removing chain row (q_count_-1) slides the special row (the
  // only row after it, when present) down one slot before shrinking.
  if (with_special_) {
    std::memmove(row(q_count_ - 1), row(q_count_), n() * sizeof(u64));
  }
  --q_count_;
  data_.resize(static_cast<std::size_t>(row_count()) * n());
}

void RnsPoly::drop_special() {
  sp::check(with_special_, "RnsPoly::drop_special: no special row");
  with_special_ = false;
  data_.resize(static_cast<std::size_t>(row_count()) * n());
}

void RnsPoly::set_from_signed(const std::vector<std::int64_t>& coeffs) {
  sp::check(coeffs.size() == n(), "RnsPoly::set_from_signed: size mismatch");
  sp::check(!ntt_, "RnsPoly::set_from_signed: expects coefficient form");
  for (int i = 0; i < row_count(); ++i) {
    const Modulus& m = row_mod(i);
    u64* a = row(i);
    for (std::size_t j = 0; j < n(); ++j) a[j] = m.from_signed(coeffs[j]);
  }
}

void RnsPoly::sample_ternary(sp::Rng& rng) {
  std::vector<std::int64_t> c(n());
  for (auto& v : c) v = rng.ternary();
  set_from_signed(c);
}

void RnsPoly::sample_gaussian(sp::Rng& rng, double stddev) {
  std::vector<std::int64_t> c(n());
  for (auto& v : c) v = static_cast<std::int64_t>(std::llround(rng.normal(0.0, stddev)));
  set_from_signed(c);
}

void RnsPoly::sample_uniform(sp::Rng& rng) {
  for (int i = 0; i < row_count(); ++i) {
    const Modulus& m = row_mod(i);
    u64* a = row(i);
    for (std::size_t j = 0; j < n(); ++j) {
      // Rejection-free 128-bit reduction keeps bias below 2^-64.
      a[j] = m.reduce128((static_cast<u128>(rng.next_u64()) << 64) | rng.next_u64());
    }
  }
}

}  // namespace sp::fhe
