#include "fhe/encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace sp::fhe {

Encoder::Encoder(const CkksContext& ctx) : ctx_(&ctx) {
  const std::size_t n = ctx_->n();
  const std::size_t two_n = 2 * n;
  rot_group_.resize(n / 2);
  std::size_t p = 1;
  for (std::size_t j = 0; j < n / 2; ++j) {
    rot_group_[j] = p;
    p = (p * 5) % two_n;
  }
  twiddles_.resize(two_n);
  for (std::size_t k = 0; k < two_n; ++k) {
    const double ang = 2.0 * M_PI * static_cast<double>(k) / static_cast<double>(two_n);
    twiddles_[k] = {std::cos(ang), std::sin(ang)};
  }

  const int L = ctx_->q_count();
  prod_q_mod_.assign(static_cast<std::size_t>(L) + 1,
                     std::vector<u64>(static_cast<std::size_t>(L), 0));
  prod_q_wrap_.assign(static_cast<std::size_t>(L) + 1, 1);
  prod_q_ld_.assign(static_cast<std::size_t>(L) + 1, 1.0L);
  for (int j = 0; j < L; ++j) prod_q_mod_[0][static_cast<std::size_t>(j)] = 1;
  for (int k = 1; k <= L; ++k) {
    const u64 qk = ctx_->q(k - 1).value();
    prod_q_wrap_[static_cast<std::size_t>(k)] = prod_q_wrap_[static_cast<std::size_t>(k - 1)] * qk;
    prod_q_ld_[static_cast<std::size_t>(k)] =
        prod_q_ld_[static_cast<std::size_t>(k - 1)] * static_cast<long double>(qk);
    for (int j = 0; j < L; ++j) {
      const Modulus& m = ctx_->q(j);
      prod_q_mod_[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)] =
          m.mul(prod_q_mod_[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(j)],
                qk % m.value());
    }
  }
}

void Encoder::fft(std::vector<std::complex<double>>& a, bool invert) const {
  const std::size_t m = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= m; len <<= 1) {
    const std::size_t step = m / len;
    for (std::size_t i = 0; i < m; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        std::complex<double> w = twiddles_[k * step];
        if (!invert) w = std::conj(w);
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
      }
    }
  }
}

Plaintext Encoder::encode(const std::vector<double>& values, double scale,
                          int q_count) const {
  const std::size_t n = ctx_->n();
  const std::size_t two_n = 2 * n;
  sp::check(values.size() <= slot_count(), "Encoder::encode: too many values");
  sp::check(scale > 0, "Encoder::encode: scale must be positive");

  std::vector<std::complex<double>> v(two_n, {0.0, 0.0});
  for (std::size_t j = 0; j < values.size(); ++j) {
    const std::size_t k = rot_group_[j];
    v[k] = {values[j], 0.0};
    v[two_n - k] = {values[j], 0.0};  // conjugate of a real value
  }
  // c_i = (1/N) * sum_k v[k] * zeta^{-ik}  (forward-kernel FFT).
  fft(v, /*invert=*/false);

  std::vector<std::int64_t> coeffs(n);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = v[i].real() * inv_n * scale;
    sp::check(std::abs(c) < 4.6e18, "Encoder::encode: coefficient overflow; reduce scale");
    coeffs[i] = static_cast<std::int64_t>(std::llround(c));
  }
  Plaintext pt{RnsPoly(ctx_, q_count, /*with_special=*/false, /*ntt_form=*/false), scale};
  pt.poly.set_from_signed(coeffs);
  pt.poly.to_ntt();
  return pt;
}

std::int64_t scalar_coefficient(double value, double scale) {
  const double c = value * scale;
  sp::check(std::abs(c) < 4.6e18,
            "scalar coefficient overflow: |value * scale| is NaN or >= 4.6e18");
  return std::llround(c);
}

Plaintext Encoder::encode_scalar(double value, double scale, int q_count) const {
  const std::int64_t v = scalar_coefficient(value, scale);
  // A constant polynomial's NTT is that constant in every slot.
  Plaintext pt{RnsPoly(ctx_, q_count, /*with_special=*/false, /*ntt_form=*/true), scale};
  for (int i = 0; i < q_count; ++i)
    std::fill_n(pt.poly.row(i), ctx_->n(), pt.poly.row_mod(i).from_signed(v));
  return pt;
}

std::shared_ptr<const Plaintext> Encoder::encode_cached(
    std::uint64_t key, double scale, int q_count,
    const std::function<std::vector<double>()>& make) const {
  // Key the scale on its bit pattern: double-keyed ordering would make
  // scales produced by different arithmetic paths compare "close but
  // unequal" silently; raw bits make the hit/miss contract exact.
  std::uint64_t scale_bits = 0;
  std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
  const auto full_key = std::make_tuple(key, scale_bits, q_count);
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    const auto it = pt_cache_.find(full_key);
    if (it != pt_cache_.end()) return it->second;
    // Self-limit: a runaway caller (many distinct matrices) drops the
    // store's references instead of growing without bound. Entries pinned by
    // callers stay alive through their shared_ptr. The limit is generous:
    // one 784x784 matmul's diagonals plus masks stay far below it.
    if (pt_cache_.size() >= 8192) pt_cache_.clear();
  }
  // Encode outside the lock: the FFT is the expensive part, and holding the
  // mutex across it would stall every other thread's lookups in this cache.
  // Two threads racing the same cold key both encode; the loser's (equal)
  // entry is dropped when the winner's insertion is found below.
  auto pt = std::make_shared<const Plaintext>(encode(make(), scale, q_count));
  std::lock_guard<std::mutex> lock(cache_mu_);
  return pt_cache_.emplace(full_key, std::move(pt)).first->second;
}

void Encoder::clear_encode_cache() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  pt_cache_.clear();
}

std::size_t Encoder::encode_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return pt_cache_.size();
}

std::vector<double> Encoder::pack_slots(const std::vector<std::vector<double>>& inputs,
                                        std::size_t stride, std::size_t slot_count) {
  sp::check(stride >= 1, "Encoder::pack_slots: stride must be >= 1");
  sp::check(inputs.size() * stride <= slot_count,
            "Encoder::pack_slots: batch does not fit the slot budget");
  std::vector<double> flat(slot_count, 0.0);
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    sp::check(inputs[b].size() <= stride, "Encoder::pack_slots: input exceeds stride");
    for (std::size_t j = 0; j < inputs[b].size(); ++j) flat[b * stride + j] = inputs[b][j];
  }
  return flat;
}

std::vector<std::vector<double>> Encoder::unpack_slots(const std::vector<double>& slots,
                                                       std::size_t stride,
                                                       std::size_t count,
                                                       std::size_t len) {
  if (len == 0) len = stride;
  sp::check(len <= stride, "Encoder::unpack_slots: len exceeds stride");
  sp::check(count == 0 || (count - 1) * stride + len <= slots.size(),
            "Encoder::unpack_slots: slice range exceeds the slot vector");
  std::vector<std::vector<double>> out(count);
  for (std::size_t b = 0; b < count; ++b)
    out[b].assign(slots.begin() + static_cast<std::ptrdiff_t>(b * stride),
                  slots.begin() + static_cast<std::ptrdiff_t>(b * stride + len));
  return out;
}

std::int64_t Encoder::crt_centered(const std::vector<u64>& residues, int q_count) const {
  // Garner mixed-radix digits t_k; value = sum_k t_k * prod_{m<k} q_m.
  const auto L = static_cast<std::size_t>(q_count);
  std::vector<u64> t(L);
  for (std::size_t j = 0; j < L; ++j) {
    const Modulus& m = ctx_->q(static_cast<int>(j));
    u64 partial = 0;
    for (std::size_t k = 0; k < j; ++k)
      partial = m.add(partial, m.mul(t[k] % m.value(), prod_q_mod_[k][j]));
    t[j] = m.mul(m.sub(residues[j], partial), ctx_->garner_inv(static_cast<int>(j)));
  }
  // Exact low 64 bits and long-double magnitude for centering.
  u64 low = 0;
  long double v_ld = 0.0L;
  for (std::size_t k = 0; k < L; ++k) {
    low += t[k] * prod_q_wrap_[k];
    v_ld += static_cast<long double>(t[k]) * prod_q_ld_[k];
  }
  if (v_ld > prod_q_ld_[L] * 0.5L) low -= prod_q_wrap_[L];
  return static_cast<std::int64_t>(low);
}

std::vector<double> Encoder::decode(const Plaintext& pt) const {
  const std::size_t n = ctx_->n();
  const std::size_t two_n = 2 * n;
  RnsPoly poly = pt.poly;
  if (poly.is_ntt()) poly.from_ntt();
  const int L = poly.q_count();

  std::vector<std::complex<double>> c(two_n, {0.0, 0.0});
  std::vector<u64> residues(static_cast<std::size_t>(L));
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < L; ++j) residues[static_cast<std::size_t>(j)] = poly.row(j)[i];
    c[i] = {static_cast<double>(crt_centered(residues, L)) / pt.scale, 0.0};
  }
  // v_k = sum_i c_i * zeta^{+ik} (inverse-kernel FFT, no normalization).
  fft(c, /*invert=*/true);
  std::vector<double> out(slot_count());
  for (std::size_t j = 0; j < slot_count(); ++j) out[j] = c[rot_group_[j]].real();
  return out;
}

}  // namespace sp::fhe
