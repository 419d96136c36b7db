#include "fhe/ntt.h"

#include "common/check.h"
#include "common/thread_pool.h"
#include "fhe/primes.h"
#include "fhe/simd/simd.h"

namespace sp::fhe {
namespace {

std::size_t bit_reverse(std::size_t v, int bits) {
  std::size_t r = 0;
  for (int i = 0; i < bits; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

}  // namespace

NttTables::NttTables(std::size_t n, Modulus mod) : n_(n), mod_(mod) {
  // n = 1 and n = 2 are degenerate but valid negacyclic rings (the butterfly
  // loops simply run zero / one stage); they matter for edge-case coverage.
  sp::check(n >= 1 && (n & (n - 1)) == 0, "NttTables: n must be a power of two");
  log_n_ = 0;
  while ((1ULL << log_n_) < n) ++log_n_;

  const u64 q = mod_.value();
  const u64 psi = find_primitive_root(q, 2 * n);
  const u64 psi_inv = mod_.inv(psi);

  roots_.resize(n);
  roots_shoup_.resize(n);
  inv_roots_.resize(n);
  inv_roots_shoup_.resize(n);
  // psi^i by iterated multiplication — O(n) multiplies instead of the
  // O(n log n) of a per-index square-and-multiply — scattered into the
  // bit-reversed slots. Every product is fully reduced, so the values match
  // mod_.pow(psi, e) exactly.
  std::vector<u64> pw(n), pwi(n);
  pw[0] = 1;
  pwi[0] = 1;
  for (std::size_t i = 1; i < n; ++i) {
    pw[i] = mod_.mul(pw[i - 1], psi);
    pwi[i] = mod_.mul(pwi[i - 1], psi_inv);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t e = bit_reverse(i, log_n_);
    roots_[i] = pw[e];
    roots_shoup_[i] = shoup_precompute(roots_[i], q);
    inv_roots_[i] = pwi[e];
    inv_roots_shoup_[i] = shoup_precompute(inv_roots_[i], q);
  }
  n_inv_ = mod_.inv(static_cast<u64>(n % q));
  n_inv_shoup_ = shoup_precompute(n_inv_, q);
}

void NttTables::forward_stage_part(u64* a, int s, std::size_t b, std::size_t off,
                                   std::size_t len) const {
  const std::size_t m = static_cast<std::size_t>(1) << s;
  const std::size_t t = n_ >> (s + 1);
  u64* x = a + b * 2 * t + off;
  simd::kernels().fwd_butterfly(x, x + t, len, roots_[m + b], roots_shoup_[m + b],
                                mod_.value());
}

void NttTables::forward_tail(u64* a_sub, std::size_t sub, std::size_t split) const {
  const std::size_t L = n_ / split;
  const u64 q = mod_.value();
  const simd::Kernels& k = simd::kernels();
  // Local stage with ml blocks is global stage with split*ml blocks; the
  // twiddles of sub-transform `sub` sit contiguously at ml*(split+sub).
  std::size_t tl = L >> 1;
  for (std::size_t ml = 1; ml < L; ml <<= 1) {
    const std::size_t base = ml * (split + sub);
    k.fwd_stage(a_sub, tl, ml, roots_.data() + base, roots_shoup_.data() + base, q);
    tl >>= 1;
  }
  k.reduce_4q(a_sub, L, q);
}

void NttTables::inverse_head(u64* a_sub, std::size_t sub, std::size_t split) const {
  const std::size_t L = n_ / split;
  const u64 q = mod_.value();
  const simd::Kernels& k = simd::kernels();
  std::size_t tl = 1;
  for (std::size_t ml = L; ml > 1; ml >>= 1) {
    const std::size_t h = ml >> 1;
    const std::size_t base = h * (split + sub);
    k.inv_stage(a_sub, tl, h, inv_roots_.data() + base, inv_roots_shoup_.data() + base,
                q);
    tl <<= 1;
  }
}

void NttTables::inverse_stage_part(u64* a, int s, std::size_t b, std::size_t off,
                                   std::size_t len) const {
  const std::size_t h = static_cast<std::size_t>(1) << (s - 1);
  const std::size_t t = n_ >> s;
  u64* x = a + b * 2 * t + off;
  simd::kernels().inv_butterfly(x, x + t, len, inv_roots_[h + b],
                                inv_roots_shoup_[h + b], mod_.value());
}

void NttTables::inverse_scale(u64* a, std::size_t len) const {
  simd::kernels().mul_shoup(a, a, len, n_inv_, n_inv_shoup_, mod_.value());
}

void NttTables::forward(u64* a) const {
  simd::kernels().ntt_forward(a, n_, roots_.data(), roots_shoup_.data(), mod_.value());
}

void NttTables::inverse(u64* a) const {
  simd::kernels().ntt_inverse(a, n_, inv_roots_.data(), inv_roots_shoup_.data(), n_inv_,
                              n_inv_shoup_, mod_.value());
}

namespace {

/// Butterflies per phase task when a stage's blocks are tiled.
constexpr std::size_t kTile = 2048;
/// Smallest sub-transform worth splitting a row into: below this the
/// per-task and barrier overheads beat the parallelism.
constexpr std::size_t kMinSub = 512;

int log2_size(std::size_t v) {
  int s = 0;
  while ((static_cast<std::size_t>(1) << s) < v) ++s;
  return s;
}

/// Sub-row split factor: 1 when per-row parallelism already feeds the pool.
std::size_t pick_split(std::size_t rows, std::size_t n, int threads) {
  const std::size_t want = 2 * static_cast<std::size_t>(threads);
  if (threads <= 1 || rows >= want || n < 2 * kMinSub) return 1;
  std::size_t split = 1;
  while (rows * split < want && split < n / kMinSub) split <<= 1;
  return split;
}

std::size_t checked_common_n(const std::vector<NttJob>& jobs) {
  // A null first job fails the check below before anything reads from it.
  const std::size_t n = jobs[0].tables != nullptr ? jobs[0].tables->n() : 0;
  for (const NttJob& j : jobs)
    sp::check(j.tables != nullptr && j.data != nullptr && j.tables->n() == n,
              "ntt batch: null job or mixed ring sizes");
  return n;
}

}  // namespace

void ntt_forward_batch(const std::vector<NttJob>& jobs) {
  const std::size_t R = jobs.size();
  if (R == 0) return;
  const std::size_t n = checked_common_n(jobs);
  const std::size_t split = pick_split(R, n, ThreadPool::global().threads());
  if (split == 1) {
    sp::parallel_for(0, R, [&](std::size_t i) { jobs[i].tables->forward(jobs[i].data); });
    return;
  }
  // Phase A: the first log2(split) stages; blocks (and tiles within a block)
  // are independent, with one barrier per stage.
  const int head_stages = log2_size(split);
  for (int s = 0; s < head_stages; ++s) {
    const std::size_t blocks = static_cast<std::size_t>(1) << s;
    const std::size_t t = n >> (s + 1);
    const std::size_t tiles = t >= kTile ? t / kTile : 1;
    const std::size_t len = t / tiles;
    sp::parallel_for(0, R * blocks * tiles, [&](std::size_t u) {
      const std::size_t r = u / (blocks * tiles);
      const std::size_t rem = u % (blocks * tiles);
      jobs[r].tables->forward_stage_part(jobs[r].data, s, rem / tiles,
                                         (rem % tiles) * len, len);
    });
  }
  // Phase B: rows x split independent sub-transforms (incl. final reduction).
  const std::size_t L = n / split;
  sp::parallel_for(0, R * split, [&](std::size_t u) {
    const std::size_t r = u / split;
    const std::size_t sub = u % split;
    jobs[r].tables->forward_tail(jobs[r].data + sub * L, sub, split);
  });
}

void ntt_inverse_batch(const std::vector<NttJob>& jobs) {
  const std::size_t R = jobs.size();
  if (R == 0) return;
  const std::size_t n = checked_common_n(jobs);
  const std::size_t split = pick_split(R, n, ThreadPool::global().threads());
  if (split == 1) {
    sp::parallel_for(0, R, [&](std::size_t i) { jobs[i].tables->inverse(jobs[i].data); });
    return;
  }
  // Phase A: rows x split independent inverse heads.
  const std::size_t L = n / split;
  sp::parallel_for(0, R * split, [&](std::size_t u) {
    const std::size_t r = u / split;
    const std::size_t sub = u % split;
    jobs[r].tables->inverse_head(jobs[r].data + sub * L, sub, split);
  });
  // Phase B: the log2(split) joining stages, largest block count first.
  for (int s = log2_size(split); s >= 1; --s) {
    const std::size_t blocks = static_cast<std::size_t>(1) << (s - 1);
    const std::size_t t = n >> s;
    const std::size_t tiles = t >= kTile ? t / kTile : 1;
    const std::size_t len = t / tiles;
    sp::parallel_for(0, R * blocks * tiles, [&](std::size_t u) {
      const std::size_t r = u / (blocks * tiles);
      const std::size_t rem = u % (blocks * tiles);
      jobs[r].tables->inverse_stage_part(jobs[r].data, s, rem / tiles,
                                         (rem % tiles) * len, len);
    });
  }
  // Phase C: the 1/n scaling, tiled.
  const std::size_t tiles = n >= kTile ? n / kTile : 1;
  const std::size_t len = n / tiles;
  sp::parallel_for(0, R * tiles, [&](std::size_t u) {
    const std::size_t r = u / tiles;
    jobs[r].tables->inverse_scale(jobs[r].data + (u % tiles) * len, len);
  });
}

}  // namespace sp::fhe
