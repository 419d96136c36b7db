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
  int log_n = 0;
  while ((1ULL << log_n) < n) ++log_n;

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
    const std::size_t e = bit_reverse(i, log_n);
    roots_[i] = pw[e];
    roots_shoup_[i] = shoup_precompute(roots_[i], q);
    inv_roots_[i] = pwi[e];
    inv_roots_shoup_[i] = shoup_precompute(inv_roots_[i], q);
  }
  n_inv_ = mod_.inv(static_cast<u64>(n % q));
  n_inv_shoup_ = shoup_precompute(n_inv_, q);
}

void NttTables::forward(u64* a) const {
  simd::kernels().ntt_forward(a, n_, roots_.data(), roots_shoup_.data(), mod_.value());
}

void NttTables::inverse(u64* a) const {
  simd::kernels().ntt_inverse(a, n_, inv_roots_.data(), inv_roots_shoup_.data(), n_inv_,
                              n_inv_shoup_, mod_.value());
}

namespace {

void check_jobs(const std::vector<NttJob>& jobs) {
  // Each job is checked in order, so the first job's tables are known to be
  // non-null before a later job compares its ring size with them.
  for (const NttJob& j : jobs)
    sp::check(j.tables != nullptr && j.data != nullptr &&
                  j.tables->n() == jobs[0].tables->n(),
              "ntt batch: null job or mixed ring sizes");
}

}  // namespace

void ntt_forward_batch(const std::vector<NttJob>& jobs) {
  check_jobs(jobs);
  sp::parallel_for(0, jobs.size(),
                   [&](std::size_t i) { jobs[i].tables->forward(jobs[i].data); });
}

void ntt_inverse_batch(const std::vector<NttJob>& jobs) {
  check_jobs(jobs);
  sp::parallel_for(0, jobs.size(),
                   [&](std::size_t i) { jobs[i].tables->inverse(jobs[i].data); });
}

}  // namespace sp::fhe
