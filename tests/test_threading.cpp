// ThreadPool unit tests plus the determinism contract of the parallel RNS
// backend: every FHE result and every op counter must be bit-identical for
// SMARTPAF_THREADS in {1, 2, 7}.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);  // distinct indices: no write races
  pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ZeroAndOneItemRanges) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, SerialPoolMatchesContract) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(0, 16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);  // exact serial path
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 8, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays serviceable after a throwing region.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, EnvThreadsIsAtLeastOne) { EXPECT_GE(ThreadPool::env_threads(), 1); }

TEST(ThreadPool, SetGlobalThreadsRejectsInFlightResize) {
  // Resizing the global pool while a parallel_for runs on it would destroy a
  // pool whose lanes are live; the precondition is enforced, not documented.
  ThreadPool::set_global_threads(3);  // quiescent: allowed
  bool threw = false;
  sp::parallel_for(0, 4, [&](std::size_t i) {
    if (i != 0) return;  // index 0 runs exactly once; single-lane write
    try {
      ThreadPool::set_global_threads(2);
    } catch (const sp::Error& e) {
      EXPECT_NE(std::string(e.what()).find("in flight"), std::string::npos);
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
  // The pool stays serviceable, and a quiescent resize works again.
  std::atomic<int> calls{0};
  sp::parallel_for(0, 10, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(EncoderCacheThreading, PinnedEntriesSurviveConcurrentFlush) {
  // Regression for the encode_cached lifetime race: the old API returned a
  // reference into the cache map, which concurrent cache traffic from
  // another thread (triggering the self-limit flush) could invalidate
  // mid-evaluation. The shared_ptr pin must keep every handed-out plaintext
  // alive and bit-stable across flushes. Run under TSan in CI.
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 3, 40), /*seed=*/7);
  const Encoder& enc = rt.encoder();
  const double scale = rt.ctx().scale();
  std::atomic<bool> stop{false};
  // Flusher thread: hammers clear + cold-key traffic concurrently.
  std::thread flusher([&] {
    std::uint64_t k = 1000;
    while (!stop.load()) {
      enc.clear_encode_cache();
      (void)enc.encode_cached(k++, scale, 2,
                              [&] { return std::vector<double>(8, 0.5); });
    }
  });
  // Evaluation thread: pins entries and reads them after arbitrary flushes.
  for (int iter = 0; iter < 300; ++iter) {
    const auto pt = enc.encode_cached(
        static_cast<std::uint64_t>(iter % 8), scale, 2,
        [&] { return std::vector<double>(8, 1.0); });
    ASSERT_TRUE(pt != nullptr);
    EXPECT_EQ(pt->scale, scale);
    EXPECT_EQ(pt->q_count(), 2);
    // Touch the polynomial storage — a use-after-free under the old API.
    EXPECT_LT(pt->poly.row(0)[0], rt.ctx().q(0).value());
  }
  stop.store(true);
  flusher.join();
}

/// One fixed FHE workload end to end; returns the flattened residues of the
/// produced ciphertexts plus a counters snapshot.
struct WorkloadResult {
  std::vector<u64> residues;
  OpCounters counters;
};

void flatten(const Ciphertext& ct, std::vector<u64>& out) {
  for (const auto& part : ct.parts)
    for (int r = 0; r < part.row_count(); ++r)
      out.insert(out.end(), part.row(r), part.row(r) + part.n());
}

WorkloadResult run_workload(int threads) {
  ThreadPool::set_global_threads(threads);
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 4, 40), /*seed=*/99);
  const auto gk_snapshot = rt.rotation_keys({1, 2});
  const GaloisKeys& gk = *gk_snapshot;

  sp::Rng rng(5);
  std::vector<double> v(rt.ctx().slot_count());
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt.encrypt(v);
  Evaluator& ev = rt.evaluator();
  ev.counters.reset();

  WorkloadResult res;
  // Square + relin + rescale, as two ops and as one.
  Ciphertext sq = ev.multiply(ct, ct);
  ev.relinearize_inplace(sq, rt.relin_key());
  ev.rescale_inplace(sq);
  flatten(sq, res.residues);
  Ciphertext fused = ev.multiply(ct, ct);
  ev.relinearize_rescale_inplace(fused, rt.relin_key());
  flatten(fused, res.residues);
  // Naive and hoisted rotations.
  flatten(ev.rotate(ct, 1, gk), res.residues);
  for (const Ciphertext& r : ev.rotate_hoisted(ct, {1, 2}, gk)) flatten(r, res.residues);
  // A BSGS polynomial evaluation (covers PowerBasis + lazy relin joins).
  sp::Rng crng(17);
  std::vector<double> coeffs(14);
  for (auto& c : coeffs) c = crng.uniform(-1.0, 1.0) / 14.0;
  const Ciphertext out =
      rt.paf_evaluator().eval_poly(ev, ct, approx::Polynomial(coeffs));
  flatten(out, res.residues);

  res.counters = ev.counters;
  return res;
}

TEST(ThreadingDeterminism, ResultsBitIdenticalAcrossThreadCounts) {
  const WorkloadResult ref = run_workload(1);
  ASSERT_FALSE(ref.residues.empty());
  for (int threads : {2, 7}) {
    const WorkloadResult got = run_workload(threads);
    ASSERT_EQ(got.residues.size(), ref.residues.size()) << threads << " threads";
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < ref.residues.size(); ++i)
      if (got.residues[i] != ref.residues[i]) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << threads << " threads";
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(ThreadingDeterminism, CountersThreadCountInvariant) {
  // The counter race fix (atomic tallies, per-digit increments inside the
  // parallel region) must make every tally independent of the lane count.
  const WorkloadResult ref = run_workload(1);
  for (int threads : {2, 7}) {
    const WorkloadResult got = run_workload(threads);
    EXPECT_EQ(got.counters.adds.load(), ref.counters.adds.load());
    EXPECT_EQ(got.counters.plain_mults.load(), ref.counters.plain_mults.load());
    EXPECT_EQ(got.counters.ct_mults.load(), ref.counters.ct_mults.load());
    EXPECT_EQ(got.counters.relins.load(), ref.counters.relins.load());
    EXPECT_EQ(got.counters.rescales.load(), ref.counters.rescales.load());
    EXPECT_EQ(got.counters.rotations.load(), ref.counters.rotations.load());
    EXPECT_EQ(got.counters.hoisted_rotations.load(),
              ref.counters.hoisted_rotations.load());
    EXPECT_EQ(got.counters.ntts_forward.load(), ref.counters.ntts_forward.load());
    EXPECT_EQ(got.counters.ntts_inverse.load(), ref.counters.ntts_inverse.load());
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(ThreadingDeterminism, ConcurrentCallersShareOneEvaluator) {
  // Key switches and exact divisions fill per-thread scratch rows: several
  // caller threads running relinearize, the fused relinearize + rescale
  // and rotations on one evaluator at once (while the pool's lanes fill
  // other output primes) must each get the serial result.
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 4, 40), /*seed=*/99);
  const auto gk = rt.rotation_keys({1, 2});
  sp::Rng rng(6);
  std::vector<double> v(rt.ctx().slot_count());
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt.encrypt(v);
  const Evaluator& ev = rt.evaluator();
  const auto work = [&] {
    std::vector<u64> out;
    Ciphertext sq = ev.multiply(ct, ct);
    ev.relinearize_inplace(sq, rt.relin_key());
    flatten(sq, out);
    Ciphertext fused = ev.multiply(ct, ct);
    ev.relinearize_rescale_inplace(fused, rt.relin_key());
    flatten(fused, out);
    flatten(ev.rotate(ct, 1, *gk), out);
    for (const Ciphertext& r : ev.rotate_hoisted(ct, {1, 2}, *gk)) flatten(r, out);
    return out;
  };
  const std::vector<u64> ref = work();
  std::vector<std::vector<u64>> got(3);
  std::vector<std::thread> callers;
  for (auto& g : got)
    callers.emplace_back([&work, &g] {
      for (int rep = 0; rep < 2; ++rep) g = work();
    });
  for (auto& t : callers) t.join();
  for (const auto& g : got) EXPECT_TRUE(g == ref);
}

}  // namespace
