// CKKS substrate microbenchmarks:
//   1) per-kernel dispatch-tier sweep at N = 8192 (fwd/inv NTT, ns/butterfly,
//      elementwise GB/s and the key-switch inner product over 11 digits, at
//      a 60-bit and at a 40-bit chain prime, for scalar vs AVX2 vs AVX-512
//      vs AVX-512 IFMA, whose transforms, mul_mod, mul_shoup and key inner
//      product differ from AVX-512's only below 2^50); each figure is the
//      10th percentile of 41 samples, the tiers alternating sample by
//      sample, each sample starting at the next tier, so a noise burst on a
//      shared host hits every tier alike and no tier always runs first,
//   2) batched-NTT thread scaling at chain lengths {3, 8, 13} (the sub-row
//      split keeps short chains from capping usable threads at row count),
//   3) the runtime-level scaling table (1/2/4/8 threads x ring sizes): a
//      ct-ct multiply with relinearize_rescale_inplace and its forward NTTs,
//      and the hoisted-vs-naive rotation columns.
// Writes bench_out/fhe_micro.json. If bench/baselines/fhe_micro.json exists
// (the CI smoke ships it), the run FAILS when a vector tier's forward-NTT,
// inverse-NTT, mul_mod, mul_shoup or key-inner-product speedup over scalar
// (at either prime) drops below the recorded minimum.
//
// Usage: bench_fhe_micro [quick]   ("quick" restricts ring sizes / grid)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "fhe/simd/simd.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

double median_ms(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// 10th percentile: the time a kernel takes when the host lets it run,
/// which a burst of noise on a shared host moves far less than the median.
double p10_ms(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 10];
}

template <typename Fn>
double time_op(int reps, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    times.push_back(t.ms());
  }
  return median_ms(times);
}

/// Pulls `"key": <number>` out of a flat JSON object; NaN when absent.
double json_number(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return std::nan("");
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct TierRow {
  simd::Tier tier = simd::Tier::kScalar;
  double fwd_ntt_ms = 0.0;      // one forward transform, N = 8192, 60-bit q
  double inv_ntt_ms = 0.0;      // one inverse transform
  double fwd_ntt40_ms = 0.0;    // the same at a 40-bit chain prime
  double inv_ntt40_ms = 0.0;
  double fwd_ns_per_bfly = 0.0; // fwd_ntt over (N/2)*log2(N) butterflies
  double mul_mod_gbs = 0.0;     // elementwise Barrett multiply
  double add_mod_gbs = 0.0;
  double mul_shoup_gbs = 0.0;
  double mul_mod40_gbs = 0.0;   // the same at the 40-bit prime
  double mul_shoup40_gbs = 0.0;
  double fwd_speedup = 1.0;     // vs the scalar row
  double inv_speedup = 1.0;     // vs the scalar row
  double fwd40_speedup = 1.0;   // vs the scalar row, 40-bit prime
  double inv40_speedup = 1.0;
  double mul_mod40_speedup = 1.0;
  double mul_shoup40_speedup = 1.0;
  double kswitch_ms = 0.0;      // key_inner_product, 11 digits x 2 key parts
  double kswitch_speedup = 1.0; // vs the scalar row
  double kswitch40_ms = 0.0;    // the same at the 40-bit prime
  double kswitch40_speedup = 1.0;
};

struct ChainRow {
  int chain = 0;
  int threads = 0;
  double roundtrip_ms = 0.0;  // batched from_ntt + to_ntt of a chain-row poly
};

struct ScalingRow {
  std::size_t n = 0;
  int threads = 0;
  double ntt_roundtrip_ms = 0.0;  // full-chain RnsPoly inverse + forward NTT
  double mult_ms = 0.0;        // ct-ct multiply + relinearize_rescale_inplace
  std::size_t ntts_mult = 0;   // its forward NTTs: c^2 + 2c - 2 at c primes
  double rot_naive_ms = 0.0;   // per rotation, 8-step fan, fresh decompositions
  double rot_hoisted_ms = 0.0; // per rotation, 8-step fan, shared decomposition
  std::size_t ntts_naive = 0;  // forward NTTs for the naive fan
  std::size_t ntts_hoisted = 0;
};

std::vector<TierRow> run_tier_sweep() {
  constexpr std::size_t kN = 8192;
  const int log_n = 13;
  const u64 q = generate_ntt_primes(60, 1, kN)[0];
  const Modulus mod(q);
  const NttTables tables(kN, mod);
  // Most of a request's kernel calls run on the 40-bit chain primes, where
  // the IFMA tier's own kernels apply.
  const u64 q40 = generate_ntt_primes(40, 1, kN)[0];
  const Modulus mod40(q40);
  const NttTables tables40(kN, mod40);
  sp::Rng rng(11);
  std::vector<u64> base(kN), other(kN), row40(kN), a40(kN), other40(kN);
  for (auto& x : base) x = rng.next_u64() % q;
  for (auto& x : other) x = rng.next_u64() % q;
  for (auto& x : row40) x = rng.next_u64() % q40;
  for (auto& x : a40) x = rng.next_u64() % q40;
  for (auto& x : other40) x = rng.next_u64() % q40;
  const u64 w = rng.next_u64() % q;
  const u64 ws = shoup_precompute(w, q);
  const u64 w40 = rng.next_u64() % q40;
  const u64 ws40 = shoup_precompute(w40, q40);
  // Key switch at the top of paf_relu's chain: 11 digit rows against two key
  // parts, 64-byte aligned like RnsPoly rows, at each prime.
  constexpr std::size_t kDigits = 11;
  std::vector<sp::AlignedVec<u64>> ks_rows(3 * kDigits, sp::AlignedVec<u64>(kN));
  std::vector<sp::AlignedVec<u64>> ks_rows40(3 * kDigits, sp::AlignedVec<u64>(kN));
  std::vector<const u64*> ks_ptrs, ks_ptrs40;
  for (auto& r : ks_rows) {
    for (auto& x : r) x = rng.next_u64() % q;
    ks_ptrs.push_back(r.data());
  }
  for (auto& r : ks_rows40) {
    for (auto& x : r) x = rng.next_u64() % q40;
    ks_ptrs40.push_back(r.data());
  }
  std::vector<u64> ks_out0(kN), ks_out1(kN);
  const int iters = 8;     // calls per timed sample, so samples are well above 0.1 ms
  const int samples = 41;  // per kernel and tier

  std::vector<simd::Tier> tiers;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512,
                       simd::Tier::kAvx512Ifma})
    if (simd::tier_supported(t)) tiers.push_back(t);
  // Transform outputs and elementwise results stay < q, so every kernel
  // iterates in place on one buffer without re-initialisation.
  std::vector<u64> a = base;
  enum {
    kFwd, kInv, kFwd40, kInv40, kMulMod, kAddMod, kMulShoup, kKeyInner, kMulMod40,
    kMulShoup40, kKeyInner40, kKernelCount
  };
  const auto run = [&](int kernel, const simd::Kernels& k) {
    switch (kernel) {
      case kFwd: return tables.forward(a.data());
      case kInv: return tables.inverse(a.data());
      case kFwd40: return tables40.forward(row40.data());
      case kInv40: return tables40.inverse(row40.data());
      case kMulMod:
        return k.mul_mod(a.data(), other.data(), kN, q, mod.ratio_hi(), mod.ratio_lo());
      case kAddMod: return k.add_mod(a.data(), other.data(), kN, q);
      case kMulShoup: return k.mul_shoup(a.data(), kN, w, ws, q);
      case kKeyInner:
        return k.key_inner_product(ks_out0.data(), ks_out1.data(), ks_ptrs.data(),
                                   ks_ptrs.data() + kDigits, ks_ptrs.data() + 2 * kDigits,
                                   kDigits, kN, q, mod.ratio_hi(), mod.ratio_lo());
      case kMulMod40:
        return k.mul_mod(a40.data(), other40.data(), kN, q40, mod40.ratio_hi(),
                         mod40.ratio_lo());
      case kMulShoup40: return k.mul_shoup(a40.data(), kN, w40, ws40, q40);
      default:
        return k.key_inner_product(ks_out0.data(), ks_out1.data(), ks_ptrs40.data(),
                                   ks_ptrs40.data() + kDigits, ks_ptrs40.data() + 2 * kDigits,
                                   kDigits, kN, q40, mod40.ratio_hi(), mod40.ratio_lo());
    }
  };
  // ms[tier][kernel]: one per-call time per sample.
  std::vector<std::vector<std::vector<double>>> ms(
      tiers.size(), std::vector<std::vector<double>>(kKernelCount));
  const simd::Tier saved = simd::active_tier();
  for (int s = 0; s < samples; ++s) {
    // Sample s starts at tier s mod T, so each tier runs first in as many
    // samples as any other.
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      const std::size_t t = (static_cast<std::size_t>(s) + i) % tiers.size();
      simd::set_tier(tiers[t]);
      const simd::Kernels& k = simd::kernels();
      for (int kernel = 0; kernel < kKernelCount; ++kernel) {
        Timer timer;
        for (int i = 0; i < iters; ++i) run(kernel, k);
        ms[t][static_cast<std::size_t>(kernel)].push_back(timer.ms() / iters);
      }
    }
  }
  simd::set_tier(saved);

  // Elementwise throughput: two-operand kernels stream 3 words/element
  // (two loads + one store), one-operand kernels 2.
  const double two_op_gb = static_cast<double>(kN) * 3 * 8 / 1e9;
  const double one_op_gb = static_cast<double>(kN) * 2 * 8 / 1e9;
  std::vector<TierRow> rows;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    std::vector<std::vector<double>>& m = ms[t];
    TierRow row;
    row.tier = tiers[t];
    row.fwd_ntt_ms = p10_ms(m[kFwd]);
    row.inv_ntt_ms = p10_ms(m[kInv]);
    row.fwd_ntt40_ms = p10_ms(m[kFwd40]);
    row.inv_ntt40_ms = p10_ms(m[kInv40]);
    row.fwd_ns_per_bfly = row.fwd_ntt_ms * 1e6 / (static_cast<double>(kN / 2) * log_n);
    row.mul_mod_gbs = two_op_gb / (p10_ms(m[kMulMod]) / 1e3);
    row.add_mod_gbs = two_op_gb / (p10_ms(m[kAddMod]) / 1e3);
    row.mul_shoup_gbs = one_op_gb / (p10_ms(m[kMulShoup]) / 1e3);
    row.mul_mod40_gbs = two_op_gb / (p10_ms(m[kMulMod40]) / 1e3);
    row.mul_shoup40_gbs = one_op_gb / (p10_ms(m[kMulShoup40]) / 1e3);
    row.kswitch_ms = p10_ms(m[kKeyInner]);
    row.kswitch40_ms = p10_ms(m[kKeyInner40]);
    rows.push_back(row);
  }
  for (TierRow& r : rows) {
    r.fwd_speedup = rows.front().fwd_ntt_ms / std::max(r.fwd_ntt_ms, 1e-9);
    r.inv_speedup = rows.front().inv_ntt_ms / std::max(r.inv_ntt_ms, 1e-9);
    r.fwd40_speedup = rows.front().fwd_ntt40_ms / std::max(r.fwd_ntt40_ms, 1e-9);
    r.inv40_speedup = rows.front().inv_ntt40_ms / std::max(r.inv_ntt40_ms, 1e-9);
    r.mul_mod40_speedup = r.mul_mod40_gbs / std::max(rows.front().mul_mod40_gbs, 1e-9);
    r.mul_shoup40_speedup = r.mul_shoup40_gbs / std::max(rows.front().mul_shoup40_gbs, 1e-9);
    r.kswitch_speedup = rows.front().kswitch_ms / std::max(r.kswitch_ms, 1e-9);
    r.kswitch40_speedup = rows.front().kswitch40_ms / std::max(r.kswitch40_ms, 1e-9);
  }
  return rows;
}

std::vector<ChainRow> run_chain_scaling(bool quick) {
  // Chain-length thread scaling of the batched NTT: at a 3-prime chain the
  // old per-row dispatch capped useful threads at 3; the sub-row split keeps
  // feeding the pool.
  const std::size_t n = quick ? 4096 : 8192;
  const CkksContext ctx(CkksParams::for_depth(n, 12, 40));  // 13 chain primes
  const std::vector<int> chains = quick ? std::vector<int>{3, 8} : std::vector<int>{3, 8, 13};
  const std::vector<int> threads = quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int reps = 3;

  std::vector<ChainRow> rows;
  sp::Rng rng(23);
  for (int chain : chains) {
    RnsPoly poly(&ctx, chain, /*with_special=*/false, /*ntt_form=*/false);
    for (int i = 0; i < poly.row_count(); ++i) {
      const u64 qi = poly.row_mod(i).value();
      u64* r = poly.row(i);
      for (std::size_t j = 0; j < poly.n(); ++j) r[j] = rng.next_u64() % qi;
    }
    poly.to_ntt();
    for (int t : threads) {
      ThreadPool::set_global_threads(t);
      ChainRow row;
      row.chain = chain;
      row.threads = t;
      row.roundtrip_ms = time_op(reps, [&] {
        poly.from_ntt();
        poly.to_ntt();  // restores NTT form, reusable across reps
      });
      rows.push_back(row);
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{4096} : std::vector<std::size_t>{4096, 8192, 16384};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const std::vector<int> fan = {1, 2, 4, 8, -1, -2, -4, -8};
  const int reps = 3;
  bool ok = true;

  // --- Section 1: dispatch-tier kernel sweep (always N = 8192) ---
  const std::vector<TierRow> tier_rows = run_tier_sweep();
  Table tier_table({"tier", "fwd_ntt_ms", "inv_ntt_ms", "fwd_ns_per_bfly",
                    "fwd_speedup", "inv_speedup", "fwd_ntt40_ms", "inv_ntt40_ms",
                    "fwd40_speedup", "inv40_speedup", "mul_mod_GB_s", "add_mod_GB_s",
                    "mul_shoup_GB_s", "kswitch_ms", "kswitch_speedup", "mul_mod40_GB_s",
                    "mul_shoup40_GB_s", "mul_mod40_speedup", "mul_shoup40_speedup",
                    "kswitch40_ms", "kswitch40_speedup"});
  for (const TierRow& r : tier_rows)
    tier_table.add_row({simd::tier_name(r.tier), Table::num(r.fwd_ntt_ms, 4),
                        Table::num(r.inv_ntt_ms, 4), Table::num(r.fwd_ns_per_bfly, 2),
                        Table::num(r.fwd_speedup, 2), Table::num(r.inv_speedup, 2),
                        Table::num(r.fwd_ntt40_ms, 4), Table::num(r.inv_ntt40_ms, 4),
                        Table::num(r.fwd40_speedup, 2), Table::num(r.inv40_speedup, 2),
                        Table::num(r.mul_mod_gbs, 2),
                        Table::num(r.add_mod_gbs, 2), Table::num(r.mul_shoup_gbs, 2),
                        Table::num(r.kswitch_ms, 4), Table::num(r.kswitch_speedup, 2),
                        Table::num(r.mul_mod40_gbs, 2), Table::num(r.mul_shoup40_gbs, 2),
                        Table::num(r.mul_mod40_speedup, 2), Table::num(r.mul_shoup40_speedup, 2),
                        Table::num(r.kswitch40_ms, 4), Table::num(r.kswitch40_speedup, 2)});
  std::printf("[bench] kernel tiers at N=8192 (active default: %s)\n",
              simd::tier_name(simd::active_tier()));
  tier_table.print(std::cout);

  // --- Section 2: batched-NTT thread scaling at short chains ---
  const std::vector<ChainRow> chain_rows = run_chain_scaling(quick);
  Table chain_table({"chain", "threads", "ntt_roundtrip_ms", "scale_vs_t1"});
  {
    double t1 = 0.0;
    for (const ChainRow& r : chain_rows) {
      if (r.threads == 1) t1 = r.roundtrip_ms;
      chain_table.add_row({std::to_string(r.chain), std::to_string(r.threads),
                           Table::num(r.roundtrip_ms, 3),
                           Table::num(t1 / std::max(r.roundtrip_ms, 1e-9), 2)});
    }
  }
  std::printf("[bench] batched NTT chain-length scaling\n");
  chain_table.print(std::cout);

  // --- Section 3: runtime-level scaling rows ---
  std::vector<ScalingRow> rows;
  for (std::size_t n : ns) {
    // One runtime (keygen) per ring size, shared across thread settings; the
    // pool size only affects how the same work is dispatched.
    smartpaf::FheRuntime rt(CkksParams::for_depth(n, 6, 40), /*seed=*/2024);
    const auto gk_snapshot = rt.rotation_keys(fan);
    const GaloisKeys& gk = *gk_snapshot;
    sp::Rng rng(3);
    std::vector<double> v(rt.ctx().slot_count());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    const Ciphertext ct = rt.encrypt(v);
    Evaluator& ev = rt.evaluator();

    for (int threads : thread_counts) {
      ThreadPool::set_global_threads(threads);
      ScalingRow row;
      row.n = n;
      row.threads = threads;

      RnsPoly ntt_poly = ct.parts[0];  // copy outside the timed region
      row.ntt_roundtrip_ms = time_op(reps, [&] {
        ntt_poly.from_ntt();
        ntt_poly.to_ntt();  // restores NTT form, reusable across reps
      });
      ev.counters.reset();
      row.mult_ms = time_op(reps, [&] {
        Ciphertext c = ev.multiply(ct, ct);
        ev.relinearize_rescale_inplace(c, rt.relin_key());
      });
      row.ntts_mult = ev.counters.ntts_forward / static_cast<std::size_t>(reps);

      ev.counters.reset();
      row.rot_naive_ms = time_op(reps, [&] {
                           for (int s : fan) ev.rotate(ct, s, gk);
                         }) /
                         static_cast<double>(fan.size());
      row.ntts_naive = ev.counters.ntts_forward / static_cast<std::size_t>(reps);

      ev.counters.reset();
      row.rot_hoisted_ms = time_op(reps, [&] { ev.rotate_hoisted(ct, fan, gk); }) /
                           static_cast<double>(fan.size());
      row.ntts_hoisted = ev.counters.ntts_forward / static_cast<std::size_t>(reps);

      rows.push_back(row);
      std::printf("[bench] N=%zu threads=%d done\n", n, threads);
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());

  Table table({"N", "threads", "ntt_roundtrip_ms", "mult_relin_rescale_ms",
               "fwd_ntts_mult_relin_rescale", "rotate_naive_ms", "rotate_hoisted_ms",
               "hoist_speedup", "fwd_ntts_naive", "fwd_ntts_hoisted"});
  for (const ScalingRow& r : rows)
    table.add_row({std::to_string(r.n), std::to_string(r.threads), Table::num(r.ntt_roundtrip_ms, 3),
                   Table::num(r.mult_ms, 2), std::to_string(r.ntts_mult),
                   Table::num(r.rot_naive_ms, 2),
                   Table::num(r.rot_hoisted_ms, 2),
                   Table::num(r.rot_naive_ms / std::max(r.rot_hoisted_ms, 1e-9), 2),
                   std::to_string(r.ntts_naive), std::to_string(r.ntts_hoisted)});
  table.print(std::cout);

  // JSON trajectory for plotting across PRs.
  const std::string json_path = bench::out_dir() + "/fhe_micro.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"tiers\": [\n");
    for (std::size_t i = 0; i < tier_rows.size(); ++i) {
      const TierRow& r = tier_rows[i];
      std::fprintf(f,
                   "    {\"tier\": \"%s\", \"fwd_ntt_ms\": %.5f, \"inv_ntt_ms\": "
                   "%.5f, \"fwd_ns_per_butterfly\": %.3f, \"fwd_speedup\": %.3f, "
                   "\"inv_speedup\": %.3f, \"fwd_ntt40_ms\": %.5f, \"inv_ntt40_ms\": %.5f, "
                   "\"fwd40_speedup\": %.3f, \"inv40_speedup\": %.3f, "
                   "\"mul_mod_gbs\": %.3f, \"add_mod_gbs\": %.3f, "
                   "\"mul_shoup_gbs\": %.3f, \"kswitch_ms\": %.5f, "
                   "\"kswitch_speedup\": %.3f, \"mul_mod40_gbs\": %.3f, "
                   "\"mul_shoup40_gbs\": %.3f, \"mul_mod40_speedup\": %.3f, "
                   "\"mul_shoup40_speedup\": %.3f, \"kswitch40_ms\": %.5f, "
                   "\"kswitch40_speedup\": %.3f}%s\n",
                   simd::tier_name(r.tier), r.fwd_ntt_ms, r.inv_ntt_ms,
                   r.fwd_ns_per_bfly, r.fwd_speedup, r.inv_speedup, r.fwd_ntt40_ms,
                   r.inv_ntt40_ms, r.fwd40_speedup, r.inv40_speedup, r.mul_mod_gbs,
                   r.add_mod_gbs,
                   r.mul_shoup_gbs, r.kswitch_ms, r.kswitch_speedup, r.mul_mod40_gbs,
                   r.mul_shoup40_gbs, r.mul_mod40_speedup, r.mul_shoup40_speedup,
                   r.kswitch40_ms, r.kswitch40_speedup, i + 1 < tier_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"chain_scaling\": [\n");
    for (std::size_t i = 0; i < chain_rows.size(); ++i) {
      const ChainRow& r = chain_rows[i];
      std::fprintf(f,
                   "    {\"chain\": %d, \"threads\": %d, \"ntt_roundtrip_ms\": "
                   "%.4f}%s\n",
                   r.chain, r.threads, r.roundtrip_ms,
                   i + 1 < chain_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scaling\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& r = rows[i];
      std::fprintf(f,
                   "    {\"n\": %zu, \"threads\": %d, \"ntt_roundtrip_ms\": %.4f, "
                   "\"mult_relin_rescale_ms\": %.4f, \"fwd_ntts_mult_relin_rescale\": %zu, "
                   "\"rotate_naive_ms\": %.4f, \"rotate_hoisted_ms\": %.4f, "
                   "\"fwd_ntts_naive\": %zu, \"fwd_ntts_hoisted\": %zu}%s\n",
                   r.n, r.threads, r.ntt_roundtrip_ms, r.mult_ms, r.ntts_mult, r.rot_naive_ms,
                   r.rot_hoisted_ms, r.ntts_naive, r.ntts_hoisted, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  // Sanity: hoisting must never lose to the naive fan on forward NTTs.
  for (const ScalingRow& r : rows)
    if (r.ntts_hoisted >= r.ntts_naive) {
      std::printf("[bench] FAIL: hoisting did not reduce forward NTTs at N=%zu\n", r.n);
      ok = false;
    }

  // Regression gate against the recorded baseline, when present: each vector
  // tier the binary+CPU support must keep its forward-NTT, inverse-NTT,
  // mul_mod, mul_shoup and key-inner-product speedups over the scalar tier
  // above the recorded floors (a missing floor is no gate).
  for (const char* path :
       {"bench/baselines/fhe_micro.json", "../bench/baselines/fhe_micro.json"}) {
    std::ifstream in(path);
    if (!in) continue;
    std::stringstream ss;
    ss << in.rdbuf();
    for (const TierRow& r : tier_rows) {
      if (r.tier == simd::Tier::kScalar) continue;
      const struct {
        const char* key;
        const char* label;
        double speedup;
      } gates[] = {{"min_fwd_ntt_speedup_", "fwd-NTT", r.fwd_speedup},
                   {"min_inv_ntt_speedup_", "inv-NTT", r.inv_speedup},
                   {"min_fwd_ntt40_speedup_", "40-bit fwd-NTT", r.fwd40_speedup},
                   {"min_inv_ntt40_speedup_", "40-bit inv-NTT", r.inv40_speedup},
                   {"min_kswitch_speedup_", "key-inner-product", r.kswitch_speedup},
                   {"min_mul_mod40_speedup_", "40-bit mul_mod", r.mul_mod40_speedup},
                   {"min_mul_shoup40_speedup_", "40-bit mul_shoup", r.mul_shoup40_speedup},
                   {"min_kswitch40_speedup_", "40-bit key-inner-product", r.kswitch40_speedup}};
      for (const auto& g : gates) {
        const double floor = json_number(ss.str(), g.key + std::string(simd::tier_name(r.tier)));
        if (std::isnan(floor)) continue;
        if (g.speedup < floor) {
          std::printf("[bench] FAIL: %s %s speedup %.2fx below baseline %.2fx (%s)\n",
                      simd::tier_name(r.tier), g.label, g.speedup, floor, path);
          ok = false;
        } else {
          std::printf("[bench] %s %s speedup %.2fx within baseline >= %.2fx (%s)\n",
                      simd::tier_name(r.tier), g.label, g.speedup, floor, path);
        }
      }
    }
    break;
  }

  std::printf("[bench] %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
