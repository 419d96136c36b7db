// Runtime CPU dispatch for the SIMD kernel tiers (scalar < avx2 < avx512 <
// avx512ifma). The best tier is probed once (compiled-in table present AND
// the CPU reports the feature), the SMARTPAF_SIMD environment variable pins
// a tier for testing, and `set_tier` lets benches sweep tiers in-process.
// Selecting a tier never changes results — only throughput (the
// bit-identity contract is locked by tests/test_simd.cpp).
#include "fhe/simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sp::fhe::simd {
namespace {

bool cpu_supports(Tier t) {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Tier::kAvx512:
      // vpmullq needs DQ; F alone is not enough for the kernel set.
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
    case Tier::kAvx512Ifma:
      return cpu_supports(Tier::kAvx512) && __builtin_cpu_supports("avx512ifma");
  }
  return false;
#else
  return t == Tier::kScalar;
#endif
}

const Kernels* tier_table(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return detail::scalar_kernels();
    case Tier::kAvx2:
      return detail::avx2_kernels();
    case Tier::kAvx512:
      return detail::avx512_kernels();
    case Tier::kAvx512Ifma:
      return detail::avx512ifma_kernels();
  }
  return nullptr;
}

/// Best supported tier at or below `want`.
Tier clamp_supported(Tier want) {
  for (int t = static_cast<int>(want); t > 0; --t)
    if (tier_supported(static_cast<Tier>(t))) return static_cast<Tier>(t);
  return Tier::kScalar;
}

Tier probe_default() {
  if (const char* env = std::getenv("SMARTPAF_SIMD")) {
    bool ok = false;
    const Tier want = parse_tier(env, &ok);
    if (!ok) {
      std::fprintf(stderr,
                   "[smartpaf] SMARTPAF_SIMD=%s not in {scalar, avx2, avx512, avx512ifma}; "
                   "ignoring\n",
                   env);
    } else if (!tier_supported(want)) {
      const Tier got = clamp_supported(want);
      std::fprintf(stderr,
                   "[smartpaf] SMARTPAF_SIMD=%s unsupported on this CPU/build; "
                   "using %s\n",
                   env, tier_name(got));
      return got;
    } else {
      return want;
    }
  }
  return clamp_supported(Tier::kAvx512Ifma);
}

std::atomic<int>& tier_slot() {
  // Initialized on first use so the env probe happens after main() setup in
  // tests that setenv early; -1 = not probed yet.
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace

bool tier_supported(Tier t) { return tier_table(t) != nullptr && cpu_supports(t); }

Tier active_tier() {
  std::atomic<int>& slot = tier_slot();
  int cur = slot.load(std::memory_order_acquire);
  if (cur < 0) {
    const Tier probed = probe_default();
    // First caller wins; concurrent probes agree anyway (pure function).
    slot.compare_exchange_strong(cur, static_cast<int>(probed),
                                 std::memory_order_acq_rel);
    cur = slot.load(std::memory_order_acquire);
  }
  return static_cast<Tier>(cur);
}

const Kernels& kernels() { return *tier_table(active_tier()); }

bool set_tier(Tier t) {
  if (!tier_supported(t)) return false;
  active_tier();  // ensure probed so the slot is never left at -1
  tier_slot().store(static_cast<int>(t), std::memory_order_release);
  return true;
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx512Ifma:
      return "avx512ifma";
  }
  return "?";
}

Tier parse_tier(const char* s, bool* ok) {
  if (ok) *ok = true;
  if (s != nullptr) {
    if (std::strcmp(s, "scalar") == 0) return Tier::kScalar;
    if (std::strcmp(s, "avx2") == 0) return Tier::kAvx2;
    if (std::strcmp(s, "avx512") == 0) return Tier::kAvx512;
    if (std::strcmp(s, "avx512ifma") == 0) return Tier::kAvx512Ifma;
  }
  if (ok) *ok = false;
  return Tier::kScalar;
}

}  // namespace sp::fhe::simd
