#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace sp {

/// FNV-1a mixing, shared by every content-fingerprint producer (diagonal
/// matmul plaintext keys, compaction masks, conv weight masks) so the
/// constants live in exactly one place.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * kFnvPrime;
}

inline std::uint64_t fnv_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return fnv_mix(h, bits);
}

inline std::uint64_t fnv_doubles(std::uint64_t h, const std::vector<double>& v) {
  for (double d : v) h = fnv_double(h, d);
  return h;
}

}  // namespace sp
