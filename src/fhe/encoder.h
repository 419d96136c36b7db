#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "fhe/rns_poly.h"

namespace sp::fhe {

/// CKKS plaintext: an RNS ring element (kept in NTT form) with its scale.
struct Plaintext {
  RnsPoly poly;
  double scale = 1.0;
  int q_count() const { return poly.q_count(); }
};

/// The one rounding rule for a broadcast scalar: the integer constant
/// llround(value * scale) that encode_scalar() encodes and
/// Evaluator::multiply_scalar_inplace() multiplies by. Throws sp::Error
/// when value * scale is NaN or not below 4.6e18 in magnitude.
std::int64_t scalar_coefficient(double value, double scale);

/// CKKS encoder: canonical-embedding packing of N/2 real slots.
///
/// Slot j corresponds to evaluation of the plaintext polynomial at the
/// primitive 2N-th root zeta^(5^j); with that ordering the Galois
/// automorphism X -> X^(5^r) cyclically rotates slots by r. Encoding runs
/// one complex FFT of size 2N; decoding CRT-recomposes the RNS residues with
/// Garner's algorithm (valid while |coefficient| < 2^62, i.e. rescale down
/// before decoding very large scales).
class Encoder {
 public:
  explicit Encoder(const CkksContext& ctx);

  std::size_t slot_count() const { return ctx_->slot_count(); }

  /// Packs `values` (size <= slot_count; remaining slots zero) at the given
  /// scale into a plaintext with `q_count` chain primes.
  Plaintext encode(const std::vector<double>& values, double scale, int q_count) const;

  /// Broadcast-encodes one scalar into all slots: the constant polynomial
  /// scalar_coefficient(value, scale), written straight into NTT form (a
  /// constant's NTT is that constant in every slot), so no FFT and no NTT
  /// runs. To multiply by a scalar, Evaluator::multiply_scalar_inplace()
  /// needs no plaintext.
  Plaintext encode_scalar(double value, double scale, int q_count) const;

  /// @brief Content-addressed encode cache for plaintexts that recur across
  /// evaluations — matrix diagonals, compaction masks, conv weight masks.
  ///
  /// The first call for a (key, scale, q_count) triple runs `make`, encodes
  /// the slot vector it returns and caches the plaintext; later calls return
  /// the cached entry without re-running `make` or the FFT, so repeat
  /// evaluations skip both the O(slots) vector construction and the
  /// encoding. `key` is the caller's content fingerprint (e.g. a
  /// hash of the diagonal's coefficients and position): the cache trusts it,
  /// so two different value vectors under one key would alias — derive keys
  /// from everything that determines the vector. The scale keys on its IEEE
  /// bit pattern: bitwise-equal scales hit, anything else is a distinct
  /// entry (never a near-miss alias).
  ///
  /// The returned shared_ptr PINS the entry: it stays valid for as long as
  /// the caller holds it, even across clear_encode_cache() or the store's
  /// self-limiting flush — both only drop the cache's own reference. This is
  /// what makes the cache safe to consult from an evaluation thread while
  /// another thread drives concurrent cache traffic.
  std::shared_ptr<const Plaintext> encode_cached(
      std::uint64_t key, double scale, int q_count,
      const std::function<std::vector<double>()>& make) const;

  /// @brief Drops the cache's own reference to every entry (outstanding
  /// encode_cached pins keep their plaintexts alive).
  void clear_encode_cache() const;

  /// @brief Entries currently held by the encode_cached store.
  std::size_t encode_cache_size() const;

  /// Inverse of encode() for a decrypted plaintext.
  std::vector<double> decode(const Plaintext& pt) const;

  /// @brief Packs B independent request vectors into one strided slot vector.
  ///
  /// Request b occupies slots [b*stride, b*stride + inputs[b].size());
  /// unused slots stay zero. This is the client-side batching layout: one
  /// ciphertext carries every request, so each SIMD evaluator op serves all
  /// of them at once (plan the pipeline with `PlanOptions::pack_stride` =
  /// stride so width-changing stages tile per request).
  ///
  /// @param inputs  per-request value vectors, each of size <= stride
  /// @param stride  slots reserved per request (inputs.size() * stride must
  ///                fit in slot_count)
  /// @param slot_count  total slots of the target ciphertext (N/2)
  /// @return flat slot vector of size slot_count, ready for encode()
  static std::vector<double> pack_slots(const std::vector<std::vector<double>>& inputs,
                                        std::size_t stride, std::size_t slot_count);

  /// @brief Inverse of pack_slots: splits a decoded slot vector back into
  /// per-request slices.
  ///
  /// @param slots   decoded flat slot vector
  /// @param stride  slots per request (same value given to pack_slots)
  /// @param count   number of requests to extract
  /// @param len     values to keep per request (defaults to the full stride)
  /// @return `count` vectors of size `len` (len = 0 means stride)
  static std::vector<std::vector<double>> unpack_slots(const std::vector<double>& slots,
                                                       std::size_t stride,
                                                       std::size_t count,
                                                       std::size_t len = 0);

 private:
  /// In-place radix-2 complex FFT of size 2N; `invert` flips the kernel sign.
  void fft(std::vector<std::complex<double>>& a, bool invert) const;

  /// Centered CRT recomposition of one coefficient across `level+1` primes.
  std::int64_t crt_centered(const std::vector<u64>& residues, int q_count) const;

  const CkksContext* ctx_;
  // encode_cached store: (caller key, scale bit pattern, q_count) ->
  // shared_ptr pin. The scale keys on its raw IEEE-754 bits so two scales
  // are the same entry iff they are bitwise equal; shared ownership keeps
  // handed-out entries alive across flushes (mutex-guarded for concurrent
  // callers).
  mutable std::mutex cache_mu_;
  mutable std::map<std::tuple<std::uint64_t, std::uint64_t, int>,
                   std::shared_ptr<const Plaintext>>
      pt_cache_;
  std::vector<std::size_t> rot_group_;            // 5^j mod 2N
  std::vector<std::complex<double>> twiddles_;    // e^(2*pi*i*k/(2N))
  // Garner precomputation: prod_q_mod_[k][j] = (q_0...q_{k-1}) mod q_j,
  // prod_q_wrap_[k] = (q_0...q_{k-1}) mod 2^64, prod_q_ld_[k] long double.
  std::vector<std::vector<u64>> prod_q_mod_;
  std::vector<u64> prod_q_wrap_;
  std::vector<long double> prod_q_ld_;
};

}  // namespace sp::fhe
