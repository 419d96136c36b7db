#pragma once

#include <memory>
#include <mutex>

#include "fhe/poly_eval.h"
#include "smartpaf/replace.h"

namespace sp::smartpaf {

/// Bundles the full CKKS machinery for deployment/latency experiments:
/// context, keys, encoder, encryptor/decryptor, evaluator and the PAF
/// polynomial evaluator. Construction is expensive (keygen at large N);
/// reuse one runtime across measurements.
class FheRuntime {
 public:
  /// @brief Builds the whole CKKS stack: context, keygen (secret/public/
  /// relin keys), encoder, encryptor/decryptor, evaluator, PAF evaluator.
  /// @param params  CKKS parameter set (ring size, prime chain, scale)
  /// @param seed    keygen/encryption randomness (deterministic runs)
  explicit FheRuntime(const fhe::CkksParams& params, std::uint64_t seed = 2024);

  /// @brief Server-side runtime reconstructed purely from deserialized key
  /// material (the sp::io wire path): no keygen, no secret key, no
  /// decryptor. Evaluation, plan execution and public-key encryption all
  /// work; decrypt()/decryptor() throw, and rotation_keys() validates the
  /// supplied Galois keys instead of generating missing ones.
  ///
  /// Takes ownership of the context the key material was deserialized
  /// against: deserialized polynomials hold a pointer into that context, so
  /// the runtime must adopt it rather than build a second copy.
  /// @param ctx     context built from the client's deserialized params
  /// @param pk      client's public key (deserialized against *ctx)
  /// @param relin   client's relinearization key (deserialized against *ctx)
  /// @param galois  rotation keys covering the plan (may be extended later
  ///                by constructing a new runtime with a larger set)
  FheRuntime(std::unique_ptr<fhe::CkksContext> ctx, fhe::PublicKey pk,
             fhe::KSwitchKey relin, fhe::GaloisKeys galois);

  /// @brief The precomputed context shared by every component.
  const fhe::CkksContext& ctx() const { return *ctx_; }
  /// @brief Canonical-embedding encoder (N/2 real slots).
  fhe::Encoder& encoder() { return *encoder_; }
  /// @brief Public-key encryptor.
  fhe::Encryptor& encryptor() { return *encryptor_; }
  /// @brief Secret-key decryptor; throws when the runtime was built from
  /// public material only (has_secret_key() == false).
  fhe::Decryptor& decryptor();
  /// @brief Leveled evaluator (also owns the process-wide OpCounters tally).
  fhe::Evaluator& evaluator() { return *evaluator_; }
  /// @brief Polynomial/PAF evaluator bound to this runtime's relin key
  /// (BSGS, lazy relinearization). Other schedules construct their own.
  const fhe::PafEvaluator& paf_evaluator() const { return *paf_eval_; }
  /// @brief Relinearization key generated at construction (or deserialized).
  const fhe::KSwitchKey& relin_key() const { return *relin_; }
  /// @brief Public encryption key (serializable via sp::io).
  const fhe::PublicKey& public_key() const { return pk_; }
  /// @brief False for server-side runtimes built from public material only.
  bool has_secret_key() const { return decryptor_ != nullptr; }

  /// @brief Shared, deduplicated rotation-key store: generates keys only for
  /// steps whose Galois element is not yet covered, and returns an IMMUTABLE
  /// snapshot of the store by shared_ptr — the returned key set never
  /// mutates, so it stays valid (and race-free) for as long as the caller
  /// holds the pointer, even while other connections' threads extend the
  /// store concurrently. Extension installs a fresh snapshot under the store
  /// mutex (copying the map — rare: once per previously-unseen step set),
  /// which is what makes one runtime safe to share across an async serving
  /// executor's worker threads.
  /// Every pipeline stage and the serving executor's packing steps draw
  /// from this store, so a step needed by several stages pays keygen once.
  /// A keygen-less (server-side) runtime cannot mint keys: it validates
  /// coverage of its deserialized store and throws naming the missing steps.
  /// @param steps  slot offsets (positive = left); 0 and duplicates are fine
  std::shared_ptr<const fhe::GaloisKeys> rotation_keys(const std::vector<int>& steps);

  /// @brief Merges deserialized rotation keys into the shared store — the
  /// serving adoption path, where Galois keys arrive in a later handshake
  /// frame than the session-opening key material. Existing elements are
  /// replaced. Thread-safe; snapshots already handed out are unaffected.
  void add_rotation_keys(fhe::GaloisKeys keys);

  /// @brief Distinct Galois keys held by the shared rotation_keys() store.
  std::size_t rotation_key_count() const;

  /// @brief Lanes of the process-wide pool serving this runtime's hot loops
  /// (SMARTPAF_THREADS).
  int threads() const;

  /// @brief Encrypts a real vector at top level / default scale.
  /// @param values  up to slot_count() reals; remaining slots are zero
  fhe::Ciphertext encrypt(const std::vector<double>& values);

  /// @brief Decrypts + decodes back to one value per slot; throws when the
  /// runtime holds no secret key.
  /// @param ct  2-part ciphertext (relinearize 3-part results first)
  std::vector<double> decrypt(const fhe::Ciphertext& ct);

 private:
  std::unique_ptr<fhe::CkksContext> ctx_;
  std::unique_ptr<fhe::Encoder> encoder_;
  std::unique_ptr<fhe::KeyGenerator> keygen_;  ///< null: server-side runtime
  std::unique_ptr<fhe::KSwitchKey> relin_;
  fhe::PublicKey pk_;
  std::unique_ptr<fhe::Encryptor> encryptor_;
  std::unique_ptr<fhe::Decryptor> decryptor_;  ///< null: server-side runtime
  std::unique_ptr<fhe::Evaluator> evaluator_;
  std::unique_ptr<fhe::PafEvaluator> paf_eval_;
  /// rotation_keys() store: an immutable snapshot swapped wholesale under
  /// rot_mu_ on extension, so handed-out shared_ptrs stay stable.
  mutable std::mutex rot_mu_;
  std::shared_ptr<const fhe::GaloisKeys> rot_keys_;
};

/// Result of measuring one PAF-ReLU evaluation under CKKS.
struct PafLatencyResult {
  double ms_median = 0.0;  ///< wall-clock per PAF-ReLU over all slots
  fhe::EvalStats stats;    ///< op counts and levels consumed (first repeat)
  double max_error = 0.0;  ///< vs the plaintext PAF-ReLU reference
};

/// @brief Times the homomorphic PAF-ReLU (paper Table 4 / Fig. 1 latency
/// column): encrypts a random batch spanning [-input_scale, input_scale],
/// evaluates relu(x) ≈ 0.5 x (1 + paf(x/s)) `repeats` times and checks the
/// result against the plaintext computation.
/// @param rt           shared runtime (construction is the expensive part)
/// @param paf          sign-approximating composite PAF
/// @param input_scale  Static-Scaling running max (> 0)
/// @param repeats      repetitions (>= 1); each evaluates a fresh power
///                     basis, as serving does
/// @param seed         input randomness
/// @return median latency, op stats and max error
PafLatencyResult measure_paf_relu(FheRuntime& rt, const approx::CompositePaf& paf,
                                  double input_scale, int repeats = 3,
                                  std::uint64_t seed = 7);

/// Deployment report row for one PAF layer of a converted model.
struct DeployRow {
  std::string path;
  int depth = 0;
  double static_scale = 0.0;
  /// PAF calls per output: 1 for a ReLU; a max pool's tournament folds a
  /// full window's inputs with one call fewer.
  int paf_calls = 1;
  double ms = 0.0;  ///< one measured PAF-ReLU call times paf_calls
};

/// @brief Measures every PAF layer of a Static-Scaling model on the runtime
/// and returns per-layer rows (MaxPool layers report the per-pairwise-max
/// cost times the tournament size).
/// @param model    converted model whose PAF layers carry static scales
/// @param rt       shared runtime
/// @param repeats  repetitions per layer (>= 1)
std::vector<DeployRow> deployment_report(nn::Model& model, FheRuntime& rt,
                                         int repeats = 1);

}  // namespace sp::smartpaf
