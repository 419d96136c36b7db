#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/session_registry.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace sp::serve {

/// AsyncExecutor configuration: packing geometry, batching deadline and
/// admission bound.
struct ExecutorConfig {
  /// Slots reserved per request (requests wider than this are rejected by
  /// the pipeline's own width checks; shorter requests zero-pad client-side).
  int input_size = 1;
  /// Requests packed into one ciphertext per flush (1 = the unbatched
  /// one-request-per-ciphertext baseline: no packing rotations at all).
  /// Bounded by slot_count / input_size per session at plan time.
  int group_capacity = 8;
  /// Oldest-request age that forces a flush even when the group is short.
  /// This is the latency the first request of a quiet period pays for the
  /// chance of being amortized; groups also flush the moment they fill.
  std::chrono::milliseconds deadline{20};
  /// Admission bound: submit() rejects (never blocks, never drops silently)
  /// once this many requests are pending.
  std::size_t max_queue = 64;
};

/// Synchronous verdict of AsyncExecutor::submit. A rejected request never
/// enters the queue; `reason` says why (saturation, level/scale mismatch).
struct Admission {
  bool accepted = false;
  std::uint64_t id = 0;  ///< ticket id, valid when accepted
  std::string reason;    ///< empty when accepted
};

/// Why a group left the queue.
enum class FlushReason : std::uint8_t {
  Full = 0,      ///< group_capacity requests were waiting
  Deadline = 1,  ///< the oldest request aged past cfg.deadline
  Drain = 2,     ///< stop() flushed the remainder
};

/// Terminal outcome of one accepted request, delivered exactly once on the
/// executor's worker thread. Every accepted request gets one — completed or
/// failed with its id — so the transport layer can answer every ticket; no
/// work is dropped silently.
struct Outcome {
  enum class Kind : std::uint8_t { Completed = 0, Failed = 1 };
  Kind kind = Kind::Failed;
  std::uint64_t id = 0;
  std::uint64_t client_id = 0;
  fhe::Ciphertext result;  ///< Completed: the request's (masked) output slice
  std::string error;       ///< Failed: what the evaluation threw
  int batch_size = 0;      ///< requests in the group this one rode in
  FlushReason flush = FlushReason::Full;
};

/// Monotonic executor counters (snapshot via AsyncExecutor::stats).
struct ExecutorStats {
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t rejected = 0;   ///< refused at admission
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t flush_full = 0;
  std::uint64_t flush_deadline = 0;
  std::uint64_t flush_drain = 0;
};

/// Deadline-batched, multi-tenant FHE request executor.
///
/// Connections submit encrypted requests; a single worker thread packs up to
/// `group_capacity` same-session requests into ONE ciphertext, runs the
/// pipeline once, and splits the packed output back into per-request
/// responses. A group flushes when it fills or when its oldest request ages
/// past the deadline, whichever comes first — the classic
/// throughput-vs-latency dial of batched serving. Groups never span
/// sessions: ciphertexts under different tenants' keys cannot share slots,
/// so multi-tenancy means the worker interleaves one tenant's group after
/// another's, not mixed packing. The same holds for one tenant across a
/// reopen: the old and new Session hold different keys, so their queued
/// requests flush in separate groups.
///
/// Packing is a chained rotate-and-add (Horner) layout that needs only TWO
/// Galois keys regardless of group size: with s = input_size,
///
///   packed = req[k-1]; for b = k-2 .. 0: packed = rotate(packed, -s) + req[b]
///
/// leaves request b's slots at offset b*s having used only the step -s key;
/// extraction walks back with the step +s key (response b is the packed
/// output rotated left b times by s). A per-offset fan would need a key per
/// batch position — hundreds of MB per tenant at serving depths — while this
/// layout ships two keys and pays ~2 extra rotations per request, which the
/// pipeline's once-per-group cost dwarfs.
///
/// Every response slice is multiplied by a 0/1 mask so slots past the
/// request's output width — which still hold neighbouring requests' data
/// under the shared batch key — decrypt to zero. That costs one plaintext
/// mult + rescale per response, so a session's chain needs one level beyond
/// the pipeline's depth.
///
/// The Plan (and the mask/capacity validation that goes with it) depends
/// only on the executor's pipeline and config and on the session's parameter
/// set, so it is computed on first use and cached by params fingerprint: a
/// tenant that reopens under other parameters is planned and checked again,
/// and tenants sharing a parameter set share one plan. Call
/// required_rotation_steps() during the handshake to tell the tenant which
/// Galois keys to upload: the plan's fans plus the packing steps {-s, +s}.
class AsyncExecutor {
 public:
  using OutcomeCallback = std::function<void(Outcome)>;

  /// @brief Takes ownership of the pipeline every session's requests run.
  /// @param on_outcome  invoked once per accepted request, on the worker
  ///                    thread; must not call back into the executor
  AsyncExecutor(smartpaf::FhePipeline pipeline, ExecutorConfig cfg,
                OutcomeCallback on_outcome);
  /// Stops the worker, flushing everything still queued (FlushReason::Drain).
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  /// @brief Admission-controlled enqueue. Validates the request ciphertext
  /// (2 parts, full level, the context's scale) and the queue bound; a
  /// rejection is synchronous and final (no Outcome follows), an acceptance
  /// guarantees exactly one Outcome later.
  Admission submit(std::shared_ptr<Session> session, fhe::Ciphertext request);

  /// @brief Flushes the queue and joins the worker; idempotent. Every
  /// still-pending request is evaluated (FlushReason::Drain) before the
  /// worker exits, so no accepted ticket is left unanswered.
  void stop();

  /// @brief The rotation steps `session`'s tenant must provide Galois keys
  /// for: the planned pipeline fans plus the packing steps {-s, +s} (the
  /// latter only when group_capacity > 1). Plans (and caches) the schedule
  /// for the session's parameter set on first call; throws sp::Error when
  /// the chain cannot hold the pipeline plus the response mask.
  std::vector<int> required_rotation_steps(Session& session);

  ExecutorStats stats() const;
  std::size_t pending() const;
  const ExecutorConfig& config() const { return cfg_; }
  const smartpaf::FhePipeline& pipeline() const { return pipeline_; }

  /// @brief Test seam: invoked with a group's ticket ids right before its
  /// evaluation; a throwing hook fails the group exactly like an evaluation
  /// error (every id gets a Failed outcome). Set before submitting.
  void set_eval_hook(std::function<void(const std::vector<std::uint64_t>&)> hook) {
    eval_hook_ = std::move(hook);
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::shared_ptr<Session> session;
    fhe::Ciphertext request;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();
  /// Collects the head session's group (up to group_capacity requests of
  /// that same Session object) off the queue. Caller holds mu_.
  std::vector<Pending> take_group();
  /// Pack -> run -> extract -> per-request outcomes; never throws (failures
  /// become Failed outcomes).
  void evaluate_group(std::vector<Pending> group, FlushReason reason);
  /// The plan for one parameter set, cached by fingerprint.
  const smartpaf::Plan& plan_for(Session& session);

  smartpaf::FhePipeline pipeline_;
  ExecutorConfig cfg_;
  OutcomeCallback on_outcome_;
  std::function<void(const std::vector<std::uint64_t>&)> eval_hook_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  std::uint64_t next_id_ = 1;
  ExecutorStats stats_;

  std::mutex plan_mu_;
  std::unordered_map<std::uint64_t, smartpaf::Plan> plans_;

  std::thread worker_;
};

}  // namespace sp::serve
