// Serving-layer regression net: SessionRegistry LRU/fingerprint contracts,
// AsyncExecutor flush reasons (deadline vs group-full vs drain), admission
// control and backpressure, per-request outcome accounting on evaluation
// failure (a failed group loses only its own tickets), re-planning when a
// tenant reopens under other parameters, packed parity + response masking,
// the thread-safe rotation-key store (exercised under TSan in CI), and the
// seedless Encryptor's entropy seeding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "io/serialize.h"
#include "serve/async_executor.h"
#include "serve/session_registry.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"

namespace {

using namespace sp;
using namespace std::chrono_literals;

/// One client keygen runtime shared by every test (keygen dominates the
/// suite's cost); server-side sessions are derived from it THROUGH the wire
/// blobs, exactly like the serving handshake.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    client_ = std::make_unique<smartpaf::FheRuntime>(
        fhe::CkksParams::for_depth(2048, 3, 40), /*seed=*/2028);
  }
  static void TearDownTestSuite() { client_.reset(); }

  static std::shared_ptr<serve::Session> make_session(std::uint64_t id) {
    auto ctx = std::make_unique<fhe::CkksContext>(
        io::deserialize_params(io::serialize(client_->ctx().params())));
    fhe::PublicKey pk =
        io::deserialize_public_key(io::serialize(client_->public_key()), *ctx);
    fhe::KSwitchKey relin =
        io::deserialize_kswitch_key(io::serialize(client_->relin_key()), *ctx);
    return std::make_shared<serve::Session>(id, std::move(ctx), std::move(pk),
                                            std::move(relin), fhe::GaloisKeys{});
  }

  /// Opens a registry-held session built from `client`'s key material
  /// (the shared client by default).
  static std::shared_ptr<serve::Session> open_in(serve::SessionRegistry& reg,
                                                 std::uint64_t id,
                                                 const smartpaf::FheRuntime* client = nullptr) {
    if (client == nullptr) client = client_.get();
    auto ctx = std::make_unique<fhe::CkksContext>(
        io::deserialize_params(io::serialize(client->ctx().params())));
    fhe::PublicKey pk =
        io::deserialize_public_key(io::serialize(client->public_key()), *ctx);
    fhe::KSwitchKey relin =
        io::deserialize_kswitch_key(io::serialize(client->relin_key()), *ctx);
    return reg.open(id, std::move(ctx), std::move(pk), std::move(relin),
                    fhe::GaloisKeys{});
  }

  /// Encrypts under `client`'s keys (the shared client by default) and
  /// crosses the wire into the session's context.
  static fhe::Ciphertext request_for(serve::Session& session,
                                     const std::vector<double>& head_values,
                                     smartpaf::FheRuntime* client = nullptr) {
    if (client == nullptr) client = client_.get();
    std::vector<double> slots(client->ctx().slot_count(), 0.0);
    for (std::size_t i = 0; i < head_values.size(); ++i) slots[i] = head_values[i];
    return io::deserialize_ciphertext(io::serialize(client->encrypt(slots)),
                                      session.runtime().ctx());
  }

  /// The cheapest maskable pipeline: y = 2x + 0.5 (1 level + 1 for the mask,
  /// inside the depth-3 chain).
  static smartpaf::FhePipeline affine_pipeline() {
    return smartpaf::FhePipeline::builder().linear(2.0, 0.5).build();
  }

  static std::unique_ptr<smartpaf::FheRuntime> client_;
};

std::unique_ptr<smartpaf::FheRuntime> ServeTest::client_;

/// Collects outcomes and lets tests block until N arrived.
struct OutcomeSink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<serve::Outcome> outcomes;

  serve::AsyncExecutor::OutcomeCallback callback() {
    return [this](serve::Outcome o) {
      std::unique_lock<std::mutex> lock(mu);
      outcomes.push_back(std::move(o));
      lock.unlock();
      cv.notify_all();
    };
  }
  std::vector<serve::Outcome> wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    const bool got = cv.wait_for(lock, 30s, [&] { return outcomes.size() >= n; });
    sp::check(got, "OutcomeSink: timed out waiting for outcomes");
    return outcomes;
  }
};

// ---------------------------------------------------------------------------
// SessionRegistry
// ---------------------------------------------------------------------------

TEST_F(ServeTest, RegistryEvictsLeastRecentlyUsed) {
  serve::SessionRegistry reg(/*max_sessions=*/2);
  auto s1 = open_in(reg, 1);
  auto s2 = open_in(reg, 2);
  ASSERT_EQ(reg.size(), 2u);

  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_EQ(reg.find(1, s1->fingerprint()).get(), s1.get());
  open_in(reg, 3);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_THROW(reg.find(2, s2->fingerprint()), sp::Error);
  EXPECT_NO_THROW(reg.find(1, s1->fingerprint()));
  EXPECT_NO_THROW(reg.find(3, s1->fingerprint()));

  // The evicted session stays alive for whoever still holds the shared_ptr
  // (requests in flight keep evaluating against it).
  EXPECT_EQ(s2->client_id(), 2u);
}

TEST_F(ServeTest, RegistryRejectsFingerprintMismatch) {
  serve::SessionRegistry reg(4);
  auto s = open_in(reg, 9);
  EXPECT_NO_THROW(reg.find(9, s->fingerprint()));
  bool threw = false;
  try {
    reg.find(9, s->fingerprint() + 1);
  } catch (const sp::Error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
  EXPECT_TRUE(threw) << "mismatched fingerprint must throw";
}

TEST_F(ServeTest, RegistryReopenReplacesWithoutEviction) {
  serve::SessionRegistry reg(2);
  auto first = open_in(reg, 5);
  auto second = open_in(reg, 5);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.evictions(), 0u);
  EXPECT_EQ(reg.find(5, second->fingerprint()).get(), second.get());
  EXPECT_NE(first.get(), second.get());
}

TEST_F(ServeTest, RegistryCloseDropsSession) {
  serve::SessionRegistry reg(4);
  auto s = open_in(reg, 6);
  reg.close(6);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_THROW(reg.find(6, s->fingerprint()), sp::Error);
  EXPECT_NO_THROW(reg.close(12345));  // unknown ids are a no-op
}

// ---------------------------------------------------------------------------
// AsyncExecutor
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ExecutorFlushesOnDeadlineWhenGroupIsShort) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 4;
  cfg.deadline = 30ms;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  session->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*session))),
      session->runtime().ctx()));

  // Both ciphertexts exist before the first submit starts the deadline, so
  // a slow encryption cannot flush the first request alone.
  fhe::Ciphertext first = request_for(*session, {0.25});
  fhe::Ciphertext second = request_for(*session, {0.5});
  ASSERT_TRUE(exec.submit(session, std::move(first)).accepted);
  ASSERT_TRUE(exec.submit(session, std::move(second)).accepted);
  const auto outcomes = sink.wait_for(2);
  for (const serve::Outcome& o : outcomes) {
    EXPECT_EQ(o.kind, serve::Outcome::Kind::Completed);
    EXPECT_EQ(o.flush, serve::FlushReason::Deadline);
    EXPECT_EQ(o.batch_size, 2);
  }
  EXPECT_EQ(exec.stats().flush_deadline, 1u);
  EXPECT_EQ(exec.stats().flush_full, 0u);
}

TEST_F(ServeTest, ExecutorFlushesImmediatelyWhenGroupFills) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 3;
  cfg.deadline = 10s;  // a deadline flush would time the test out
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  session->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*session))),
      session->runtime().ctx()));

  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(exec.submit(session, request_for(*session, {0.1 * (i + 1)})).accepted);
  const auto outcomes = sink.wait_for(3);
  for (const serve::Outcome& o : outcomes) {
    EXPECT_EQ(o.kind, serve::Outcome::Kind::Completed);
    EXPECT_EQ(o.flush, serve::FlushReason::Full);
    EXPECT_EQ(o.batch_size, 3);
  }
  EXPECT_EQ(exec.stats().flush_full, 1u);
}

TEST_F(ServeTest, ExecutorStopDrainsPendingRequests) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 4;
  cfg.deadline = 10s;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  session->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*session))),
      session->runtime().ctx()));

  ASSERT_TRUE(exec.submit(session, request_for(*session, {0.75})).accepted);
  exec.stop();
  const auto outcomes = sink.wait_for(1);
  EXPECT_EQ(outcomes[0].kind, serve::Outcome::Kind::Completed);
  EXPECT_EQ(outcomes[0].flush, serve::FlushReason::Drain);
  // Post-stop submits are rejected, not queued.
  const serve::Admission late = exec.submit(session, request_for(*session, {0.1}));
  EXPECT_FALSE(late.accepted);
}

TEST_F(ServeTest, ExecutorBackpressureRejectsWithReason) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 8;
  cfg.deadline = 10s;  // nothing flushes while we probe the bound
  cfg.max_queue = 2;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  session->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*session))),
      session->runtime().ctx()));

  const fhe::Ciphertext req = request_for(*session, {0.5});
  ASSERT_TRUE(exec.submit(session, req).accepted);
  ASSERT_TRUE(exec.submit(session, req).accepted);
  const serve::Admission third = exec.submit(session, req);
  EXPECT_FALSE(third.accepted);
  EXPECT_NE(third.reason.find("saturated"), std::string::npos) << third.reason;
  EXPECT_EQ(exec.stats().rejected, 1u);
  exec.stop();  // both accepted requests still complete
  const auto outcomes = sink.wait_for(2);
  EXPECT_EQ(outcomes.size(), 2u);
}

TEST_F(ServeTest, ExecutorRejectsMalformedRequests) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);

  EXPECT_FALSE(exec.submit(nullptr, fhe::Ciphertext{}).accepted);
  const serve::Admission bad = exec.submit(session, fhe::Ciphertext{});
  EXPECT_FALSE(bad.accepted);
  EXPECT_NE(bad.reason.find("parts"), std::string::npos) << bad.reason;
  EXPECT_EQ(exec.stats().rejected, 2u);
}

TEST_F(ServeTest, ExecutorFailureReportsEveryLostId) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 3;
  cfg.deadline = 20ms;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  std::vector<std::uint64_t> hook_ids;
  exec.set_eval_hook([&](const std::vector<std::uint64_t>& ids) {
    hook_ids = ids;
    throw sp::Error("injected group failure");
  });

  std::set<std::uint64_t> submitted;
  const fhe::Ciphertext req = request_for(*session, {0.5});
  for (int i = 0; i < 3; ++i) {
    const serve::Admission adm = exec.submit(session, req);
    ASSERT_TRUE(adm.accepted);
    submitted.insert(adm.id);
  }
  const auto outcomes = sink.wait_for(3);
  std::set<std::uint64_t> failed;
  for (const serve::Outcome& o : outcomes) {
    EXPECT_EQ(o.kind, serve::Outcome::Kind::Failed);
    EXPECT_NE(o.error.find("injected group failure"), std::string::npos);
    failed.insert(o.id);
  }
  EXPECT_EQ(failed, submitted);  // every accepted ticket got its NACK
  EXPECT_EQ(std::set<std::uint64_t>(hook_ids.begin(), hook_ids.end()), submitted);
  EXPECT_EQ(exec.stats().failed, 3u);
  EXPECT_EQ(exec.stats().completed, 0u);
}

TEST_F(ServeTest, ExecutorFailureStaysInItsGroup) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 2;
  cfg.deadline = 10s;  // groups flush only when full: {1,2}, {3,4}, {5,6}
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  session->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*session))),
      session->runtime().ctx()));
  // Fail the group that holds the third ticket. Its id is published before
  // the fourth submit fills that group, so the hook always sees it in time.
  std::atomic<std::uint64_t> doomed{0};
  exec.set_eval_hook([&](const std::vector<std::uint64_t>& ids) {
    if (std::find(ids.begin(), ids.end(), doomed.load()) != ids.end())
      throw sp::Error("injected group failure");
  });

  sp::Rng rng(13);
  std::vector<double> values;
  std::vector<std::uint64_t> tickets;
  for (int i = 0; i < 6; ++i) {
    values.push_back(rng.uniform(-1.0, 1.0));
    const serve::Admission adm = exec.submit(session, request_for(*session, {values.back()}));
    ASSERT_TRUE(adm.accepted);
    tickets.push_back(adm.id);
    if (i == 2) doomed = adm.id;
  }
  sink.wait_for(6);
  exec.stop();  // nothing is left to flush, so no further outcome may arrive

  std::map<std::uint64_t, serve::Outcome> by_id;
  for (const serve::Outcome& o : sink.outcomes)
    EXPECT_TRUE(by_id.emplace(o.id, o).second) << "two outcomes for ticket " << o.id;
  ASSERT_EQ(by_id.size(), tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_EQ(by_id.count(tickets[i]), 1u) << "no outcome for request " << i + 1;
    const serve::Outcome& o = by_id.at(tickets[i]);
    EXPECT_EQ(o.batch_size, 2);
    if (i == 2 || i == 3) {
      EXPECT_EQ(o.kind, serve::Outcome::Kind::Failed) << "request " << i + 1;
      EXPECT_NE(o.error.find("injected group failure"), std::string::npos) << o.error;
      continue;
    }
    ASSERT_EQ(o.kind, serve::Outcome::Kind::Completed) << "request " << i + 1;
    const std::vector<double> got = client_->decrypt(
        io::deserialize_ciphertext(io::serialize(o.result), client_->ctx()));
    EXPECT_NEAR(got[0], 2.0 * values[i] + 0.5, 1e-4) << "request " << i + 1;
  }
  EXPECT_EQ(exec.stats().completed, 4u);
  EXPECT_EQ(exec.stats().failed, 2u);
}

TEST_F(ServeTest, ExecutorReplansASessionReopenedUnderOtherParameters) {
  // A plan belongs to a parameter set, not to a client id: a tenant that
  // reopens under a shorter chain must be planned (and here refused) again,
  // not served with the plan cached for its old chain.
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 1;
  cfg.deadline = 10s;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  serve::SessionRegistry reg(4);

  auto deep = open_in(reg, 1);
  EXPECT_TRUE(exec.required_rotation_steps(*deep).empty());
  ASSERT_TRUE(exec.submit(deep, request_for(*deep, {0.25})).accepted);
  const serve::Outcome served = sink.wait_for(1)[0];
  ASSERT_EQ(served.kind, serve::Outcome::Kind::Completed) << served.error;
  EXPECT_NEAR(client_->decrypt(io::deserialize_ciphertext(io::serialize(served.result),
                                                          client_->ctx()))[0],
              1.0, 1e-4);

  // Depth 1 holds the affine stage but not the response mask after it.
  smartpaf::FheRuntime shallow_client(fhe::CkksParams::for_depth(2048, 1, 40),
                                      /*seed=*/2030);
  auto shallow = open_in(reg, 1, &shallow_client);
  ASSERT_NE(shallow->fingerprint(), deep->fingerprint());
  const std::string cause = "response masking needs one level beyond the pipeline's 1";
  bool refused_at_handshake = false;
  try {
    exec.required_rotation_steps(*shallow);
  } catch (const sp::Error& e) {
    refused_at_handshake = true;
    EXPECT_NE(std::string(e.what()).find(cause), std::string::npos) << e.what();
  }
  EXPECT_TRUE(refused_at_handshake) << "the handshake accepted a chain with no level for the mask";

  // A request that skips the handshake fails with the same cause, not with a
  // rescale error partway through the evaluation.
  ASSERT_TRUE(exec.submit(shallow, request_for(*shallow, {0.25}, &shallow_client)).accepted);
  const serve::Outcome refused = sink.wait_for(2)[1];
  EXPECT_EQ(refused.kind, serve::Outcome::Kind::Failed);
  EXPECT_NE(refused.error.find(cause), std::string::npos) << refused.error;
}

TEST_F(ServeTest, ExecutorNeverPacksAReplacedSessionWithItsSuccessor) {
  // A reopen under new keys leaves the old session's requests queued beside
  // the new session's. They share a client id but not a key, so they must
  // ride in separate groups, each evaluated under its own session.
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 2;
  cfg.deadline = 10s;  // only stop() flushes a short group
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  serve::SessionRegistry reg(4);
  smartpaf::FheRuntime rekeyed(client_->ctx().params(), /*seed=*/2031);

  auto before = open_in(reg, 1);
  before->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*before))),
      before->runtime().ctx()));
  const serve::Admission first = exec.submit(before, request_for(*before, {0.25}));
  ASSERT_TRUE(first.accepted);

  auto after = open_in(reg, 1, &rekeyed);
  after->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*rekeyed.rotation_keys(exec.required_rotation_steps(*after))),
      after->runtime().ctx()));
  const serve::Admission second = exec.submit(after, request_for(*after, {0.5}, &rekeyed));
  ASSERT_TRUE(second.accepted);
  exec.stop();

  const auto outcomes = sink.wait_for(2);
  ASSERT_EQ(outcomes.size(), 2u);
  for (const serve::Outcome& o : outcomes) {
    ASSERT_EQ(o.kind, serve::Outcome::Kind::Completed) << o.error;
    EXPECT_EQ(o.batch_size, 1) << "ticket " << o.id;
    smartpaf::FheRuntime& owner = o.id == first.id ? *client_ : rekeyed;
    const double want = o.id == first.id ? 1.0 : 1.5;  // 2x + 0.5
    EXPECT_NEAR(owner.decrypt(io::deserialize_ciphertext(io::serialize(o.result),
                                                         owner.ctx()))[0],
                want, 1e-4)
        << "ticket " << o.id;
  }
}

TEST_F(ServeTest, PackedResponsesMatchReferenceAndMaskForeignSlots) {
  serve::ExecutorConfig cfg;
  cfg.input_size = 8;
  cfg.group_capacity = 4;
  cfg.deadline = 10s;
  OutcomeSink sink;
  serve::AsyncExecutor exec(affine_pipeline(), cfg, sink.callback());
  auto session = make_session(1);
  session->adopt_rotation_keys(io::deserialize_galois_keys(
      io::serialize(*client_->rotation_keys(exec.required_rotation_steps(*session))),
      session->runtime().ctx()));

  sp::Rng rng(7);
  std::vector<std::vector<double>> values(4);
  std::vector<std::uint64_t> tickets;
  for (auto& v : values) {
    v.resize(8);
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    const serve::Admission adm = exec.submit(session, request_for(*session, v));
    ASSERT_TRUE(adm.accepted);
    tickets.push_back(adm.id);
  }

  const auto outcomes = sink.wait_for(4);
  const double tol = 1e-4;
  for (const serve::Outcome& o : outcomes) {
    ASSERT_EQ(o.kind, serve::Outcome::Kind::Completed);
    const std::size_t idx = static_cast<std::size_t>(
        std::find(tickets.begin(), tickets.end(), o.id) - tickets.begin());
    ASSERT_LT(idx, values.size());
    const std::vector<double> got = client_->decrypt(
        io::deserialize_ciphertext(io::serialize(o.result), client_->ctx()));
    for (std::size_t j = 0; j < got.size(); ++j) {
      if (j < 8) {
        EXPECT_NEAR(got[j], 2.0 * values[idx][j] + 0.5, tol)
            << "request " << idx << " slot " << j;
      } else {
        // The linear stage's bias lands 0.5 in EVERY slot pre-mask, so a
        // near-zero read here proves the response mask did its job.
        EXPECT_NEAR(got[j], 0.0, tol) << "foreign slot " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FheRuntime rotation-key store (S3): concurrent extension + stable snapshots
// ---------------------------------------------------------------------------

TEST_F(ServeTest, RotationKeyStoreIsThreadSafe) {
  smartpaf::FheRuntime rt(fhe::CkksParams::for_depth(2048, 2, 40), /*seed=*/77);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rt, &failed, t] {
      for (int iter = 0; iter < 3; ++iter) {
        const int own = t + 1;  // every thread keygens its own step + shared 1
        const auto snapshot = rt.rotation_keys({1, own, -own});
        if (!snapshot) {
          failed = true;
          return;
        }
        // Snapshots are immutable: concurrent extensions must never mutate a
        // handed-out map (TSan enforces the absence of racing writes).
        for (const int s : {1, own, -own}) {
          if (snapshot->keys.find(fhe::galois_element(rt.ctx().n(), s)) ==
              snapshot->keys.end()) {
            failed = true;
            return;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(rt.rotation_key_count(), 8u);  // {+-1..+-4} dedup'd across threads
}

// ---------------------------------------------------------------------------
// Seedless Encryptor entropy (S4)
// ---------------------------------------------------------------------------

TEST_F(ServeTest, SeedlessEncryptorsDrawDistinctRandomness) {
  const fhe::CkksContext& ctx = client_->ctx();
  const fhe::Plaintext pt =
      client_->encoder().encode(std::vector<double>(ctx.slot_count(), 0.5),
                                ctx.scale(), ctx.q_count());
  // Two seedless encryptors must not replay one randomness stream (the old
  // default-seeded constructor made every process emit identical masks,
  // which is a CPA-security collapse, not a determinism feature).
  fhe::Encryptor a(ctx, client_->public_key());
  fhe::Encryptor b(ctx, client_->public_key());
  const fhe::Ciphertext ca = a.encrypt(pt);
  const fhe::Ciphertext cb = b.encrypt(pt);
  ASSERT_EQ(ca.parts.size(), 2u);
  bool identical = true;
  for (int row = 0; row < ca.parts[0].row_count() && identical; ++row) {
    if (std::memcmp(ca.parts[0].row(row), cb.parts[0].row(row),
                    sizeof(std::uint64_t) * static_cast<std::size_t>(ca.parts[0].n())) !=
        0)
      identical = false;
  }
  EXPECT_FALSE(identical);
  // Both still decrypt to the same values, of course.
  const std::vector<double> da = client_->decrypt(ca);
  EXPECT_NEAR(da[0], 0.5, 1e-6);
}

}  // namespace
