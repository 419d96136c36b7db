// serve_open: open-loop load into one serve::AsyncExecutor — independent
// users arriving on a seeded schedule at a fixed offered rate, each request
// timed from the moment it was due. The model is bench_serve's dense
// 16 -> 16 -> 16 network with two alpha = 7 PAF-ReLUs (N = 2048, depth 20
// with the response mask), served to one tenant whose session was adopted
// from sp::io blobs. On one lane the offered rate sits between the
// unbatched capacity (~2.7 req/s: one ~370 ms evaluation per request) and
// the batched saturation (~25 req/s; 30 req/s overloads it), so groups of
// ~5 form from the queue that builds while the previous group evaluates:
// this is the only workload with queueing and packing, and the one an
// executor change shows on. Its latency is wall time (queueing is real
// time), so it is the one workload where host steal shows; see steal.h.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "approx/presets.h"
#include "common/rng.h"
#include "io/serialize.h"
#include "serve/async_executor.h"
#include "serve/session_registry.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "workloads.h"

namespace perfbench {

using namespace sp;

namespace {

constexpr std::size_t kRingN = 2048;
constexpr int kChainLevels = 20;
constexpr int kInputSize = 16;
constexpr int kGroupCapacity = 32;
constexpr double kOfferedRps = 12.0;  // fixed: the load must not follow the code
constexpr auto kDeadline = std::chrono::milliseconds(20);
constexpr std::size_t kDistinctInputs = 8;
constexpr std::uint64_t kClientId = 7;
/// Set-ups per run (~2 s each, CPU time of the calling thread); setup_s is
/// their median.
constexpr int kSetupRepeats = 5;
/// Budget per decrypted slot (own slots vs the mirror, foreign slots vs 0);
/// measured errors stay under 2^-25.
const double kBudget = std::ldexp(1.0, -16);
/// A steal burst shortly before a request was due still delays it through
/// the backlog it leaves, so a request's steal window reaches back this far
/// (about two group evaluations) before its due time.
constexpr auto kStealGuard = std::chrono::milliseconds(1000);
/// Longest wait for the last outcome of a phase before the rest count as lost.
constexpr auto kDrainTimeout = std::chrono::seconds(60);

smartpaf::FhePipeline build_model() {
  sp::Rng rng(41);
  auto weights = [&rng] {
    std::vector<double> w(kInputSize * kInputSize);
    for (double& v : w) v = rng.uniform(-1.0, 1.0) / kInputSize;
    return w;
  };
  return smartpaf::FhePipeline::builder()
      .input_width(kInputSize)
      .matmul(kInputSize, kInputSize, weights())
      .paf_relu(approx::make_paf(approx::PafForm::ALPHA7), 2.0)
      .matmul(kInputSize, kInputSize, weights(), std::vector<double>(kInputSize, 0.01))
      .paf_relu(approx::make_paf(approx::PafForm::ALPHA7), 2.0)
      .linear(1.1, -0.02)
      .build();
}

/// Receives the executor's eval hook and outcome callbacks (worker thread).
struct Collector {
  struct Arrival {
    Clock::time_point at;
    serve::Outcome outcome;
  };
  struct Group {
    std::size_t size = 0;
    std::size_t remaining = 0;
    Clock::time_point start, end;
    fhe::OpCounters before, ops;
    int span = -1;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, Arrival> arrivals;
  std::vector<Group> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  Trace* trace = nullptr;
  const fhe::Evaluator* ev = nullptr;

  void on_group(const std::vector<std::uint64_t>& ids) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    Group g;
    g.size = g.remaining = ids.size();
    g.start = now;
    g.before = ev->counters;
    g.span = trace->open("serve.group", "evaluate_group", static_cast<std::int64_t>(groups.size()),
                         ev);
    for (const std::uint64_t id : ids) group_of[id] = groups.size();
    groups.push_back(std::move(g));
  }

  void on_outcome(serve::Outcome o) {
    const auto now = Clock::now();
    {
      // Spans close under the lock, so a phase that has seen every outcome
      // also sees every span closed.
      std::lock_guard<std::mutex> lock(mu);
      Scope span(*trace, "serve.callback", "on_outcome", static_cast<std::int64_t>(o.id));
      Group& g = groups.at(group_of.at(o.id));
      if (--g.remaining == 0) {
        g.end = now;
        g.ops = ev->counters.delta_since(g.before);
        trace->close(g.span, ev);
      }
      const std::uint64_t id = o.id;
      arrivals.emplace(id, Arrival{now, std::move(o)});
    }
    cv.notify_all();
  }

  /// Waits until `n` outcomes arrived (false on timeout).
  bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, kDrainTimeout, [&] { return arrivals.size() >= n; });
  }
};

/// One request of a phase, as the generator sent it.
struct Sent {
  std::uint64_t id = 0;
  std::size_t input = 0;
  Clock::time_point due, submitted;
};

}  // namespace

void run_serve_open(const Options& opt, Report& rep) {
  const fhe::CkksParams params = fhe::CkksParams::for_depth(kRingN, kChainLevels, 40);
  serve::ExecutorConfig cfg;
  cfg.input_size = kInputSize;
  cfg.group_capacity = kGroupCapacity;
  cfg.deadline = kDeadline;
  cfg.max_queue = 1024;

  // Set-up: client keygen, session adoption from sp::io blobs, the executor
  // with its pipeline, the session's plan and its rotation keys.
  Collector col;
  Trace no_trace(false);
  col.trace = &no_trace;
  std::unique_ptr<smartpaf::FheRuntime> client;
  std::unique_ptr<serve::SessionRegistry> registry;
  std::shared_ptr<serve::Session> session;
  std::unique_ptr<serve::AsyncExecutor> exec;
  std::vector<int> steps;
  Samples setup_s, setup_wall_s, plan_ms;
  std::size_t key_bytes = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    exec.reset();
    session.reset();
    registry.reset();
    client.reset();
    const Lap setup;
    client = std::make_unique<smartpaf::FheRuntime>(params, kKeySeed);
    const auto pk_blob = io::serialize(client->public_key());
    const auto relin_blob = io::serialize(client->relin_key());
    auto ctx = std::make_unique<fhe::CkksContext>(io::deserialize_params(io::serialize(params)));
    fhe::PublicKey pk = io::deserialize_public_key(pk_blob, *ctx);
    fhe::KSwitchKey relin = io::deserialize_kswitch_key(relin_blob, *ctx);
    registry = std::make_unique<serve::SessionRegistry>(4);
    session = registry->open(kClientId, std::move(ctx), std::move(pk), std::move(relin),
                             fhe::GaloisKeys{});
    col.ev = &session->runtime().evaluator();
    exec = std::make_unique<serve::AsyncExecutor>(
        build_model(), cfg, [&col](serve::Outcome o) { col.on_outcome(std::move(o)); });
    exec->set_eval_hook([&col](const std::vector<std::uint64_t>& ids) { col.on_group(ids); });
    const Lap planning;
    steps = exec->required_rotation_steps(*session);
    plan_ms.add(planning.stop().ms);
    const auto gk_blob = io::serialize(*client->rotation_keys(steps));
    key_bytes = pk_blob.size() + relin_blob.size() + gk_blob.size();
    session->adopt_rotation_keys(io::deserialize_galois_keys(gk_blob, session->runtime().ctx()));
    const Timed t = setup.stop();
    setup_s.add(t.ms / 1e3);
    setup_wall_s.add(t.wall_ms() / 1e3);
  }

  // Pre-encrypted requests (client encrypt + sp::io), cycled by the schedule.
  sp::Rng rng(opt.seed);
  const std::size_t slots = client->ctx().slot_count();
  const smartpaf::FhePipeline model = build_model();
  std::vector<fhe::Ciphertext> inputs;
  std::vector<std::vector<double>> expect;
  Samples encrypt_ms, req_ser_ms, req_deser_ms;
  std::size_t request_bytes = 0;
  for (std::size_t k = 0; k < kDistinctInputs; ++k) {
    std::vector<double> x(slots, 0.0);
    for (int j = 0; j < kInputSize; ++j) x[static_cast<std::size_t>(j)] = rng.uniform(-1.0, 1.0);
    auto t = Clock::now();
    const fhe::Ciphertext ct = client->encrypt(x);
    encrypt_ms.add(ms_between(t, Clock::now()));
    t = Clock::now();
    const auto blob = io::serialize(ct);
    req_ser_ms.add(ms_between(t, Clock::now()));
    request_bytes = blob.size();
    t = Clock::now();
    inputs.push_back(io::deserialize_ciphertext(blob, session->runtime().ctx()));
    req_deser_ms.add(ms_between(t, Clock::now()));
    // Response mask: the request's own output slots carry the model, every
    // other slot decrypts to zero.
    const std::vector<double> ref = model.reference(x, static_cast<std::size_t>(kInputSize));
    std::vector<double> want(slots, 0.0);
    std::copy(ref.begin(), ref.begin() + kInputSize, want.begin());
    expect.push_back(std::move(want));
  }

  // Warm-up: two requests through the executor, not timed.
  {
    for (int w = 0; w < 2; ++w) exec->submit(session, inputs[static_cast<std::size_t>(w)]);
    col.wait_for(2);
    std::lock_guard<std::mutex> lock(col.mu);
    col.arrivals.clear();
    col.groups.clear();
    col.group_of.clear();
  }

  struct Phase {
    std::vector<Sent> sent;
    std::unordered_map<std::uint64_t, Collector::Arrival> arrivals;
    std::vector<Collector::Group> groups;
    std::unordered_map<std::uint64_t, std::size_t> group_of;
    serve::ExecutorStats stats;
    std::vector<Timed> timed;  ///< due -> outcome, completed requests
    double gen_lag_max_ms = 0.0;
    double throughput = 0.0;
  };
  // One open-loop phase: n = rate x seconds arrivals, one at a seeded
  // uniform point of each 1/rate slot (independent users without the
  // Poisson bursts that would make the queue, and so the latency median,
  // differ from seed to seed), then a drain until every accepted request
  // has its outcome.
  auto run_phase = [&](double seconds, std::uint64_t phase_seed, Trace& trace) {
    Phase ph;
    sp::Rng sched(opt.seed * 0x9E3779B97F4A7C15ULL + phase_seed);
    const auto n = static_cast<std::size_t>(std::llround(kOfferedRps * seconds));
    std::vector<double> at(n);
    for (std::size_t i = 0; i < n; ++i)
      at[i] = (static_cast<double>(i) + sched.uniform()) / kOfferedRps;
    {
      std::lock_guard<std::mutex> lock(col.mu);
      col.trace = &trace;
    }
    const serve::ExecutorStats before = exec->stats();
    const auto base = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < n; ++i) {
      Sent s;
      s.input = static_cast<std::size_t>(sched.randint(0, kDistinctInputs - 1));
      s.due = base + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(at[i]));
      std::this_thread::sleep_until(s.due);
      s.submitted = Clock::now();
      const serve::Admission adm = exec->submit(session, inputs[s.input]);
      rep.sent();
      if (!adm.accepted) {
        rep.fail("request " + std::to_string(i) + " rejected: " + adm.reason);
        continue;
      }
      s.id = adm.id;
      ph.gen_lag_max_ms = std::max(ph.gen_lag_max_ms, ms_between(s.due, s.submitted));
      ph.sent.push_back(s);
    }
    if (!col.wait_for(ph.sent.size()))
      rep.fail("the executor did not answer every accepted request within the drain timeout");
    {
      std::lock_guard<std::mutex> lock(col.mu);
      ph.arrivals.swap(col.arrivals);
      ph.groups.swap(col.groups);
      ph.group_of.swap(col.group_of);
      col.trace = &no_trace;
    }
    const serve::ExecutorStats after = exec->stats();
    ph.stats.rejected = after.rejected - before.rejected;
    ph.stats.flush_full = after.flush_full - before.flush_full;
    ph.stats.flush_deadline = after.flush_deadline - before.flush_deadline;

    Clock::time_point last = base;
    std::size_t completed = 0;
    for (const Sent& s : ph.sent) {
      const auto it = ph.arrivals.find(s.id);
      if (it == ph.arrivals.end()) {
        rep.fail("request id " + std::to_string(s.id) + " never got an outcome");
        continue;
      }
      if (it->second.outcome.kind != serve::Outcome::Kind::Completed) {
        rep.fail("request id " + std::to_string(s.id) + " failed: " + it->second.outcome.error);
        continue;
      }
      ++completed;
      last = std::max(last, it->second.at);
      ph.timed.push_back(Timed{s.due, it->second.at, ms_between(s.due, it->second.at)});
      trace.add("serve", "submit->outcome", static_cast<std::int64_t>(s.id), s.submitted,
                it->second.at);
    }
    const double wall_s = ms_between(base, last) / 1e3;
    ph.throughput = wall_s > 0.0 ? completed / wall_s : 0.0;
    return ph;
  };

  // Decrypts and checks every response of a phase, client side (sp::io
  // round trip, decrypt, compare against the mirror).
  Samples decrypt_ms, resp_ser_ms, resp_deser_ms;
  std::size_t response_bytes = 0;
  bool corrupted = false;
  auto check_phase = [&](Phase& ph) {
    for (const Sent& s : ph.sent) {
      const auto it = ph.arrivals.find(s.id);
      if (it == ph.arrivals.end() || it->second.outcome.kind != serve::Outcome::Kind::Completed)
        continue;
      auto t = Clock::now();
      const auto blob = io::serialize(it->second.outcome.result);
      resp_ser_ms.add(ms_between(t, Clock::now()));
      response_bytes = blob.size();
      t = Clock::now();
      fhe::Ciphertext back = io::deserialize_ciphertext(blob, client->ctx());
      resp_deser_ms.add(ms_between(t, Clock::now()));
      if (opt.corrupt && !corrupted) {
        corrupt_ciphertext(back);
        corrupted = true;
      }
      t = Clock::now();
      const std::vector<double> got = client->decrypt(back);
      decrypt_ms.add(ms_between(t, Clock::now()));
      rep.check(worst_abs_diff(got, expect[s.input], slots), kBudget,
                "request id " + std::to_string(s.id));
    }
  };

  settle(opt, rep, "measure");
  Trace traced(true);
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase plain = run_phase(phase_s, 1, no_trace);
  check_phase(plain);
  Phase tr;
  if (opt.trace) {
    tr = run_phase(phase_s, 2, traced);
    check_phase(tr);
  }
  exec->stop();

  rep.note("ring_n", static_cast<double>(kRingN));
  rep.note("chain_levels", static_cast<double>(kChainLevels));
  rep.note("offered_rps", kOfferedRps);
  rep.note("group_capacity", static_cast<double>(kGroupCapacity));
  rep.note("deadline_ms", static_cast<double>(kDeadline.count()));
  rep.note("distinct_inputs", static_cast<double>(kDistinctInputs));
  rep.note("error_budget", kBudget);
  if (!opt.trace) {
    const Samples latency = clean_latencies(plain.timed, opt.steal, kStealGuard, rep, "run");
    rep.metric("latency_ms_p50", latency.p(50), "ms", latency.n());
    rep.metric("latency_ms_p90", latency.p(90), "ms", latency.n());
    rep.metric("throughput_rps", plain.throughput, "1/s", plain.timed.size());
    rep.metric("setup_s", setup_s.p(50), "s", setup_s.n());
    rep.note("wall_setup_s", setup_wall_s.p(50));
    return;
  }

  traced.write_json(opt.out_dir + "/spans-serve_open-seed" + std::to_string(opt.seed) + ".json");
  report_trace(rep, traced, plain.timed, tr.timed, opt.steal, kStealGuard);

  Samples queue_wait, group_ms, batch;
  for (const Sent& s : tr.sent) {
    const auto g = tr.group_of.find(s.id);
    if (g != tr.group_of.end())
      queue_wait.add(ms_between(s.submitted, tr.groups[g->second].start));
  }
  fhe::OpCounters ops;
  std::size_t grouped = 0;
  for (const Collector::Group& g : tr.groups) {
    group_ms.add(ms_between(g.start, g.end));
    batch.add(static_cast<double>(g.size));
    grouped += g.size;
    fhe::OpCounters::zip_fields(ops, g.ops, [](std::atomic<std::size_t>& d,
                                               const std::atomic<std::size_t>& s) { d += s; });
  }
  rep.metric("serve.queue_wait_ms_p50", queue_wait.p(50), "ms", queue_wait.n());
  rep.metric("serve.queue_wait_ms_p90", queue_wait.p(90), "ms", queue_wait.n());
  rep.metric("serve.group_ms_p50", group_ms.p(50), "ms", group_ms.n());
  rep.metric("serve.batch_size_mean", batch.mean(), "count", batch.n());
  rep.metric("serve.flush_full", static_cast<double>(tr.stats.flush_full), "count", 1);
  rep.metric("serve.flush_deadline", static_cast<double>(tr.stats.flush_deadline), "count", 1);
  rep.metric("serve.rejected", static_cast<double>(tr.stats.rejected), "count", 1);
  rep.metric("serve.gen_lag_ms_max", tr.gen_lag_max_ms, "ms", tr.sent.size());

  // The executor runs the pipeline without EvalStats; one direct call per
  // repeat on the same session gives the PAF-stage counts and the call time.
  smartpaf::PlanOptions popts;
  popts.pack_stride = static_cast<std::size_t>(kInputSize);
  const smartpaf::Plan plan = smartpaf::Planner::plan(
      exec->pipeline(), session->runtime().ctx(), smartpaf::CostModel::heuristic(), popts);
  Samples run_ms;
  fhe::EvalStats paf_stats;
  for (int r = 0; r < 3; ++r) {
    fhe::EvalStats st;
    const auto t = Clock::now();
    exec->pipeline().run(session->runtime(), plan, inputs[0], &st);
    run_ms.add(ms_between(t, Clock::now()));
    paf_stats = st;
  }
  rep.metric("pipeline.run_ms_p50", run_ms.p(50), "ms", run_ms.n());
  rep.metric("pipeline.levels_used", plan.levels_used, "count", 1);
  rep.metric("planner.plan_ms", plan_ms.p(50), "ms", plan_ms.n());
  report_paf_stats(rep, exec->pipeline(), paf_stats);
  rep.metric("client.encrypt_ms", encrypt_ms.p(50), "ms", encrypt_ms.n());
  rep.metric("client.decrypt_ms", decrypt_ms.p(50), "ms", decrypt_ms.n());
  rep.metric("encoder.cache_entries",
             static_cast<double>(session->runtime().encoder().encode_cache_size()), "count", 1);
  rep.metric("io.request_bytes", static_cast<double>(request_bytes), "B", 1);
  rep.metric("io.response_bytes", static_cast<double>(response_bytes), "B", 1);
  rep.metric("io.serialize_ms", req_ser_ms.p(50) + resp_ser_ms.p(50), "ms", resp_ser_ms.n());
  rep.metric("io.deserialize_ms", req_deser_ms.p(50) + resp_deser_ms.p(50), "ms",
             resp_deser_ms.n());
  rep.metric("io.key_bytes", static_cast<double>(key_bytes), "B", 1);

  const UnitCosts u = time_unit_costs(session->runtime(), steps);
  report_op_layers(rep, fhe::per_input(ops, static_cast<int>(std::max<std::size_t>(grouped, 1))),
                   grouped, u, kRingN);
}

}  // namespace perfbench
