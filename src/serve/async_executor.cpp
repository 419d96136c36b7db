#include "serve/async_executor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/hash.h"

namespace sp::serve {

AsyncExecutor::AsyncExecutor(smartpaf::FhePipeline pipeline, ExecutorConfig cfg,
                             OutcomeCallback on_outcome)
    : pipeline_(std::move(pipeline)), cfg_(cfg), on_outcome_(std::move(on_outcome)) {
  sp::check(on_outcome_ != nullptr, "AsyncExecutor: an outcome callback is required");
  sp::check(cfg_.input_size >= 1, "AsyncExecutor: input_size must be >= 1");
  sp::check(cfg_.group_capacity >= 1, "AsyncExecutor: group_capacity must be >= 1");
  sp::check(cfg_.max_queue >= 1, "AsyncExecutor: max_queue must be >= 1");
  sp::check(cfg_.deadline.count() >= 0, "AsyncExecutor: deadline must be >= 0");
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncExecutor::~AsyncExecutor() { stop(); }

void AsyncExecutor::stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

Admission AsyncExecutor::submit(std::shared_ptr<Session> session,
                                fhe::Ciphertext request) {
  auto reject = [this](std::string reason) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++stats_.rejected;
    }
    return Admission{false, 0, std::move(reason)};
  };
  if (!session) return reject("no session (open one before submitting)");
  const fhe::CkksContext& ctx = session->runtime().ctx();
  if (request.size() != 2) {
    std::ostringstream os;
    os << "request ciphertext has " << request.size()
       << " parts; submit a 2-part (relinearized) ciphertext";
    return reject(os.str());
  }
  if (request.q_count() != ctx.q_count()) {
    std::ostringstream os;
    os << "request ciphertext at " << request.q_count() << " primes, expected the full "
       << ctx.q_count() << "-prime chain (encrypt at top level)";
    return reject(os.str());
  }
  if (request.scale != ctx.scale()) {
    std::ostringstream os;
    os << "request scale " << request.scale << " differs from the context scale "
       << ctx.scale() << "; packed slots must share one scale";
    return reject(os.str());
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    ++stats_.rejected;
    return Admission{false, 0, "executor is stopping; no new work accepted"};
  }
  if (queue_.size() >= cfg_.max_queue) {
    ++stats_.rejected;
    std::ostringstream os;
    os << "saturated: " << queue_.size() << " requests pending (max_queue "
       << cfg_.max_queue << "); back off and retry";
    return Admission{false, 0, os.str()};
  }
  Pending p;
  p.id = next_id_++;
  p.session = std::move(session);
  p.request = std::move(request);
  p.enqueued = std::chrono::steady_clock::now();
  const std::uint64_t id = p.id;
  queue_.push_back(std::move(p));
  ++stats_.submitted;
  lock.unlock();
  cv_.notify_all();
  return Admission{true, id, ""};
}

std::vector<int> AsyncExecutor::required_rotation_steps(Session& session) {
  std::vector<int> steps = plan_for(session).rotation_steps();
  if (cfg_.group_capacity > 1) {
    steps.push_back(cfg_.input_size);
    steps.push_back(-cfg_.input_size);
  }
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  return steps;
}

ExecutorStats AsyncExecutor::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

std::size_t AsyncExecutor::pending() const {
  std::unique_lock<std::mutex> lock(mu_);
  return queue_.size();
}

const smartpaf::Plan& AsyncExecutor::plan_for(Session& session) {
  std::unique_lock<std::mutex> lock(plan_mu_);
  auto it = plans_.find(session.fingerprint());
  if (it != plans_.end()) return it->second;

  const fhe::CkksContext& ctx = session.runtime().ctx();
  const std::size_t slots = ctx.slot_count();
  const auto stride = static_cast<std::size_t>(cfg_.input_size);
  sp::check_fmt(stride <= slots && slots % stride == 0,
                "AsyncExecutor: input_size ", cfg_.input_size, " must tile the ", slots,
                "-slot vector (packed requests repeat at this stride)");
  sp::check_fmt(static_cast<std::size_t>(cfg_.group_capacity) <= slots / stride,
                "AsyncExecutor: group_capacity ", cfg_.group_capacity, " exceeds the ",
                slots / stride, " requests that fit the ciphertext");

  smartpaf::PlanOptions popts;
  popts.pack_stride = stride;
  smartpaf::Plan plan =
      smartpaf::Planner::plan(pipeline_, ctx, smartpaf::CostModel::heuristic(), popts);
  sp::check_fmt(plan.chain_levels - plan.levels_used >= 1,
                "AsyncExecutor: response masking needs one level beyond the "
                "pipeline's ",
                plan.levels_used, " but the chain offers ", plan.chain_levels,
                "; deepen the chain");
  // unordered_map references survive rehashing and entries are never erased,
  // so handing out a reference under a released lock is safe. The cache
  // grows one small Plan per parameter set ever seen — bytes, not key
  // material.
  return plans_.emplace(session.fingerprint(), std::move(plan)).first->second;
}

void AsyncExecutor::worker_loop() {
  // Head-session group readiness: the next flush always serves the session
  // of the OLDEST pending request (FIFO fairness across tenants). Groups
  // match on the Session object, not the client id, so a reopened tenant's
  // old and new requests never share a ciphertext.
  auto group_ready = [this] {
    if (queue_.empty()) return false;
    const Session* head = queue_.front().session.get();
    std::size_t count = 0;
    for (const Pending& p : queue_)
      if (p.session.get() == head &&
          ++count >= static_cast<std::size_t>(cfg_.group_capacity))
        return true;
    return false;
  };

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    const auto flush_at = queue_.front().enqueued + cfg_.deadline;
    cv_.wait_until(lock, flush_at, [&] { return stop_ || group_ready(); });

    FlushReason reason = FlushReason::Deadline;
    if (group_ready())
      reason = FlushReason::Full;
    else if (stop_)
      reason = FlushReason::Drain;
    std::vector<Pending> group = take_group();
    if (group.empty()) continue;
    switch (reason) {
      case FlushReason::Full: ++stats_.flush_full; break;
      case FlushReason::Deadline: ++stats_.flush_deadline; break;
      case FlushReason::Drain: ++stats_.flush_drain; break;
    }

    lock.unlock();
    evaluate_group(std::move(group), reason);
    lock.lock();
  }
}

std::vector<AsyncExecutor::Pending> AsyncExecutor::take_group() {
  std::vector<Pending> group;
  if (queue_.empty()) return group;
  const Session* head = queue_.front().session.get();
  group.reserve(static_cast<std::size_t>(cfg_.group_capacity));
  for (auto it = queue_.begin();
       it != queue_.end() &&
       group.size() < static_cast<std::size_t>(cfg_.group_capacity);) {
    if (it->session.get() == head) {
      group.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return group;
}

void AsyncExecutor::evaluate_group(std::vector<Pending> group, FlushReason reason) {
  Session& session = *group.front().session;
  std::vector<std::uint64_t> ids;
  ids.reserve(group.size());
  for (const Pending& p : group) ids.push_back(p.id);

  try {
    if (eval_hook_) eval_hook_(ids);
    const smartpaf::Plan& plan = plan_for(session);
    smartpaf::FheRuntime& rt = session.runtime();
    fhe::Evaluator& ev = rt.evaluator();
    const int s = cfg_.input_size;
    const std::size_t k = group.size();

    // Chained Horner packing: request b ends at slot offset b*s having spent
    // only the step -s Galois key (see the class comment). k = 1 skips the
    // key fetch entirely — the unbatched baseline pays zero rotations.
    std::shared_ptr<const fhe::GaloisKeys> gk;
    if (k > 1) gk = rt.rotation_keys({-s, s});
    fhe::Ciphertext packed = std::move(group.back().request);
    for (std::size_t b = k - 1; b-- > 0;) {
      fhe::Ciphertext shifted = ev.rotate(packed, -s, *gk);
      ev.add_inplace(shifted, group[b].request);
      packed = std::move(shifted);
    }

    fhe::Ciphertext out = pipeline_.run(rt, plan, packed, nullptr);

    // Response mask: 1 over the request's own output slots, 0 elsewhere —
    // without it, a response slice still carries the neighbouring requests'
    // slots under the shared batch key. Cached per (stride, width, chain
    // position); the shared_ptr pin keeps it valid across cache churn.
    const std::size_t slots = rt.ctx().slot_count();
    std::uint64_t key = sp::fnv_mix(sp::kFnvOffset, 0x73657276656d61ULL);  // "servema"
    key = sp::fnv_mix(key, static_cast<std::uint64_t>(s));
    const std::size_t width = plan.stages.back().layout_out.width;
    key = sp::fnv_mix(key, width);
    key = sp::fnv_mix(key, slots);
    const std::shared_ptr<const fhe::Plaintext> mask =
        rt.encoder().encode_cached(key, rt.ctx().scale(), out.q_count(), [&] {
          std::vector<double> m(slots, 0.0);
          for (std::size_t j = 0; j < width; ++j) m[j] = 1.0;
          return m;
        });

    // Chained extraction: response b is the packed output rotated left b
    // times by s — again only the step +s key, whatever the group size.
    // Responses are staged before any callback fires so the stats counters
    // can be bumped first: a caller that has observed the group's last
    // outcome must also observe the counters it implies.
    std::vector<fhe::Ciphertext> responses;
    responses.reserve(k);
    fhe::Ciphertext slice = std::move(out);
    for (std::size_t b = 0; b < k; ++b) {
      if (b > 0) slice = ev.rotate(slice, s, *gk);
      fhe::Ciphertext resp = ev.multiply_plain(slice, *mask);
      ev.rescale_inplace(resp);
      responses.push_back(std::move(resp));
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      stats_.completed += k;
    }
    for (std::size_t b = 0; b < k; ++b) {
      Outcome o;
      o.kind = Outcome::Kind::Completed;
      o.id = group[b].id;
      o.client_id = session.client_id();
      o.result = std::move(responses[b]);
      o.batch_size = static_cast<int>(k);
      o.flush = reason;
      on_outcome_(std::move(o));
    }
  } catch (const std::exception& e) {
    // The whole group shares one packed ciphertext, so a failure loses every
    // request in it — each id gets an explicit Failed outcome (the serving
    // layer NACKs them; nothing is dropped silently).
    {
      std::unique_lock<std::mutex> lock(mu_);
      stats_.failed += ids.size();
    }
    for (const std::uint64_t id : ids) {
      Outcome o;
      o.kind = Outcome::Kind::Failed;
      o.id = id;
      o.client_id = session.client_id();
      o.error = e.what();
      o.batch_size = static_cast<int>(group.size());
      o.flush = reason;
      on_outcome_(std::move(o));
    }
  }
}

}  // namespace sp::serve
