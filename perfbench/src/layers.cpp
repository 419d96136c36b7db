#include <algorithm>
#include <variant>

#include "fhe/ntt.h"
#include "workloads.h"

namespace perfbench {

using namespace sp;

UnitCosts time_unit_costs(smartpaf::FheRuntime& rt, const std::vector<int>& fan_in) {
  constexpr int kRepeats = 9;
  constexpr int kNttRepeats = 201;
  std::vector<int> fan;
  for (const int s : fan_in)
    if (s != 0 && fan.size() < 8) fan.push_back(s);

  const fhe::CkksContext& ctx = rt.ctx();
  fhe::Evaluator& ev = rt.evaluator();
  const std::vector<double> x(ctx.slot_count(), 0.5);
  fhe::Ciphertext a = rt.encrypt(x);
  ev.drop_to_level(a, (ctx.q_count() - 1) / 2);
  const fhe::Plaintext pt = rt.encoder().encode(x, ctx.scale(), a.q_count());
  const auto gk = rt.rotation_keys(fan);

  Samples mult, relin, rescale, plain, rotate, hoisted;
  auto timed = [](Samples& s, auto&& fn, double per = 1.0) {
    const Lap lap;
    fn();
    s.add(lap.stop().ms / per);
  };
  for (int r = 0; r < kRepeats; ++r) {
    fhe::Ciphertext prod;
    timed(mult, [&] { prod = ev.multiply(a, a); });
    timed(relin, [&] { ev.relinearize_inplace(prod, rt.relin_key()); });
    timed(rescale, [&] { ev.rescale_inplace(prod); });
    fhe::Ciphertext c = a;
    timed(plain, [&] { ev.multiply_plain_inplace(c, pt); });
    if (fan.empty()) continue;
    timed(rotate, [&] { c = ev.rotate(a, fan.front(), *gk); });
    timed(hoisted, [&] { ev.rotate_hoisted(a, fan, *gk); },
          static_cast<double>(fan.size()));
  }

  std::vector<fhe::u64> row(ctx.n());
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = i % ctx.q(0).value();
  const std::vector<fhe::NttJob> job = {{row.data(), &ctx.ntt(0)}};
  Samples ntt;
  for (int r = 0; r < kNttRepeats; ++r) timed(ntt, [&] { fhe::ntt_forward_batch(job); });

  UnitCosts u;
  u.ct_mult_ms = mult.p(50);
  u.relin_ms = relin.p(50);
  u.rescale_ms = rescale.p(50);
  u.plain_mult_ms = plain.p(50);
  u.rotate_ms = rotate.p(50);
  u.hoisted_rotate_ms = hoisted.p(50);
  u.ntt_row_us = ntt.p(50) * 1e3;
  u.repeats = kRepeats;
  u.ntt_repeats = kNttRepeats;
  return u;
}

void report_op_layers(Report& rep, const fhe::OpCountersPerInput& c, std::size_t requests,
                      const UnitCosts& u, std::size_t n) {
  rep.metric("evaluator.ct_mults", c.ct_mults, "count", requests);
  rep.metric("evaluator.relins", c.relins, "count", requests);
  rep.metric("evaluator.rescales", c.rescales, "count", requests);
  rep.metric("evaluator.rotations", c.rotations, "count", requests);
  rep.metric("evaluator.hoisted_rotations", c.hoisted_rotations, "count", requests);
  rep.metric("evaluator.plain_mults", c.plain_mults, "count", requests);
  rep.metric("evaluator.adds", c.adds, "count", requests);

  rep.metric("evaluator.ct_mult_ms", u.ct_mult_ms, "ms", u.repeats);
  rep.metric("evaluator.relin_ms", u.relin_ms, "ms", u.repeats);
  rep.metric("evaluator.rescale_ms", u.rescale_ms, "ms", u.repeats);
  rep.metric("evaluator.rotate_ms", u.rotate_ms, "ms", u.repeats);
  rep.metric("evaluator.hoisted_rotate_ms", u.hoisted_rotate_ms, "ms", u.repeats);
  rep.metric("evaluator.plain_mult_ms", u.plain_mult_ms, "ms", u.repeats);
  // `rotations` includes the hoisted ones; each is priced once.
  const double attributed = c.ct_mults * u.ct_mult_ms + c.relins * u.relin_ms +
                            c.rescales * u.rescale_ms + c.plain_mults * u.plain_mult_ms +
                            (c.rotations - c.hoisted_rotations) * u.rotate_ms +
                            c.hoisted_rotations * u.hoisted_rotate_ms;
  rep.metric("evaluator.attributed_ms", attributed, "ms", requests);

  rep.metric("kernel.ntt_forward", c.ntts_forward, "count", requests);
  rep.metric("kernel.ntt_inverse", c.ntts_inverse, "count", requests);
  rep.metric("kernel.ntt_row_us", u.ntt_row_us, "us", u.ntt_repeats);
  // Computed, not measured: each row transform reads and writes its n
  // 64-bit residues once.
  rep.metric("kernel.ntt_bytes", (c.ntts_forward + c.ntts_inverse) * static_cast<double>(n) * 16.0,
             "B", requests);
}

void report_paf_stats(Report& rep, const smartpaf::FhePipeline& pipe,
                      const fhe::EvalStats& stats) {
  int stages = 0;
  for (const smartpaf::Stage& s : pipe.stages())
    stages += std::holds_alternative<smartpaf::PafStage>(s.op) ? 1 : 0;
  const double per = stages > 0 ? 1.0 / stages : 0.0;
  rep.metric("poly_eval.ct_mults", stats.ct_mults * per, "count", 1);
  rep.metric("poly_eval.relins", stats.relins * per, "count", 1);
}

void report_closed_loop(Report& rep, const std::vector<Timed>& reqs,
                        const std::vector<Timed>& setups) {
  Samples latency, wall, setup_s, setup_wall_s;
  for (const Timed& t : reqs) {
    latency.add(t.ms);
    wall.add(t.wall_ms());
  }
  for (const Timed& t : setups) {
    setup_s.add(t.ms / 1e3);
    setup_wall_s.add(t.wall_ms() / 1e3);
  }
  rep.metric("latency_ms_p50", latency.p(50), "ms", latency.n());
  rep.metric("latency_ms_p90", latency.p(90), "ms", latency.n());
  // One caller back to back: completed requests per second of its busy time.
  rep.metric("throughput_rps", latency.mean() > 0.0 ? 1e3 / latency.mean() : 0.0, "1/s",
             latency.n());
  rep.metric("setup_s", setup_s.p(50), "s", setup_s.n());
  rep.note("wall_latency_ms_p50", wall.p(50));
  rep.note("wall_latency_ms_p90", wall.p(90));
  rep.note("wall_setup_s", setup_wall_s.p(50));
}

void report_trace(Report& rep, const Trace& trace, const std::vector<Timed>& off,
                  const std::vector<Timed>& on, const StealMonitor* steal,
                  Clock::duration guard) {
  const Samples off_clean = clean_latencies(off, steal, guard, rep, "untraced");
  const Samples on_clean = clean_latencies(on, steal, guard, rep, "traced");
  rep.metric("trace.overhead_ms", on_clean.p(50) - off_clean.p(50), "ms", on_clean.n());

  double latency_sum_ms = 0.0;
  for (const Timed& t : on) latency_sum_ms += t.wall_ms();
  const std::map<std::string, double> self = trace.self_ms();
  const double per = on.empty() ? 0.0 : 1.0 / static_cast<double>(on.size());
  double covered = 0.0;
  for (const char* layer : {"serve", "pipeline", "client", "io"}) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : it->second;
    covered += ms;
    rep.metric(std::string(layer) + ".self_ms", ms * per, "ms", on.size());
  }
  rep.metric("trace.coverage", latency_sum_ms > 0.0 ? covered / latency_sum_ms : 0.0, "ratio",
             on.size());
}

}  // namespace perfbench
