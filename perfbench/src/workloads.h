#pragma once

// The three workloads and the per-layer reporting they share.

#include <vector>

#include "fhe/evaluator.h"
#include "harness.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "steal.h"
#include "trace.h"

namespace perfbench {

/// Closed loop, one caller: a single-stage PAF-ReLU pipeline (f1^2 o g1^2)
/// on a full ciphertext at N = 8192. Mult/relin/rescale/NTT work only.
void run_paf_relu(const Options& opt, Report& rep);
/// Closed loop, one client: the full private-inference round trip of
/// lenet_small (client encrypt + sp::io + keygen-less server run_blocks +
/// client decrypt). Rotation- and key-switch-bound.
void run_lenet_roundtrip(const Options& opt, Report& rep);
/// Open loop at a fixed offered rate into one serve::AsyncExecutor. The
/// only workload with queueing and packing.
void run_serve_open(const Options& opt, Report& rep);

/// A closed loop's requests: untraced ones in `off`, traced ones in `on`.
struct ClosedLoop {
  std::vector<Timed> off, on;
};

/// Closed loop with one caller: calls `request(i, traced)` for i = 0, 1, ...
/// until the summed on-clock wall time reaches `seconds`. With `trace` every
/// other request is traced, so traced and untraced requests meet the same
/// host and their difference is the tracing overhead. `request` returns its
/// on-clock Timed; the output checks it does afterwards are off the clock,
/// so they neither stretch latency nor cut throughput.
template <typename Fn>
ClosedLoop closed_loop(double seconds, bool trace, Fn&& request) {
  ClosedLoop loop;
  double busy_ms = 0.0;
  for (std::size_t i = 0; busy_ms < seconds * 1e3; ++i) {
    const bool traced = trace && i % 2 == 1;
    const Timed t = request(i, traced);
    (traced ? loop.on : loop.off).push_back(t);
    busy_ms += t.wall_ms();
  }
  return loop;
}

/// Reports the closed-loop end-to-end metrics: latency percentiles and
/// throughput from the requests' CPU time, the median set-up time, and the
/// wall-clock latency and set-up next to them in the run record.
void report_closed_loop(Report& rep, const std::vector<Timed>& reqs,
                        const std::vector<Timed>& setups);

/// Reports poly_eval.ct_mults / .relins per PAF stage of `pipe`, from the
/// EvalStats one run() accumulated over all of them.
void report_paf_stats(Report& rep, const sp::smartpaf::FhePipeline& pipe,
                      const sp::fhe::EvalStats& stats);

/// Evaluator op and NTT-row costs from direct, individually timed calls at a
/// runtime's parameters (median of a few repeats each). Ops run on a
/// ciphertext dropped to the middle of the chain, so a cost stands for the
/// average level a workload's ops run at.
struct UnitCosts {
  double ct_mult_ms = 0.0;
  double relin_ms = 0.0;
  double rescale_ms = 0.0;
  double rotate_ms = 0.0;
  double hoisted_rotate_ms = 0.0;  ///< one rotation of a hoisted fan, hoist included
  double plain_mult_ms = 0.0;
  double ntt_row_us = 0.0;  ///< ntt_forward_batch over one row
  std::size_t repeats = 0;
  std::size_t ntt_repeats = 0;
};

/// Times the unit costs on `rt`; `fan` are rotation steps `rt` holds keys
/// for (the rotation timings use them).
UnitCosts time_unit_costs(sp::smartpaf::FheRuntime& rt, const std::vector<int>& fan);

/// Reports evaluator.* and kernel.* from per-request op counts (`requests`
/// samples behind them) and the unit costs at ring size `n`.
void report_op_layers(Report& rep, const sp::fhe::OpCountersPerInput& per_request,
                      std::size_t requests, const UnitCosts& u, std::size_t n);

/// Reports what the traced phase shows: each layer's self time per request
/// (`<layer>.self_ms`), trace.coverage = summed layer self times / summed
/// wall time of the traced requests `on`, and trace.overhead_ms = p50
/// latency of `on` minus that of the untraced requests `off`. With a
/// `steal` monitor the p50s are over the steal-free requests, each window
/// widened backwards by `guard` (see clean_latencies).
void report_trace(Report& rep, const Trace& trace, const std::vector<Timed>& off,
                  const std::vector<Timed>& on, const StealMonitor* steal = nullptr,
                  Clock::duration guard = Clock::duration::zero());

}  // namespace perfbench
