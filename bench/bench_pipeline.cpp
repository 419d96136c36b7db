// The planner's pick vs forced schedules: builds the 2-activation pipeline
// (window -> deg-27 PAF-ReLU -> scalar linear -> pairwise PAF-MaxPool),
// plans it with CostModel::heuristic(), and compares the pick against
// forced-Ladder and forced-BSGS plans of the same pipeline. Each distinct
// schedule is timed once: a candidate whose describe() equals an earlier
// candidate's reuses that candidate's samples (the pick and forced BSGS are
// one schedule). The pick's predicted cost is minimal by construction, and
// its time must stay within 10% of the best other schedule's. The plans run
// on one lane, and each repeat is timed by the calling thread's CPU time: a
// plan runs the same ops on any thread count, and a thread's CPU time does
// not count the time other processes on a shared host take from it.
//
// Usage: bench_pipeline [quick]   ("quick" restricts to N = 2048)
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace {

using namespace sp;
using namespace sp::fhe;

struct PlanRow {
  std::string name;
  int levels = 0;
  int ct_mults = 0;
  double predicted = 0.0;
  double ms_best = 0.0;
  double max_err = 0.0;
};

/// CPU time of the calling thread, in ms.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

approx::CompositePaf dense_odd_paf(int deg, std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> c(static_cast<std::size_t>(deg) + 1, 0.0);
  for (int k = 1; k <= deg; k += 2)
    c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / deg;
  return approx::CompositePaf("deg" + std::to_string(deg), {approx::Polynomial(c)});
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::size_t n = quick ? 2048 : 4096;
  const int repeats = quick ? 5 : 7;
  const int depth = 12;

  // window(4 taps): 1 level; deg-27 ReLU: 5 + 2 (where BSGS saves 6 of the
  // ladder's 17 ct-mults; over 12 quiet runs at N = 2048 on a 4-core x86
  // host that made Ladder 1-12% slower, and a noisy host can invert the
  // gap); scalar linear: folded; pairwise deg-3 MaxPool: 2 + 2 -> 12 planned
  // levels, depth-12 chain.
  const auto pipe = smartpaf::FhePipeline::builder()
                        .window({0.4, 0.3, 0.2, 0.1})
                        .paf_relu(dense_odd_paf(27, 5), 2.0)
                        .linear(0.8)
                        .paf_maxpool(dense_odd_paf(3, 6), 2.0, /*pool_window=*/2)
                        .build();

  smartpaf::FheRuntime rt(CkksParams::for_depth(n, depth, 40), /*seed=*/2024);
  std::printf("[bench] runtime ready: N=%zu depth=%d\n", n, depth);
  // One lane from here on, so the calling thread's CPU time is all of a
  // run's work.
  ThreadPool::set_global_threads(1);

  struct Candidate {
    std::string name;
    smartpaf::PlanOptions opts;
  };
  std::vector<Candidate> candidates(3);
  candidates[0].name = "planner's pick";
  candidates[1].name = "forced Ladder";
  candidates[1].opts.force_strategy = PafEvaluator::Strategy::Ladder;
  candidates[2].name = "forced BSGS";
  candidates[2].opts.force_strategy = PafEvaluator::Strategy::BSGS;

  sp::Rng rng(17);
  std::vector<double> slots(rt.ctx().slot_count());
  for (auto& v : slots) v = rng.uniform(-1.0, 1.0);
  const Ciphertext in = rt.encrypt(slots);
  const std::vector<double> ref = pipe.reference(slots);

  const smartpaf::CostModel cm = smartpaf::CostModel::heuristic();
  // One untimed evaluation warms the NTT tables / allocator so the first
  // timed candidate is not penalized.
  (void)pipe.run(rt, smartpaf::Planner::plan(pipe, rt.ctx(), cm), in);

  std::vector<smartpaf::Plan> plans;
  std::vector<PlanRow> rows;
  // same[c]: the first candidate whose schedule equals candidate c's. Only
  // those are timed, so two timings of one plan never meet in the gate.
  std::vector<std::size_t> same;
  for (const Candidate& cand : candidates) {
    plans.push_back(smartpaf::Planner::plan(pipe, rt.ctx(), cm, cand.opts));
    if (plans.size() == 1) std::cout << plans.back().describe();
    std::size_t first = 0;
    while (plans[first].describe() != plans.back().describe()) ++first;
    same.push_back(first);

    PlanRow row;
    row.name = cand.name;
    row.levels = plans.back().levels_used;
    row.predicted = plans.back().predicted_cost;
    for (const auto& s : plans.back().stages) row.ct_mults += s.ops.ct_mults;
    rows.push_back(row);
  }

  // Interleave the repeats round-robin so machine drift lands on every
  // schedule evenly (a sequential sweep would hand the earlier one whatever
  // the machine was doing at the time).
  std::vector<std::vector<double>> times(candidates.size());
  for (int r = 0; r < repeats; ++r)
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (same[c] != c) continue;
      const double start = thread_cpu_ms();
      const Ciphertext out = pipe.run(rt, plans[c], in);
      times[c].push_back(thread_cpu_ms() - start);
      if (r == 0) {
        const std::vector<double> got = rt.decrypt(out);
        for (std::size_t j = 0; j < got.size(); ++j)
          rows[c].max_err = std::max(rows[c].max_err, std::abs(got[j] - ref[j]));
      }
    }
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    // Min over interleaved repeats: the standard noise-robust estimator
    // (drift and scheduler hiccups only ever ADD time).
    const std::vector<double>& ts = times[same[c]];
    rows[c].ms_best = *std::min_element(ts.begin(), ts.end());
    rows[c].max_err = rows[same[c]].max_err;
    std::printf("[bench] %-18s %8.1f ms (predicted %.1f, %d ct-mults)%s%s\n",
                rows[c].name.c_str(), rows[c].ms_best, rows[c].predicted,
                rows[c].ct_mults, same[c] != c ? "  same schedule as " : "",
                same[c] != c ? rows[same[c]].name.c_str() : "");
  }

  Table table({"plan", "levels", "ct_mults", "predicted", "ms_best", "max_err"});
  for (const PlanRow& r : rows)
    table.add_row({r.name, std::to_string(r.levels), std::to_string(r.ct_mults),
                   Table::num(r.predicted, 2), Table::num(r.ms_best, 1),
                   Table::num(r.max_err, 8)});
  table.print(std::cout);

  const std::string json_path = bench::out_dir() + "/pipeline.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PlanRow& r = rows[i];
      std::fprintf(f,
                   "  {\"n\": %zu, \"plan\": \"%s\", \"levels\": %d, \"ct_mults\": %d, "
                   "\"predicted\": %.4f, \"ms_best\": %.4f, \"max_err\": %.3e}%s\n",
                   n, r.name.c_str(), r.levels, r.ct_mults, r.predicted, r.ms_best,
                   r.max_err, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  // Gates. (1) Parity: every plan's output stays within the 2^-20 budget.
  const double tol = std::ldexp(1.0, -20);
  for (const PlanRow& r : rows)
    if (!(r.max_err < tol)) {
      std::printf("[bench] FAIL: %s exceeded the parity budget (%.3e)\n", r.name.c_str(),
                  r.max_err);
      return 1;
    }
  // (2) The pick is minimal in predicted cost by construction, and must not
  // be slower than either forced plan beyond timing noise. A forced plan
  // that is the pick's own schedule shares its samples, so only a different
  // schedule can fail this.
  const double best_forced =
      std::min(rows[1].ms_best, rows[2].ms_best);
  const bool predicted_ok =
      rows[0].predicted <= rows[1].predicted && rows[0].predicted <= rows[2].predicted;
  const bool measured_ok = rows[0].ms_best <= best_forced * 1.10;
  std::printf("[bench] planner's pick never slower than forced plans: %s "
              "(%.1f ms vs best forced %.1f ms; predicted %s)\n",
              predicted_ok && measured_ok ? "yes" : "NO", rows[0].ms_best, best_forced,
              predicted_ok ? "minimal" : "NOT minimal");
  return predicted_ok && measured_ok ? 0 : 1;
}
