// Diagonal-method encrypted matrix-vector: naive per-diagonal rotation loop
// (n1 = 1, no hoisting) vs the planner's hoisted-BSGS split, per matrix
// dimension. Reports rotation counts (the BSGS win), plaintext-mult counts,
// wall time (min over interleaved repeats) and parity vs the plaintext
// product; writes JSON to bench_out/matmul.json.
//
// Gates: every variant stays within the 2^-20 parity budget, and for
// cols >= 64 the hoisted-BSGS schedule performs STRICTLY fewer rotations
// than the naive diagonal loop.
//
// Usage: bench_matmul [quick]   ("quick" restricts to N = 2048 and two dims)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace {

using namespace sp;
using namespace sp::fhe;

struct Row {
  int rows = 0, cols = 0;
  std::string plan;
  int n1 = 0;
  std::size_t rotations = 0;
  std::size_t hoisted = 0;
  std::size_t plain_mults = 0;
  double ms_best = 0.0;
  double max_err = 0.0;
};

std::vector<double> random_matrix(int rows, int cols, std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(rows) * cols);
  for (auto& v : w) v = rng.uniform(-0.5, 0.5);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::size_t n = quick ? 2048 : 4096;
  const int repeats = quick ? 3 : 5;

  struct Dim {
    int rows, cols;
  };
  // Square small/medium plus the classic 784 -> 10 classifier-head shape.
  const std::vector<Dim> dims = quick ? std::vector<Dim>{{64, 64}, {10, 112}}
                                      : std::vector<Dim>{{64, 64}, {256, 256}, {10, 784}};

  std::vector<Row> rows_out;
  bool parity_ok = true, rotations_ok = true;

  for (const Dim dim : dims) {
    // Fresh runtime per dimension: the naive baseline generates one rotation
    // key per nonzero off-diagonal, so scoping the runtime releases that key
    // store before the next dimension.
    smartpaf::FheRuntime rt(CkksParams::for_depth(n, 2, 40), /*seed=*/2024);
    sp::check(static_cast<std::size_t>(dim.cols) <= rt.ctx().slot_count(),
              "bench_matmul: matrix wider than the slot count");
    const auto pipe = smartpaf::FhePipeline::builder()
                          .input_width(static_cast<std::size_t>(dim.cols))
                          .matmul(dim.rows, dim.cols,
                                  random_matrix(dim.rows, dim.cols, 7))
                          .build();

    struct Candidate {
      std::string name;
      smartpaf::PlanOptions opts;
    };
    std::vector<Candidate> candidates(2);
    candidates[0].name = "naive-diagonal";
    candidates[0].opts.force_n1 = 1;
    candidates[0].opts.force_hoist = false;
    candidates[1].name = "hoisted-bsgs";

    sp::Rng rng(17);
    std::vector<double> slots(rt.ctx().slot_count(), 0.0);
    for (int j = 0; j < dim.cols; ++j) slots[static_cast<std::size_t>(j)] =
        rng.uniform(-1.0, 1.0);
    const Ciphertext in = rt.encrypt(slots);
    const std::vector<double> ref = pipe.reference(slots);

    std::vector<smartpaf::Plan> plans;
    std::vector<Row> rows;
    for (const Candidate& cand : candidates) {
      plans.push_back(smartpaf::Planner::plan(pipe, rt.ctx(),
                                              smartpaf::CostModel::heuristic(),
                                              cand.opts));
      rt.rotation_keys(plans.back().rotation_steps());  // keygen outside timing
      Row row;
      row.rows = dim.rows;
      row.cols = dim.cols;
      row.plan = cand.name;
      row.n1 = plans.back().stages[0].n1;
      rows.push_back(row);
    }
    std::printf("[bench] %dx%d ready (N=%zu, bsgs n1=%d, %zu rotation keys)\n",
                dim.rows, dim.cols, n, rows[1].n1, rt.rotation_key_count());

    // Interleave repeats round-robin so machine drift lands evenly.
    std::vector<std::vector<double>> times(candidates.size());
    Evaluator& ev = rt.evaluator();
    for (int r = 0; r < repeats; ++r)
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const OpCounters before = ev.counters;
        sp::Timer t;
        const Ciphertext out = pipe.run(rt, plans[c], in);
        times[c].push_back(t.ms());
        const OpCounters delta = ev.counters.delta_since(before);
        rows[c].rotations = delta.rotations.load();
        rows[c].hoisted = delta.hoisted_rotations.load();
        rows[c].plain_mults = delta.plain_mults.load();
        if (r == 0) {
          const std::vector<double> got = rt.decrypt(out);
          for (int j = 0; j < dim.rows; ++j)
            rows[c].max_err = std::max(rows[c].max_err,
                                       std::abs(got[static_cast<std::size_t>(j)] -
                                                ref[static_cast<std::size_t>(j)]));
        }
      }
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      rows[c].ms_best = *std::min_element(times[c].begin(), times[c].end());
      rows_out.push_back(rows[c]);
    }

    const double tol = std::ldexp(1.0, -20);
    for (const Row& row : rows)
      if (!(row.max_err < tol)) {
        std::printf("[bench] FAIL: %dx%d %s parity %.3e\n", row.rows, row.cols,
                    row.plan.c_str(), row.max_err);
        parity_ok = false;
      }
    if (dim.cols >= 64 && !(rows[1].rotations < rows[0].rotations)) {
      std::printf("[bench] FAIL: %dx%d hoisted-BSGS rotations (%zu) not strictly "
                  "fewer than naive (%zu)\n",
                  dim.rows, dim.cols, rows[1].rotations, rows[0].rotations);
      rotations_ok = false;
    }
  }

  Table table({"dims", "plan", "n1", "rotations", "hoisted", "plain_mults",
               "ms_best", "max_err"});
  for (const Row& r : rows_out)
    table.add_row({std::to_string(r.rows) + "x" + std::to_string(r.cols), r.plan,
                   std::to_string(r.n1), std::to_string(r.rotations),
                   std::to_string(r.hoisted), std::to_string(r.plain_mults),
                   Table::num(r.ms_best, 1), Table::num(r.max_err, 8)});
  table.print(std::cout);

  const std::string json_path = bench::out_dir() + "/matmul.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows_out.size(); ++i) {
      const Row& r = rows_out[i];
      std::fprintf(f,
                   "  {\"n\": %zu, \"rows\": %d, \"cols\": %d, \"plan\": \"%s\", "
                   "\"n1\": %d, \"rotations\": %zu, \"hoisted\": %zu, "
                   "\"plain_mults\": %zu, \"ms_best\": %.4f, \"max_err\": %.3e}%s\n",
                   n, r.rows, r.cols, r.plan.c_str(), r.n1, r.rotations, r.hoisted,
                   r.plain_mults, r.ms_best, r.max_err,
                   i + 1 < rows_out.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  std::printf("[bench] parity within 2^-20: %s; BSGS strictly fewer rotations "
              "for n >= 64: %s\n",
              parity_ok ? "yes" : "NO", rotations_ok ? "yes" : "NO");
  return parity_ok && rotations_ok ? 0 : 1;
}
