// Batched-inference scaling: one packed ciphertext serves B requests, so
// the whole-ciphertext cost (window rotation fan + PAF-ReLU) amortizes as
// 1/B per request. Each row packs B requests client-side
// (Encoder::pack_slots), encrypts, plans the pipeline at the request stride
// (PlanOptions::pack_stride), runs it once, then decrypts and unpacks
// (Encoder::unpack_slots). Per-input latency and per-input rotation/relin
// counts must shrink monotonically as B grows toward slots/2.
//
// Usage: bench_batch [quick]   ("quick" restricts to N = 4096)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "approx/presets.h"
#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace {

using namespace sp;
using namespace sp::fhe;

struct BatchRow {
  std::size_t n = 0;
  int batch = 0;
  int input_size = 0;
  double total_ms = 0.0;
  double eval_ms = 0.0;
  double ms_per_input = 0.0;
  double ct_mults_per_input = 0.0;
  double relins_per_input = 0.0;
  double rotations_per_input = 0.0;
  double max_err = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::size_t n = quick ? 4096 : 8192;
  const auto slots = static_cast<int>(n) / 2;

  // Paper pipeline: alpha=7 minimax PAF (depth 6) behind a 4-tap averaging
  // window (1 level) and the relu envelope (2 levels) -> depth-9 chain.
  const approx::CompositePaf paf = approx::make_paf(approx::PafForm::ALPHA7);
  const smartpaf::FhePipeline pipe = smartpaf::FhePipeline::builder()
                                         .window({0.25, 0.25, 0.25, 0.25})
                                         .paf_relu(paf, /*input_scale=*/1.0)
                                         .build();

  smartpaf::FheRuntime rt(CkksParams::for_depth(n, 9, 40), /*seed=*/2024);
  std::printf("[bench] runtime ready: N=%zu slots=%d depth=9 paf=%s\n", n, slots,
              paf.name().c_str());

  std::vector<int> batch_sizes = {1, 4, 16, 128};
  if (slots / 2 > 1024) batch_sizes.push_back(1024);
  // Stride-2 packing, the densest layout. At input_size < window width the
  // window blends neighbouring requests (reference blends identically, so
  // max_err stays at noise level): the dense rows measure the amortized
  // pipeline cost; request-isolated serving at these strides drops the
  // window (see docs/TUNING.md#batch-size).
  batch_sizes.push_back(slots / 2);

  std::vector<BatchRow> rows;
  for (int b : batch_sizes) {
    const int input_size = slots / b;
    const auto stride = static_cast<std::size_t>(input_size);
    smartpaf::PlanOptions popts;
    popts.pack_stride = stride;
    const smartpaf::Plan plan =
        smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic(), popts);
    rt.rotation_keys(plan.rotation_steps());  // keygen stays off the clock

    sp::Rng rng(17 + static_cast<std::uint64_t>(b));
    std::vector<std::vector<double>> inputs(static_cast<std::size_t>(b));
    for (auto& v : inputs) {
      v.resize(stride);
      for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    }

    sp::Timer timer;
    const std::vector<double> flat = Encoder::pack_slots(inputs, stride, rt.ctx().slot_count());
    const Ciphertext packed = rt.encrypt(flat);
    const double prep_ms = timer.ms();

    const OpCounters before = rt.evaluator().counters;
    timer.reset();
    const Ciphertext out = pipe.run(rt, plan, packed);
    const double eval_ms = timer.ms();
    const OpCountersPerInput per = per_input(rt.evaluator().counters.delta_since(before), b);

    timer.reset();
    const auto outputs = Encoder::unpack_slots(rt.decrypt(out), stride, inputs.size());
    const double decrypt_ms = timer.ms();

    BatchRow row;
    row.n = n;
    row.batch = b;
    row.input_size = input_size;
    row.total_ms = prep_ms + eval_ms + decrypt_ms;
    row.eval_ms = eval_ms;
    row.ms_per_input = row.total_ms / b;
    row.ct_mults_per_input = per.ct_mults;
    row.relins_per_input = per.relins;
    row.rotations_per_input = per.rotations;
    const std::vector<double> ref = pipe.reference(flat, plan.pack_stride);
    for (std::size_t r = 0; r < outputs.size(); ++r)
      for (std::size_t j = 0; j < stride; ++j)
        row.max_err = std::max(row.max_err, std::abs(outputs[r][j] - ref[r * stride + j]));
    rows.push_back(row);
    std::printf("[bench] B=%d done (%.1f ms total, %.3f ms/input)\n", b, row.total_ms,
                row.ms_per_input);
  }

  Table table({"B", "input_size", "total_ms", "ms_per_input", "eval_ms",
               "ct_mults_per_input", "relins_per_input", "rot_per_input", "max_err"});
  for (const BatchRow& r : rows)
    table.add_row({std::to_string(r.batch), std::to_string(r.input_size),
                   Table::num(r.total_ms, 1), Table::num(r.ms_per_input, 4),
                   Table::num(r.eval_ms, 1), Table::num(r.ct_mults_per_input, 4),
                   Table::num(r.relins_per_input, 4), Table::num(r.rotations_per_input, 5),
                   Table::num(r.max_err, 8)});
  table.print(std::cout);

  const std::string json_path = bench::out_dir() + "/batch.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const BatchRow& r = rows[i];
      std::fprintf(f,
                   "  {\"n\": %zu, \"batch\": %d, \"input_size\": %d, \"total_ms\": %.4f, "
                   "\"ms_per_input\": %.6f, \"eval_ms\": %.4f, \"ct_mults_per_input\": %.6f, "
                   "\"relins_per_input\": %.6f, \"rotations_per_input\": %.8f, "
                   "\"max_err\": %.3e}%s\n",
                   r.n, r.batch, r.input_size, r.total_ms, r.ms_per_input, r.eval_ms,
                   r.ct_mults_per_input, r.relins_per_input, r.rotations_per_input, r.max_err,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  // Sanity: amortization must be monotone — per-input latency and per-input
  // rotation/relin counts strictly decrease from B=1 to B=slots/2.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const bool ok = rows[i].ms_per_input < rows[i - 1].ms_per_input &&
                    rows[i].rotations_per_input < rows[i - 1].rotations_per_input &&
                    rows[i].relins_per_input < rows[i - 1].relins_per_input;
    if (!ok) {
      std::printf("[bench] FAIL: per-input figures did not shrink from B=%d to B=%d\n",
                  rows[i - 1].batch, rows[i].batch);
      return 1;
    }
  }
  return 0;
}
