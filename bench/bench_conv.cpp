// Channel-packed encrypted convolution: naive per-window rotation fan
// (force_n1 = 0, no hoisting — the im2col baseline, one rotation per
// distinct window/channel shift) vs the planner's hoisted channel-offset
// BSGS split, per channel count. Reports rotation counts (the BSGS win),
// plaintext-mask counts, wall time (min over interleaved repeats) and parity
// vs the plaintext mirror; writes JSON to bench_out/conv.json.
//
// Gates: every variant stays within the 2^-20 parity budget, and at
// >= 8 channels the planner's packed schedule performs STRICTLY fewer
// rotations than the naive fan.
//
// Usage: bench_conv [quick]   ("quick" restricts to two channel counts)
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
  int channels = 0;
  std::string plan;
  int conv_n1 = 0;
  std::size_t rotations = 0;
  std::size_t hoisted = 0;
  std::size_t plain_mults = 0;
  double ms_best = 0.0;
  double max_err = 0.0;
};

std::vector<double> random_kernel(int out_ch, int in_ch, int k, std::uint64_t seed) {
  sp::Rng rng(seed);
  const double a = 1.5 / (k * k * std::sqrt(static_cast<double>(in_ch)));
  std::vector<double> w(static_cast<std::size_t>(out_ch) * in_ch * k * k);
  for (auto& v : w) v = rng.uniform(-a, a);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::size_t n = 2048;
  const int repeats = quick ? 3 : 5;
  const int img = 10, kernel = 3;
  const std::vector<int> channel_counts =
      quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8};

  std::vector<Row> rows_out;
  bool parity_ok = true, rotations_ok = true;

  for (const int ch : channel_counts) {
    // Fresh runtime per channel count: the naive fan generates one rotation
    // key per distinct term shift, so scoping the runtime releases that key
    // store before the next configuration.
    smartpaf::FheRuntime rt(CkksParams::for_depth(n, 2, 40), /*seed=*/2024);
    const auto pipe = smartpaf::FhePipeline::builder()
                          .input_grid({ch, img, img})
                          .conv(ch, ch, img, img, kernel, 1,
                                random_kernel(ch, ch, kernel, 7))
                          .build();
    const auto layouts = pipe.stage_layouts(rt.ctx().slot_count());
    sp::check(layouts.front().first.blocks == 1,
              "bench_conv: grid wider than the slot count");

    struct Candidate {
      std::string name;
      smartpaf::PlanOptions opts;
    };
    std::vector<Candidate> candidates(2);
    candidates[0].name = "naive-fan";
    candidates[0].opts.force_n1 = 0;
    candidates[0].opts.force_hoist = false;
    candidates[1].name = "packed-bsgs";

    sp::Rng rng(17);
    std::vector<double> logical(static_cast<std::size_t>(ch) * img * img);
    for (auto& v : logical) v = rng.uniform(-1.0, 1.0);
    const auto packed =
        smartpaf::pack_layout(logical, layouts.front().first, rt.ctx().slot_count());
    const Ciphertext in = rt.encrypt(packed.at(0));
    const std::vector<double> ref = pipe.reference(packed.at(0));

    std::vector<smartpaf::Plan> plans;
    std::vector<Row> rows;
    for (const Candidate& cand : candidates) {
      plans.push_back(smartpaf::Planner::plan(pipe, rt.ctx(),
                                              smartpaf::CostModel::heuristic(),
                                              cand.opts));
      rt.rotation_keys(plans.back().rotation_steps());  // keygen outside timing
      Row row;
      row.channels = ch;
      row.plan = cand.name;
      row.conv_n1 = plans.back().stages[0].n1;
      rows.push_back(row);
    }
    std::printf("[bench] %dch %dx%d k%d ready (N=%zu, conv n1=%d, %zu rotation keys)\n",
                ch, img, img, kernel, n, rows[1].conv_n1, rt.rotation_key_count());

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
          for (std::size_t j = 0; j < ref.size(); ++j)
            rows[c].max_err = std::max(rows[c].max_err, std::abs(got[j] - ref[j]));
        }
      }
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      rows[c].ms_best = *std::min_element(times[c].begin(), times[c].end());
      rows_out.push_back(rows[c]);
    }

    const double tol = std::ldexp(1.0, -20);
    for (const Row& row : rows)
      if (!(row.max_err < tol)) {
        std::printf("[bench] FAIL: %dch %s parity %.3e\n", row.channels,
                    row.plan.c_str(), row.max_err);
        parity_ok = false;
      }
    if (ch >= 8 && !(rows[1].rotations < rows[0].rotations)) {
      std::printf("[bench] FAIL: %dch packed-BSGS rotations (%zu) not strictly "
                  "fewer than naive fan (%zu)\n",
                  ch, rows[1].rotations, rows[0].rotations);
      rotations_ok = false;
    }
  }

  Table table({"channels", "plan", "conv_n1", "rotations", "hoisted",
               "plain_mults", "ms_best", "max_err"});
  for (const Row& r : rows_out)
    table.add_row({std::to_string(r.channels), r.plan, std::to_string(r.conv_n1),
                   std::to_string(r.rotations), std::to_string(r.hoisted),
                   std::to_string(r.plain_mults), Table::num(r.ms_best, 1),
                   Table::num(r.max_err, 8)});
  table.print(std::cout);

  const std::string json_path = bench::out_dir() + "/conv.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows_out.size(); ++i) {
      const Row& r = rows_out[i];
      std::fprintf(f,
                   "  {\"n\": %zu, \"channels\": %d, \"image\": %d, \"kernel\": %d, "
                   "\"plan\": \"%s\", \"conv_n1\": %d, \"rotations\": %zu, "
                   "\"hoisted\": %zu, \"plain_mults\": %zu, \"ms_best\": %.4f, "
                   "\"max_err\": %.3e}%s\n",
                   n, r.channels, img, kernel, r.plan.c_str(), r.conv_n1,
                   r.rotations, r.hoisted, r.plain_mults, r.ms_best, r.max_err,
                   i + 1 < rows_out.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  std::printf("[bench] parity within 2^-20: %s; packed plan strictly fewer "
              "rotations at >= 8 channels: %s\n",
              parity_ok ? "yes" : "NO", rotations_ok ? "yes" : "NO");
  return parity_ok && rotations_ok ? 0 : 1;
}
