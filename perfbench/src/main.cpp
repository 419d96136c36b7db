// Private-inference benchmark program.
//
//   perfbench --workload <paf_relu|lenet_roundtrip|serve_open> --seed <n>
//             --seconds <s> --trace <0|1> [--corrupt 0|1]
//             [--source-id <digest>] [--commit <sha>] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// with spans recorded around every library call on about half its requests
// and prints the per-layer metrics instead. Every output is decrypted and
// checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} and the exit code is 1 on
// any miss, rejection or lost request. The run record (lanes, SIMD tier,
// ring, chain, seeds, sample counts) is written next to the spans under
// --out-dir. perfbench/run.py builds this binary and runs it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "fhe/simd/simd.h"
#include "harness.h"
#include "steal.h"
#include "workloads.h"

namespace {

using namespace perfbench;

using Names = std::vector<std::pair<std::string, std::string>>;  // name, unit

// The metric names and units BENCHMARK.json declares, in its order.
const Names kEndToEnd = {
    {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},     {"throughput_rps", "1/s"},
    {"setup_s", "s"},         {"precision_bits", "bits"},   {"ok_frac", "frac"},
    {"peak_rss_mb", "MiB"}};

const Names kPerLayer = {
    {"serve.queue_wait_ms_p50", "ms"},     {"serve.queue_wait_ms_p90", "ms"},
    {"serve.group_ms_p50", "ms"},          {"serve.batch_size_mean", "count"},
    {"serve.flush_full", "count"},         {"serve.flush_deadline", "count"},
    {"serve.rejected", "count"},           {"serve.gen_lag_ms_max", "ms"},
    {"pipeline.run_ms_p50", "ms"},         {"pipeline.levels_used", "count"},
    {"planner.plan_ms", "ms"},             {"poly_eval.ct_mults", "count"},
    {"poly_eval.relins", "count"},         {"evaluator.ct_mults", "count"},
    {"evaluator.relins", "count"},         {"evaluator.rescales", "count"},
    {"evaluator.rotations", "count"},      {"evaluator.hoisted_rotations", "count"},
    {"evaluator.plain_mults", "count"},    {"evaluator.adds", "count"},
    {"evaluator.ct_mult_ms", "ms"},        {"evaluator.relin_ms", "ms"},
    {"evaluator.rescale_ms", "ms"},        {"evaluator.rotate_ms", "ms"},
    {"evaluator.hoisted_rotate_ms", "ms"}, {"evaluator.plain_mult_ms", "ms"},
    {"evaluator.attributed_ms", "ms"},     {"kernel.ntt_forward", "count"},
    {"kernel.ntt_inverse", "count"},       {"kernel.ntt_row_us", "us"},
    {"kernel.ntt_bytes", "B"},             {"client.encrypt_ms", "ms"},
    {"client.decrypt_ms", "ms"},           {"encoder.cache_entries", "count"},
    {"io.request_bytes", "B"},             {"io.response_bytes", "B"},
    {"io.serialize_ms", "ms"},             {"io.deserialize_ms", "ms"},
    {"io.key_bytes", "B"},                 {"serve.self_ms", "ms"},
    {"pipeline.self_ms", "ms"},            {"client.self_ms", "ms"},
    {"io.self_ms", "ms"},                  {"trace.coverage", "ratio"},
    {"trace.overhead_ms", "ms"}};

const std::map<std::string, std::function<void(const Options&, Report&)>> kWorkloads = {
    {"paf_relu", run_paf_relu},
    {"lenet_roundtrip", run_lenet_roundtrip},
    {"serve_open", run_serve_open}};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paf_relu|lenet_roundtrip|"
               "serve_open> --seed <n> --seconds <s> --trace <0|1> [--corrupt 0|1] "
               "[--source-id <id>] [--out-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") o.trace = val == "1";
    else if (key == "--corrupt") o.corrupt = val == "1";
    else if (key == "--source-id") o.source_id = val;
    else if (key == "--commit") o.commit = val;
    else if (key == "--out-dir") o.out_dir = val;
    else usage("unknown argument " + key);
  }
  if (kWorkloads.count(o.workload) == 0) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

/// `{"name": {"value": v, "unit": u[, "samples": n]}, ...}` over `names`.
std::string metrics_json(const Report& rep, const Names& names, bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Report::Metric& m = rep.get(names[i].first);
    out += (i ? ", " : "") + quoted(names[i].first) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int lanes = std::min(kLanes, nproc);
  sp::ThreadPool::set_global_threads(lanes);
  mkdir(opt.out_dir.c_str(), 0755);

  Report rep;
  const StealMonitor steal;
  opt.steal = &steal;
  const auto t0 = Clock::now();
  try {
    kWorkloads.at(opt.workload)(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s aborted: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  // Share of the machine's CPU time the host gave to other guests.
  rep.note("steal_frac", steal.seconds() / (ms_between(t0, Clock::now()) / 1e3 * nproc));

  const double sent = static_cast<double>(rep.attempted());
  const double failed_frac = sent > 0 ? static_cast<double>(rep.failed()) / sent : 1.0;
  const Names& names = opt.trace ? kPerLayer : kEndToEnd;
  if (!opt.trace) {
    rep.metric("precision_bits", -std::log2(std::max(rep.worst_error(), std::ldexp(1.0, -60))),
               "bits", rep.checked());
    rep.metric("ok_frac", 1.0 - failed_frac, "frac", rep.attempted());
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  }
  std::string not_applicable;
  for (const auto& [name, unit] : names) {
    if (rep.has(name)) {
      if (rep.get(name).unit == unit) continue;
      std::fprintf(stderr, "[perfbench] BUG: %s reports %s in %s, declared %s\n",
                   opt.workload.c_str(), name.c_str(), rep.get(name).unit.c_str(), unit.c_str());
      return 1;
    }
    if (!opt.trace) {
      std::fprintf(stderr, "[perfbench] BUG: %s did not report %s\n", opt.workload.c_str(),
                   name.c_str());
      return 1;
    }
    // A layer this workload never enters (e.g. serve on paf_relu) reads 0.
    rep.metric(name, 0.0, unit, 0);
    not_applicable += (not_applicable.empty() ? "" : " ") + name;
  }

  rep.note("workload", opt.workload);
  rep.note("seed", static_cast<double>(opt.seed));
  rep.note("key_seed", static_cast<double>(kKeySeed));
  rep.note("seconds", opt.seconds);
  rep.note("trace", opt.trace ? "1" : "0");
  rep.note("lanes", lanes);
  rep.note("nproc", nproc);
  rep.note("simd_tier", sp::fhe::simd::tier_name(sp::fhe::simd::active_tier()));
  rep.note("source_id", opt.source_id);
  rep.note("commit", opt.commit);
  rep.note("failed_frac", failed_frac);
  rep.note("checked_outputs", static_cast<double>(rep.checked()));
  if (!not_applicable.empty()) rep.note("not_applicable", not_applicable);

  std::string record = "{";
  for (const auto& kv : rep.notes())
    record += (record.size() > 1 ? ", " : "") + quoted(kv.first) + ": " + quoted(kv.second);
  record += "}";
  const std::string head = std::string("{\"correct\": ") + (rep.correct() ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(rep.attempted()) +
                           ", \"failed\": " + std::to_string(rep.failed());
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" + (opt.trace ? "1" : "0") +
                           ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s, \"record\": %s, \"metrics\": %s}\n", head.c_str(), record.c_str(),
                 metrics_json(rep, names, true).c_str());
    std::fclose(f);
  }

  std::printf("[perfbench] %s seed=%llu lanes=%d/%d simd=%s steal=%s record=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), lanes, nproc,
              rep.notes().at("simd_tier").c_str(), rep.notes().at("steal_frac").c_str(),
              path.c_str());
  for (const auto& [name, unit] : names) {
    const Report::Metric& m = rep.get(name);
    std::printf("  %-28s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value, unit.c_str(),
                m.samples);
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(), metrics_json(rep, names, false).c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
