#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/stats.h"

namespace perfbench {

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double Samples::p(double pct) const { return v.empty() ? 0.0 : sp::percentile(v, pct); }

double Samples::mean() const {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

std::vector<std::pair<std::string, std::uint64_t>> count_fields(const sp::fhe::OpCounters& c) {
  return {{"ct_mults", c.ct_mults.load()},
          {"relins", c.relins.load()},
          {"rescales", c.rescales.load()},
          {"rotations", c.rotations.load()},
          {"hoisted_rotations", c.hoisted_rotations.load()},
          {"plain_mults", c.plain_mults.load()},
          {"adds", c.adds.load()},
          {"ntt_forward", c.ntts_forward.load()},
          {"ntt_inverse", c.ntts_inverse.load()}};
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::note(const std::string& key, const std::string& value) { notes_[key] = value; }

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  notes_[key] = buf;
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "[perfbench] FAIL: %s\n", why.c_str());
}

void Report::check(double worst, double budget, const std::string& what) {
  ++checked_;
  if (!(worst <= budget)) {  // also catches NaN
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s: |decrypted - mirror| = %.3e over the budget %.3e",
                  what.c_str(), worst, budget);
    fail(buf);
    return;
  }
  worst_ = std::max(worst_, worst);
}

double worst_abs_diff(const std::vector<double>& a, const std::vector<double>& b,
                      std::size_t n) {
  if (a.size() < n || b.size() < n) return std::nan("");
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (!(d <= worst)) worst = d;  // NaN sticks
  }
  return worst;
}

void corrupt_ciphertext(sp::fhe::Ciphertext& ct) {
  sp::fhe::u64& r = ct.parts.at(0).row(0)[0];
  r = r == 0 ? 1 : r - 1;
}

void check_counts_repeat(const Options& opt,
                         const std::vector<sp::fhe::OpCounters>& per_request, Report& rep) {
  if (per_request.empty()) return;
  const auto first = count_fields(per_request.front());
  for (std::size_t i = 1; i < per_request.size(); ++i) {
    if (count_fields(per_request[i]) != first) {
      rep.fail("request " + std::to_string(i) +
               " performed different evaluator/NTT counts than request 0");
      return;
    }
  }

  std::ostringstream line;
  for (const auto& kv : first) line << kv.first << '=' << kv.second << ' ';
  const std::string path =
      opt.out_dir + "/counts-" + opt.workload + "-" + opt.source_id + ".txt";
  std::ifstream in(path);
  std::string recorded;
  if (in && std::getline(in, recorded)) {
    if (recorded != line.str())
      rep.fail("per-request counts differ from an earlier run of the same sources:\n  was " +
               recorded + "\n  now " + line.str());
    return;
  }
  std::ofstream(path) << line.str() << '\n';
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
