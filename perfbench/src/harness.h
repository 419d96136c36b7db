#pragma once

// Shared pieces of the private-inference benchmark: the command line, sample
// summaries, the result report (metrics + run record + correctness tally)
// and the helpers every workload uses to check its outputs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fhe/evaluator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time the calling thread has run, in ms. The kernel leaves out the
/// time the hypervisor gave this CPU to other guests (steal).
double thread_cpu_ms();

/// One timed stretch of work: its wall-clock window and its latency `ms`.
/// Closed loops take `ms` from the caller's CPU time (see kLanes); the open
/// loop takes it from the wall clock, due time to outcome.
struct Timed {
  Clock::time_point start, end;
  double ms = 0.0;

  double wall_ms() const { return ms_between(start, end); }
};

/// Starts timing on construction; stop() gives the window and the calling
/// thread's CPU time since.
class Lap {
 public:
  Timed stop() const { return Timed{start_, Clock::now(), thread_cpu_ms() - cpu0_}; }

 private:
  Clock::time_point start_ = Clock::now();
  double cpu0_ = thread_cpu_ms();
};

/// FHE thread-pool lanes every workload runs on. One lane runs every FHE
/// call inline on the calling thread, so a request's latency is that
/// thread's CPU time: its wall time on a CPU of its own, without the bursts
/// of host steal a shared virtual machine suffers. (On four lanes a steal
/// burst on any one CPU stalls every fork-join barrier, and one burst made a
/// request several times slower.)
constexpr int kLanes = 1;
/// Key material is always generated from this seed, so the program under
/// test sees the same keys in every run; only the inputs follow --seed.
constexpr std::uint64_t kKeySeed = 2024;

class StealMonitor;  // steal.h

/// One run's command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test seam: damage one response ciphertext before it is decrypted,
  /// so the parity check must report a miss.
  bool corrupt = false;
  /// Digest of the sources the binary was built from (run.py computes it).
  std::string source_id = "unknown";
  /// Git commit of the sources, "none" outside a git checkout.
  std::string commit = "none";
  /// Directory the run record, the spans and the count ledger go to.
  std::string out_dir = "perfbench-results";
  /// Host-steal monitor running for the whole run (set by main).
  const StealMonitor* steal = nullptr;
};

/// Samples of one quantity, summarized by nearest-rank percentiles.
struct Samples {
  std::vector<double> v;

  void add(double x) { v.push_back(x); }
  std::size_t n() const { return v.size(); }
  double p(double pct) const;
  double mean() const;
};

/// Per-request evaluator tallies, in a fixed order, for printing and the
/// exact-repeat check.
std::vector<std::pair<std::string, std::uint64_t>> count_fields(const sp::fhe::OpCounters& c);

/// What one workload run produces: named metrics with their sample counts,
/// the run record, and the correctness tally over every checked output.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  const Metric& get(const std::string& name) const { return metrics_.at(name); }

  /// Adds a key to the run record.
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  const std::map<std::string, std::string>& notes() const { return notes_; }

  /// One request sent: counted in `attempted`.
  void sent() { ++attempted_; }
  /// A request that was rejected, lost or failed before an output existed.
  void fail(const std::string& why);
  /// Checks one decrypted output against its plaintext mirror: `worst` is
  /// the largest |decrypted - mirror| over the output's values. A value
  /// over `budget` (or not finite) is a miss and counts as failed.
  void check(double worst, double budget, const std::string& what);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  std::size_t checked() const { return checked_; }
  double worst_error() const { return worst_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0 && checked_ > 0; }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checked_ = 0;
  double worst_ = 0.0;
};

/// Largest |a[i] - b[i]| over the first `n` entries (NaN-propagating, so a
/// garbage decryption never passes).
double worst_abs_diff(const std::vector<double>& a, const std::vector<double>& b,
                      std::size_t n);

/// Damages one residue of the ciphertext (the --corrupt seam).
void corrupt_ciphertext(sp::fhe::Ciphertext& ct);

/// Asserts that every request of a run performed exactly the same evaluator
/// and NTT work as the first one, and that it matches what earlier runs of
/// the same sources recorded in the count ledger under `out_dir`. A mismatch
/// is reported as a failure.
void check_counts_repeat(const Options& opt, const std::vector<sp::fhe::OpCounters>& per_request,
                         Report& rep);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
