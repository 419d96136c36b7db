#pragma once

// Host-interference accounting. On a shared virtual machine the hypervisor
// runs other guests on this guest's CPUs from time to time ("steal" time in
// /proc/stat), in bursts of seconds to minutes. The closed loops time
// requests by thread CPU time, which leaves steal out; the open loop's
// latency is wall time by nature (queueing), so there the run-to-run spread
// would measure the neighbours rather than the program. The monitor samples
// the steal counter every 10 ms; a request whose window lost at most 1% of
// the machine's CPU time is clean (on a quiet host a stray tick every second
// or so still dirties a request now and then), and the open loop's latency
// is taken over the clean requests. Before its measured phase the open loop
// also waits (a few seconds at most) for the host to go quiet. Every run
// records the steal share.

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

class StealMonitor {
 public:
  /// Starts sampling on a background thread.
  StealMonitor();
  /// Stops and joins the sampler.
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// True when the host took at most the allowance during [a, b] (rounded
  /// outwards to the sampling grid); always true where the kernel reports
  /// no steal.
  bool quiet(Clock::time_point a, Clock::time_point b) const;
  /// Sleeps until the last second was quiet or `max_s` passed; returns the
  /// seconds waited.
  double wait_quiet(double max_s) const;
  /// Steal seconds, summed over CPUs, since the monitor started.
  double seconds() const;

 private:
  void loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<Clock::time_point, unsigned long long>> samples_;
  double ticks_per_s_ = 0.0;  ///< steal ticks a fully stolen machine accrues
  std::thread thread_;
};

/// Latencies of the requests whose window [start - guard, end] was quiet,
/// or of every request when fewer than half of them are clean (then the run
/// was contended throughout and filtering would leave too little).
/// Records `steal_clean_<tag>` (clean share) and `steal_filter_<tag>`
/// (on/off) in the run record. `m` may be null: every request, no record.
Samples clean_latencies(const std::vector<Timed>& reqs, const StealMonitor* m,
                        Clock::duration guard, Report& rep, const std::string& tag);

/// Waits for a quiet host before the run's `stage`, at most a few seconds,
/// and records the wait as `steal_wait_s_<stage>`.
void settle(const Options& opt, Report& rep, const std::string& stage);

}  // namespace perfbench
