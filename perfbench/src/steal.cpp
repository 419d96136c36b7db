#include "steal.h"

#include <unistd.h>

#include <algorithm>
#include <fstream>

namespace perfbench {

namespace {

/// The aggregate "cpu" line's steal field (the 8th count), in ticks.
unsigned long long read_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long field[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0;
  for (unsigned long long& f : field)
    if (!(in >> f)) return 0;
  return field[7];
}

}  // namespace

StealMonitor::StealMonitor()
    : ticks_per_s_(static_cast<double>(sysconf(_SC_CLK_TCK)) *
                   static_cast<double>(std::max(1u, std::thread::hardware_concurrency()))) {
  samples_.emplace_back(Clock::now(), read_steal_ticks());
  thread_ = std::thread([this] { loop(); });
}

StealMonitor::~StealMonitor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StealMonitor::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stop_; })) {
    lock.unlock();
    const auto now = Clock::now();
    const unsigned long long t = read_steal_ticks();
    lock.lock();
    samples_.emplace_back(now, t);
  }
}

bool StealMonitor::quiet(Clock::time_point a, Clock::time_point b) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto before = [](const auto& s, Clock::time_point t) { return s.first < t; };
  // Last sample at or before a, first sample at or after b.
  auto lo = std::lower_bound(samples_.begin(), samples_.end(), a, before);
  if (lo != samples_.begin() && (lo == samples_.end() || lo->first > a)) --lo;
  auto hi = std::lower_bound(samples_.begin(), samples_.end(), b, before);
  if (hi == samples_.end()) --hi;
  const double stolen = hi->second > lo->second ? static_cast<double>(hi->second - lo->second) : 0;
  const double window_s = std::chrono::duration<double>(hi->first - lo->first).count();
  return stolen <= 0.01 * window_s * ticks_per_s_;
}

double StealMonitor::wait_quiet(double max_s) const {
  const auto t0 = Clock::now();
  for (;;) {
    const auto now = Clock::now();
    const double waited = ms_between(t0, now) / 1e3;
    const auto since = now - std::chrono::seconds(1);
    bool covered = false;  // a full second of samples to judge by
    {
      std::lock_guard<std::mutex> lock(mu_);
      covered = samples_.front().first <= since;
    }
    if (waited >= max_s || (covered && quiet(since, now))) return waited;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

double StealMonitor::seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(samples_.back().second - samples_.front().second) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

Samples clean_latencies(const std::vector<Timed>& reqs, const StealMonitor* m,
                        Clock::duration guard, Report& rep, const std::string& tag) {
  Samples all, clean;
  for (const Timed& r : reqs) {
    all.add(r.ms);
    if (m != nullptr && m->quiet(r.start - guard, r.end)) clean.add(r.ms);
  }
  if (m == nullptr) return all;
  const double frac =
      reqs.empty() ? 0.0 : static_cast<double>(clean.n()) / static_cast<double>(reqs.size());
  const bool filter = frac >= 0.5;
  rep.note("steal_clean_" + tag, frac);
  rep.note("steal_filter_" + tag, filter ? "on" : "off");
  return filter ? clean : all;
}

void settle(const Options& opt, Report& rep, const std::string& stage) {
  constexpr double kMaxWaitS = 5.0;
  rep.note("steal_wait_s_" + stage, opt.steal ? opt.steal->wait_quiet(kMaxWaitS) : 0.0);
}

}  // namespace perfbench
