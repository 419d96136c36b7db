#pragma once

// In-memory span recorder for the traced run. Spans are opened and closed
// by the benchmark around its own calls into the library's layers (nothing
// inside the library is instrumented), carry the Evaluator::counters delta
// over their interval, and are written out as JSON when the run ends.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fhe/evaluator.h"
#include "harness.h"

namespace perfbench {

class Trace {
 public:
  struct Span {
    std::string layer;  ///< serve, pipeline, client or io; "serve.group" is not a layer
    std::string call;   ///< the library call the span wraps
    std::int64_t request = -1;
    int parent = -1;    ///< enclosing span on the same thread, -1 for a root
    double start_ms = 0.0;  ///< since the trace was created
    double end_ms = 0.0;
    sp::fhe::OpCounters ops;  ///< evaluator work inside the span (zero when none was watched)
  };

  /// A disabled trace records nothing; every call returns at once.
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Opens a span on the calling thread; `ev` (may be null) is the evaluator
  /// whose counters the span diffs. Returns its id, -1 when disabled.
  int open(const std::string& layer, const std::string& call, std::int64_t request,
           const sp::fhe::Evaluator* ev);
  /// Closes a span opened on the calling thread.
  void close(int id, const sp::fhe::Evaluator* ev);
  /// Records a span whose ends were timed elsewhere (e.g. on two threads).
  void add(const std::string& layer, const std::string& call, std::int64_t request,
           Clock::time_point start, Clock::time_point end);

  /// Layer -> summed self time in ms: each span's duration minus the part
  /// its child spans cover.
  std::map<std::string, double> self_ms() const;
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans() const;
  double at(Clock::time_point t) const { return ms_between(epoch_, t); }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Trace& t, const char* layer, const char* call, std::int64_t request,
        const sp::fhe::Evaluator* ev = nullptr)
      : t_(t), ev_(ev), id_(t.open(layer, call, request, ev)) {}
  ~Scope() { t_.close(id_, ev_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace& t_;
  const sp::fhe::Evaluator* ev_;
  int id_;
};

}  // namespace perfbench
