#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {
// Spans open on this thread, innermost last: the parent of a new span.
thread_local std::vector<int> open_stack;
}  // namespace

int Trace::open(const std::string& layer, const std::string& call, std::int64_t request,
                const sp::fhe::Evaluator* ev) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.call = call;
  s.request = request;
  s.parent = open_stack.empty() ? -1 : open_stack.back();
  if (ev != nullptr) s.ops = ev->counters;  // baseline; close() turns it into the delta
  s.start_ms = at(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_stack.push_back(id);
  return id;
}

void Trace::close(int id, const sp::fhe::Evaluator* ev) {
  if (id < 0) return;
  const double end = at(Clock::now());
  {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ms = end;
    if (ev != nullptr) s.ops = ev->counters.delta_since(s.ops);
  }
  for (auto it = open_stack.rbegin(); it != open_stack.rend(); ++it) {
    if (*it == id) {
      open_stack.erase(std::next(it).base());
      break;
    }
  }
}

void Trace::add(const std::string& layer, const std::string& call, std::int64_t request,
                Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.layer = layer;
  s.call = call;
  s.request = request;
  s.start_ms = at(start);
  s.end_ms = at(end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Trace::Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Trace::self_ms() const {
  const std::vector<Span> all = spans();
  std::vector<double> child(all.size(), 0.0);
  for (const Span& s : all)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i)
    out[all[i].layer] += all[i].end_ms - all[i].start_ms - child[i];
  return out;
}

void Trace::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::vector<Span> all = spans();
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"layer\": \"%s\", \"call\": \"%s\", \"request\": %lld, "
                 "\"parent\": %d, \"start_ms\": %.4f, \"end_ms\": %.4f, \"ops\": {",
                 i, s.layer.c_str(), s.call.c_str(), static_cast<long long>(s.request),
                 s.parent, s.start_ms, s.end_ms);
    const auto fields = count_fields(s.ops);
    for (std::size_t k = 0; k < fields.size(); ++k)
      std::fprintf(f, "%s\"%s\": %llu", k ? ", " : "", fields[k].first.c_str(),
                   static_cast<unsigned long long>(fields[k].second));
    std::fprintf(f, "}}%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace perfbench
