// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer of the program, recorded from the
// benchmark's side of the call: name (a layer prefix such as "aut." or
// "ksym."), start, end, parent span and the request it belongs to. Spans
// stay in memory until the run ends; the run then dumps them and derives
// each layer's self time (the span minus the part its child spans cover).
//
// Work the program times internally but does not expose as a call (the
// refinement inside the automorphism search, say) enters the tree as a
// "measured" child span built from the program's own counter: it starts
// with its parent and lasts as long as the counter says.
//
// A disabled Tracer records nothing, so the same replay code runs with
// tracing on and off and the difference is the tracing overhead.

#ifndef KSYMBENCH_BENCH_TRACE_H_
#define KSYMBENCH_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace ksymbench {

struct SpanRecord {
  std::string name;
  double start_ms = 0.0;  // Since the tracer was created.
  double end_ms = 0.0;
  int64_t parent = -1;    // Index into the span list, -1 for a root.
  uint64_t request = 0;
  bool measured = false;  // Built from a program counter, not a call.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  /// Opens a span under the innermost open span and returns its index
  /// (-1 when disabled).
  int64_t Open(const char* name, uint64_t request) {
    if (!enabled_) return -1;
    SpanRecord span;
    span.name = name;
    span.request = request;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ms = NowMs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return open_.back();
  }

  void Close(int64_t index) {
    if (index < 0) return;
    spans_[static_cast<size_t>(index)].end_ms = NowMs();
    open_.pop_back();
  }

  /// Adds a measured child of the innermost open span lasting `ms`.
  void AddMeasured(const char* name, uint64_t request, double ms) {
    if (!enabled_ || open_.empty() || ms <= 0.0) return;
    SpanRecord span;
    span.name = name;
    span.request = request;
    span.parent = open_.back();
    span.start_ms = spans_[static_cast<size_t>(open_.back())].start_ms;
    span.end_ms = span.start_ms + ms;
    span.measured = true;
    spans_.push_back(std::move(span));
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> SelfTimesMs() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        child_ms[static_cast<size_t>(span.parent)] +=
            span.end_ms - span.start_ms;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] +=
          spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    }
    return self;
  }

  /// Total duration per span name (children included).
  std::map<std::string, double> TotalTimesMs() const {
    std::map<std::string, double> total;
    for (const SpanRecord& span : spans_) {
      total[span.name] += span.end_ms - span.start_ms;
    }
    return total;
  }

  double RootTotalMs() const {
    double total = 0.0;
    for (const SpanRecord& span : spans_) {
      if (span.parent < 0) total += span.end_ms - span.start_ms;
    }
    return total;
  }

  /// One JSON object per line.
  bool Dump(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f,\"parent\":%lld,\"request\":%llu,"
                   "\"measured\":%s}\n",
                   i, s.name.c_str(), s.start_ms, s.end_ms,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   s.measured ? "true" : "false");
    }
    return std::fclose(out) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;
};

/// Scoped span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, uint64_t request)
      : tracer_(tracer), index_(tracer.Open(name, request)) {}
  ~Span() { tracer_.Close(index_); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int64_t index_;
};

}  // namespace ksymbench

#endif  // KSYMBENCH_BENCH_TRACE_H_
