// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each module's public functions (nothing
// inside the library is instrumented), kept in memory, and written out once
// the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  // Opens a span whose parent is the innermost open span; returns its index.
  // `item` is the step or request id the span belongs to.
  int Begin(const char* name, int64_t item);
  void End(int index);
  // Records a finished span with an explicit parent (-1: none), for work
  // whose spans interleave with other items' (requests in flight).
  int Add(const char* name, int parent, int64_t item,
          std::chrono::steady_clock::time_point start,
          std::chrono::steady_clock::time_point end);

  struct Totals {
    int64_t count = 0;
    double total_s = 0;
    // Duration minus the part of it that child spans cover.
    double self_s = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  // Writes the per-name summary and the first spans as JSON.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t item;
    double start;  // seconds since the tracer was created
    double end;
  };
  double Offset(std::chrono::steady_clock::time_point t) const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t item)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Begin(name, item)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
