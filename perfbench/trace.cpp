#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {
constexpr size_t kMaxWrittenSpans = 50000;
}  // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Offset(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

int Tracer::Begin(const char* name, int64_t item) {
  const double now = Offset(std::chrono::steady_clock::now());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, item, now, now});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int index) {
  spans_[index].end = Offset(std::chrono::steady_clock::now());
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::Add(const char* name, int parent, int64_t item,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end) {
  spans_.push_back({name, parent, item, Offset(start), Offset(end)});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Child intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) children[span.parent].push_back({span.start, span.end});
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    Totals& t = totals[span.name];
    t.count++;
    t.total_s += span.end - span.start;
    t.self_s += std::max(0.0, (span.end - span.start) - covered);
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"summary\": {");
  bool first = true;
  for (const auto& [name, t] : Summarize()) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(t.count), t.total_s * 1e3,
                 t.self_s * 1e3);
    first = false;
  }
  // The summary covers every span; the listing stops at kMaxWrittenSpans so
  // a serving trace (hundreds of thousands of requests) stays small.
  const size_t written = std::min(spans_.size(), kMaxWrittenSpans);
  std::fprintf(out, "},\n\"spans_total\": %zu,\n\"spans\": [", spans_.size());
  for (size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"parent\": %d, \"item\": %lld, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", s.name, s.parent,
                 static_cast<long long>(s.item), s.start * 1e6, s.end * 1e6);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
