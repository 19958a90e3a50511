// perfbench: the repo benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--corrupt-reference]
//
// Sets the workload up, measures one window of wall-clock time, checks the
// outputs, and prints one JSON object as the last line of standard output.
// --trace 0 reports the end-to-end metrics, and sets the workload up again
// at points spread over the window's second half (fastest set-up time);
// --trace 1 measures an untraced and a traced half-window and
// reports the per-layer metrics, from spans recorded around the calls into
// each module and from deltas of the runtime's always-on counters.
// Human-readable lines before the JSON start with "# ".
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kSetUps = 16;
// The machine's background load comes in phases lasting seconds, with
// short quiet gaps inside them, so the end-to-end figures are best-slice
// statistics over short slices (README.md, "Noise").
constexpr double kSliceSeconds = 0.1;
constexpr size_t kSliceUnits = 2;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool corrupt_reference = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && have_seconds && have_trace;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "serve_mlp") return MakeServeWorkload(seed);
  return MakeTrainWorkload(name, seed);
}

// Latencies in buckets 1% wide from 1 us up: whole-window quantiles in
// constant memory. Memory that grew with the number of units would show
// in peak_rss_mb.
class Histogram {
 public:
  void Add(double seconds) {
    const double us = std::max(seconds * 1e6, 1.0);
    const size_t bucket = static_cast<size_t>(std::log(us) / std::log(1.01));
    if (bucket >= counts_.size()) counts_.resize(bucket + 1);
    ++counts_[bucket];
    ++count_;
  }
  int64_t count() const { return count_; }
  // Upper edge of the bucket holding quantile q, in seconds.
  double Quantile(double q) const {
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
    int64_t seen = 0;
    for (size_t bucket = 0; bucket < counts_.size(); ++bucket) {
      seen += counts_[bucket];
      if (seen >= rank) return std::pow(1.01, bucket + 1) * 1e-6;
    }
    return 0;
  }

 private:
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
};

// A closed loop of back-to-back units, cut into consecutive slices of at
// least kSliceSeconds and kSliceUnits units each as the units complete. A
// slice's time runs from the completion before its first unit to its last.
// Units after the last full slice are in none; if no slice fills, the
// window is one.
class Window {
 public:
  explicit Window(double examples_per_unit)
      : examples_per_unit_(examples_per_unit) {}

  // A unit that completed at `end_s` (window time) after `latency_s`.
  void Add(double end_s, double latency_s) {
    latencies_.Add(latency_s);
    slice_.push_back(latency_s);
    last_end_s_ = end_s;
    if (slice_.size() >= kSliceUnits &&
        end_s - slice_start_s_ >= kSliceSeconds) {
      CloseSlice();
    }
  }
  void Finish() {
    if (rates_.empty() && !slice_.empty()) CloseSlice();
  }

  int64_t units() const { return latencies_.count(); }
  double last_end_s() const { return last_end_s_; }
  const Histogram& latencies() const { return latencies_; }
  // Highest throughput over slices.
  double BestRate() const {
    return *std::max_element(rates_.begin(), rates_.end());
  }
  // Lowest median latency over slices.
  double BestMedianLatency() const {
    return *std::min_element(medians_.begin(), medians_.end());
  }

  int64_t drained = 0;  // in flight at the close, completed untimed

 private:
  void CloseSlice() {
    rates_.push_back(static_cast<double>(slice_.size()) * examples_per_unit_ /
                     (last_end_s_ - slice_start_s_));
    medians_.push_back(Median(slice_));
    slice_.clear();  // keeps its capacity
    slice_start_s_ = last_end_s_;
  }

  double examples_per_unit_;
  Histogram latencies_;
  std::vector<double> slice_;  // latencies of the open slice
  double slice_start_s_ = 0;
  double last_end_s_ = 0;
  std::vector<double> rates_;
  std::vector<double> medians_;
};

// Runs units back to back for `seconds` of window time. At each point of
// `pause_at` (window seconds, ascending) it calls `pause` between two units;
// the window clock stops while it runs.
Window RunWindow(Workload& workload, double seconds, Tracer* tracer,
                 const std::vector<double>& pause_at = {},
                 const std::function<void()>& pause = nullptr) {
  Window window(workload.traits().examples_per_unit);
  Clock::time_point start = Clock::now();
  size_t next_pause = 0;
  do {
    if (next_pause < pause_at.size() &&
        window.last_end_s() >= pause_at[next_pause]) {
      const Clock::time_point paused = Clock::now();
      pause();
      start += Clock::now() - paused;
      ++next_pause;
    }
    const double latency = workload.Step(tracer, window.units());
    window.Add(SecondsSince(start), latency);
  } while (window.last_end_s() < seconds);
  window.Finish();
  const int64_t before = workload.attempted();
  workload.Drain();
  window.drained = workload.attempted() - before;
  return window;
}

// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
// is not used: it carries over the peak of the image that exec'd this one,
// such as the Python launcher's.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The allocator's high-water gauge holds the process-lifetime maximum;
// re-arming it at the window start makes its end value the window's.
tfe::profiler::Gauge* HighWater() {
  return tfe::profiler::Metrics().GetGauge("allocator.high_water_bytes");
}
void RearmHighWater() {
  HighWater()->Set(
      tfe::profiler::Metrics().GetGauge("allocator.in_use_bytes")->value());
}

// Per-layer metrics over one traced window (README.md, per-layer table).
std::vector<Metric> PerLayer(const Workload& workload, const Window& window,
                             const CounterSnapshot& before,
                             const CounterSnapshot& after,
                             const std::map<std::string, Tracer::Totals>& spans,
                             double untraced_rate, double traced_rate,
                             double dispatch_overhead_us) {
  const Traits traits = workload.traits();
  // Counters are per unit of work completed or drained in the window.
  const double units = static_cast<double>(window.units() + window.drained);
  auto delta = [&](const char* name) {
    return static_cast<double>(before.Delta(after, name));
  };
  auto ratio = [](double x, double base) { return base > 0 ? x / base : 0.0; };
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? Tracer::Totals{} : it->second;
  };
  auto mean_s = [&](const char* name) {
    const Tracer::Totals t = span(name);
    return t.count == 0 ? 0.0 : t.total_s / static_cast<double>(t.count);
  };
  const double eager_ops =
      static_cast<double>(after.eager_ops - before.eager_ops);
  const double nodes =
      static_cast<double>(after.executor_nodes - before.executor_nodes);
  const double fused_ops = static_cast<double>(after.fused_ops - before.fused_ops);
  const double eager_self_s =
      span("forward").self_s + span("gradient").self_s + span("apply").self_s;
  const double cache_hits = delta("fusion.program_cache.hit");
  const double freelist_hits = delta("allocator.freelist_hits");
  const double planned = delta("allocator.plan.planned_allocs");
  const double alloc_calls = delta("allocator.alloc_calls");
  const double loop_iterations = delta("loop.iterations");
  const double batches = delta("serving.batches");

  return {
      {"runtime.ops_per_step", ratio(eager_ops, units), "count"},
      {"runtime.forward_ms", mean_s("forward") * 1e3, "ms"},
      {"runtime.us_per_op", ratio(eager_self_s * 1e6, eager_ops), "us"},
      {"runtime.dispatch_overhead_us", dispatch_overhead_us, "us"},
      {"runtime.sync_ms", mean_s("sync") * 1e3, "ms"},
      {"runtime.enqueued_per_step", ratio(delta("queue.enqueued"), units),
       "count"},
      {"kernels.fused_ops_ratio",
       ratio(fused_ops, traits.eager ? eager_ops : nodes), "ratio"},
      {"kernels.program_cache_hit_ratio",
       ratio(cache_hits, cache_hits + delta("fusion.program_cache.miss")),
       "ratio"},
      {"autodiff.gradient_ms", mean_s("gradient") * 1e3, "ms"},
      {"autodiff.tape_entries_per_step",
       ratio(static_cast<double>(workload.tape_entries()),
             static_cast<double>(span("forward").count)),
       "count"},
      {"state.apply_ms", mean_s("apply") * 1e3, "ms"},
      {"staging.lookup_us", mean_s("lookup") * 1e6, "us"},
      {"staging.call_ms", mean_s("call") * 1e3, "ms"},
      {"staging.retraces", delta("staging.cache_misses"), "count"},
      {"staging.loop_iterations_per_step",
       ratio(loop_iterations + delta("loop.grad_iterations"), units), "count"},
      {"staging.loop_body_hit_ratio",
       ratio(delta("loop.body_cache_hit"), loop_iterations), "ratio"},
      {"executor.runs_per_step", ratio(delta("executor.runs"), units), "count"},
      {"executor.nodes_per_step", ratio(nodes, units), "count"},
      {"executor.us_per_node", ratio(span(traits.node_span).total_s * 1e6, nodes),
       "us"},
      {"graph.plan_coverage", ratio(planned, planned + alloc_calls), "ratio"},
      {"tensor.alloc_calls_per_step", ratio(alloc_calls, units), "count"},
      {"tensor.freelist_hit_ratio",
       ratio(freelist_hits, freelist_hits + delta("allocator.freelist_misses")),
       "ratio"},
      {"tensor.donations_per_step", ratio(delta("allocator.donations"), units),
       "count"},
      {"tensor.high_water_mb",
       static_cast<double>(HighWater()->value()) / (1024.0 * 1024.0), "MB"},
      {"serving.submit_us", mean_s("submit") * 1e6, "us"},
      {"serving.await_ms", mean_s("await") * 1e3, "ms"},
      {"serving.batch_fill",
       traits.max_batch == 0
           ? 0.0
           : ratio(delta("serving.batched_calls"), batches) / traits.max_batch,
       "ratio"},
      {"serving.unbatched_calls", delta("serving.unbatched_calls"), "count"},
      {"serving.call_errors", delta("serving.call_errors"), "count"},
      {"bench.trace_overhead", ratio(untraced_rate, traced_rate), "ratio"},
  };
}

void PrintResult(const Workload& workload, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              workload.failed() == 0 ? "true" : "false",
              static_cast<long long>(workload.attempted()),
              static_cast<long long>(workload.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Clock::time_point context_start = Clock::now();
  CreateContext();
  std::printf("# context creation %.6f s (once per process; not in setup_s)\n",
              SecondsSince(context_start));
  std::vector<double> setups;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    workload->SetUp();
    setups.push_back(SecondsSince(start));
  };
  set_up();

  std::vector<Metric> metrics;
  if (!args.trace) {
    // The further set-ups are spread over the window's second half, so
    // they do not all fall into one phase of the machine's background load
    // (README.md, "Noise"). The first of them reads the peak resident set
    // before any set-up leaves graphs behind in the function library.
    double peak_rss_mb = 0;
    auto pause = [&] {
      if (peak_rss_mb == 0) peak_rss_mb = PeakRssMb();
      set_up();
    };
    std::vector<double> pause_at;
    for (int i = 0; i + 1 < kSetUps; ++i) {
      pause_at.push_back(args.seconds * (0.5 + 0.5 * i / (kSetUps - 1)));
    }
    const Window window =
        RunWindow(*workload, args.seconds, nullptr, pause_at, pause);
    while (static_cast<int>(setups.size()) < kSetUps) pause();
    workload->Check(args.corrupt_reference);
    metrics = {
        {"examples_per_s", window.BestRate(), "1/s"},
        {"latency_p50_ms", window.BestMedianLatency() * 1e3, "ms"},
        {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    // Whole-window figures, for reading; they carry the background load.
    std::printf("# %s seed=%llu: %lld units; whole window: p50 %.6g ms, "
                "p99 %.6g ms (%lld samples, %lld beyond p99); set-ups (s):",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<long long>(window.units()),
                window.latencies().Quantile(0.5) * 1e3,
                window.latencies().Quantile(0.99) * 1e3,
                static_cast<long long>(window.units()),
                static_cast<long long>(window.units() / 100));
    for (double s : setups) std::printf(" %.4g", s);
    std::printf("\n");
  } else {
    const Window untraced = RunWindow(*workload, args.seconds / 2, nullptr);
    Tracer tracer;
    RearmHighWater();
    const CounterSnapshot before = CounterSnapshot::Take();
    const Window traced = RunWindow(*workload, args.seconds / 2, &tracer);
    const CounterSnapshot after = CounterSnapshot::Take();
    metrics = PerLayer(*workload, traced, before, after, tracer.Summarize(),
                       untraced.BestRate(), traced.BestRate(),
                       workload->DispatchOverheadUs());
    workload->Check(args.corrupt_reference);
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  const double error_rate =
      static_cast<double>(workload->failed()) /
      static_cast<double>(std::max<int64_t>(1, workload->attempted()));
  for (const Metric& m : metrics) {
    std::printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# %-36s %14.6g ratio (%lld failed of %lld attempted)\n",
              "error_rate", error_rate,
              static_cast<long long>(workload->failed()),
              static_cast<long long>(workload->attempted()));
  PrintResult(*workload, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--corrupt-reference]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
