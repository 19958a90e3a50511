// Overhead gate for the always-on profiler.
//
// The observability subsystem is compiled in unconditionally and toggled at
// runtime, so its cost when *on* must stay small enough to leave enabled in
// production runs. This binary times the paper's 256-op async elementwise
// chain with profiling off and on and fails (exit 1) if the profiled run is
// more than 5% slower.
//
// Protocol: kPairs pairs of back-to-back windows, one with profiling off and
// one with it on, the order alternating from pair to pair. Each pair yields
// one on/off ratio, and the gate reads the median ratio. Host load that
// drifts over seconds (other processes, frequency changes) hits both
// windows of a pair alike and cancels in its ratio; a burst that lands in
// one window moves one ratio, which the median ignores. The fastest off
// window against the fastest on window would compare two draws of host
// noise instead.
//
//   build/bench/bench_profiler_overhead
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"

using tfe::Tensor;
namespace ops = tfe::ops;
namespace bench = tfe::bench;
namespace profiler = tfe::profiler;

namespace {

constexpr int kChainOps = 256;
constexpr int kChainIterations = 20;
constexpr int kPairs = 40;
constexpr double kMaxOverheadPct = 5.0;

// Wall seconds for one window of kChainIterations steps with profiling on
// or off.
double WindowSeconds(const std::function<void()>& step, bool profile) {
  if (profile) {
    profiler::Start();
  } else {
    profiler::Stop();
  }
  auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < kChainIterations; ++i) step();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  profiler::Stop();
  // Drain the ring buffers between windows so the recording path keeps
  // writing instead of degenerating into (cheaper) drops.
  (void)profiler::Collect();
  return seconds;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

int main() {
  tfe::EagerContext::ResetGlobal({});
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  ctx->set_async(true);

  std::printf("Profiler overhead on the %d-op async chain (median on/off "
              "ratio of %d window pairs, %d iterations per window)\n",
              kChainOps, kPairs, kChainIterations);

  Tensor x = ops::random_normal({256, 256}, 0, 1, /*seed=*/7);
  Tensor half = ops::scalar<float>(0.5f);
  auto step = [&] {
    Tensor h = x;
    for (int i = 0; i < kChainOps / 2; ++i) {
      h = ops::mul(ops::add(h, x), half);
    }
    ctx->SyncAllDevices();
  };
  // Warm-up: queue threads, allocator, interner, the program cache, and the
  // profiler's per-thread buffers.
  (void)WindowSeconds(step, /*profile=*/false);
  (void)WindowSeconds(step, /*profile=*/true);

  std::vector<double> off_seconds;
  std::vector<double> on_seconds;
  std::vector<double> ratios;
  for (int p = 0; p < kPairs; ++p) {
    double off;
    double on;
    if (p % 2 == 0) {
      off = WindowSeconds(step, /*profile=*/false);
      on = WindowSeconds(step, /*profile=*/true);
    } else {
      on = WindowSeconds(step, /*profile=*/true);
      off = WindowSeconds(step, /*profile=*/false);
    }
    off_seconds.push_back(off);
    on_seconds.push_back(on);
    ratios.push_back(on / off);
  }
  ctx->set_async(false);

  const double overhead_pct = 100.0 * (Median(ratios) - 1.0);
  const double min_ratio = *std::min_element(ratios.begin(), ratios.end());
  const double max_ratio = *std::max_element(ratios.begin(), ratios.end());
  const double off = Median(off_seconds);
  const double on = Median(on_seconds);
  std::printf("%-22s%10.2f ms  (median window)\n", "profiling off", off * 1e3);
  std::printf("%-22s%10.2f ms  (median window)\n", "profiling on", on * 1e3);
  std::printf("%-22s%9.2f%% .. %.2f%%\n", "pair overhead range",
              100.0 * (min_ratio - 1.0), 100.0 * (max_ratio - 1.0));
  std::printf("%-22s%9.2f%%  (median pair; budget %.1f%%)\n", "overhead",
              overhead_pct, kMaxOverheadPct);

  bench::JsonReport report("profiler_overhead");
  report.Add("chain_seconds_profiling_off", off);
  report.Add("chain_seconds_profiling_on", on);
  report.Add("overhead_pct", overhead_pct);
  report.Add("min_pair_ratio", min_ratio);
  report.Add("max_pair_ratio", max_ratio);
  report.Add("pairs", kPairs);
  report.Add("budget_pct", kMaxOverheadPct);
  report.Write();

  if (overhead_pct > kMaxOverheadPct) {
    std::fprintf(stderr, "FAIL: profiler overhead %.2f%% exceeds %.1f%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  std::printf("OK: profiler overhead within budget\n");
  return 0;
}
