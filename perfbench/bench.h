// Shared pieces of the perfbench binary: the workload interface, the
// counter snapshots taken at the edges of a measured window, and small
// statistics helpers. See perfbench/README.md for what each workload and
// metric is for.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/tfe.h"
#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Installs the process's one eager context: the native host profile (wall
// clock only, no modelled interpreter cost), no simulated accelerators.
// Workloads switch it between sync and async with tfe::set_async. One
// context serves the whole run because the library's backward-function
// cache is process-wide but keyed by per-context function names: a staged
// gradient traced under a second context can resolve to a function of the
// first one.
void CreateContext();

// Drops the process-wide compiled-program cache so each set-up starts as
// cold as the first one.
void ClearProcessCaches();

// Bitwise equality of two float vectors (NaN and -0.0 compare by bits).
bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b);

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// How the per-layer formulas read a workload (README.md, per-layer table).
struct Traits {
  // Eager workloads divide fused ops by eager ops; staged and serving ones
  // by executor nodes.
  bool eager = false;
  // The span whose total time executor nodes are charged against.
  const char* node_span = "";
  // Serving batch window (0: not a serving workload).
  int max_batch = 0;
  // Examples completed per unit (a training step or one request).
  double examples_per_unit = 1;
};

// One workload. SetUp may be called several times, also between two
// Steps; each call tears down what the previous one built and builds a
// fresh model, so the benchmark can take the fastest of several set-ups.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual Traits traits() const = 0;
  // Model build and warm-up to steady state.
  virtual void SetUp() = 0;
  // Completes one unit of work and returns its latency in seconds. Failed
  // units count in failed(); they never throw.
  virtual double Step(Tracer* tracer, int64_t id) = 0;
  // Completes work still in flight when a window closes (not timed).
  virtual void Drain() {}
  // Post-window output check; tears the workload down. With
  // `corrupt_reference` the reference is corrupted first, so the check
  // must fail.
  virtual void Check(bool corrupt_reference) = 0;
  // Eager dispatch cost per op beyond the kernel, in microseconds, probed
  // after the traced window; 0 where the workload does not measure it.
  virtual double DispatchOverheadUs() { return 0; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  // Tape entries recorded over traced steps.
  int64_t tape_entries() const { return tape_entries_; }

 protected:
  void Count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t tape_entries_ = 0;
};

std::unique_ptr<Workload> MakeTrainWorkload(const std::string& name,
                                            uint64_t seed);
std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed);

// Every counter the per-layer metrics read, captured at one instant.
// Windows read a snapshot at their start and end only; nothing is reset.
struct CounterSnapshot {
  std::map<std::string, uint64_t> counters;
  uint64_t eager_ops = 0;
  uint64_t executor_nodes = 0;
  uint64_t fused_ops = 0;

  static CounterSnapshot Take();
  // Counter `name` in `after` minus its value here.
  uint64_t Delta(const CounterSnapshot& after, const std::string& name) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
