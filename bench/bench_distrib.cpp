// Distributed execution (paper §4.5) on the async dispatch path: a
// dependent op chain on a remote worker under `tfe::device`, driven two ways.
//
//   blocking  — the same chain with `tfe::sync()` after every op, so the
//               client waits out a full worker round trip per op.
//   async     — ops return pending handles immediately, consumers reference
//               producers by pre-assigned store id, and the client joins the
//               worker once at the final sync.
//
// The async series must overlap client dispatch with worker execution well
// enough to beat the per-op round trips by >= 1.5x — the bench exits
// non-zero otherwise. A second section calls a staged function remotely and
// publishes its round-trip histogram through the profiler.
//
//   build/bench/bench_distrib
#include <memory>

#include "bench/bench_util.h"
#include "distrib/cluster.h"
#include "tensor/tensor_handle.h"

using tfe::Cluster;
using tfe::Tensor;
namespace ops = tfe::ops;
namespace bench = tfe::bench;
namespace profiler = tfe::profiler;

namespace {

constexpr int kChainOps = 256;
constexpr int kFunctionCalls = 30;
constexpr char kRemote[] = "/job:worker/task:1/device:CPU:0";

// The dependent chain with a sync after every op: the client waits out a
// worker round trip per op.
void BlockingChain(const Tensor& x) {
  tfe::device scope(kRemote);
  Tensor h = ops::add(x, x);
  TFE_CHECK(tfe::sync().ok());
  for (int i = 1; i < kChainOps; ++i) {
    h = ops::add(h, h);
    TFE_CHECK(tfe::sync().ok());
  }
  TFE_CHECK(h.pending_handle() != nullptr &&
            h.pending_handle()->resolved());
}

// The same chain without the per-op syncs: every op returns a pending
// handle without waiting.
void AsyncChain(const Tensor& x) {
  Tensor h;
  {
    tfe::device scope(kRemote);
    h = ops::add(x, x);
    for (int i = 1; i < kChainOps; ++i) h = ops::add(h, h);
  }
  TFE_CHECK(tfe::sync().ok());
  TFE_CHECK(h.pending_handle() != nullptr &&
            h.pending_handle()->resolved());
}

}  // namespace

int main() {
  tfe::EagerContext::ResetGlobal(tfe::EagerContext::Options());
  auto cluster = std::make_unique<Cluster>(Cluster::Options{});
  TFE_CHECK(cluster->Connect(tfe::EagerContext::Global()).ok());

  Tensor x = ops::constant<float>({1, 2, 3, 4}, {4});

  BlockingChain(x);  // warm-up: store + queue + backend creation
  AsyncChain(x);
  const double blocking_s =
      bench::MeasureWallSeconds([&] { BlockingChain(x); },
                                /*iterations=*/3);
  const double async_s =
      bench::MeasureWallSeconds([&] { AsyncChain(x); }, /*iterations=*/3);
  const double overlap_ratio = blocking_s / async_s;

  std::printf("\n%d-op dependent remote chain (wall clock)\n", kChainOps);
  std::printf("%-22s%12.2f ms\n", "sync after every op", blocking_s * 1e3);
  std::printf("%-22s%12.2f ms\n", "async dispatch", async_s * 1e3);
  std::printf("%-22s%11.2fx\n", "overlap ratio", overlap_ratio);

  // Staged-function round trips, photographed by the profiler: the
  // dispatch-to-sync latency of each remote call lands in
  // remote.function_roundtrip_ns.
  profiler::Start();
  tfe::Function f = tfe::function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(ops::mul(args[0], args[0]), args[0])};
      },
      "bench_distrib_fn");
  (void)f({x});  // trace locally before timing anything
  profiler::Histogram* fn_roundtrip =
      profiler::Metrics().GetHistogram("remote.function_roundtrip_ns");
  for (int i = 0; i < kFunctionCalls; ++i) {
    const uint64_t begin_ns = profiler::NowNs();
    Tensor out;
    {
      tfe::device scope(kRemote);
      out = f({x})[0];
    }
    TFE_CHECK(tfe::sync().ok());
    fn_roundtrip->Record(profiler::NowNs() - begin_ns);
  }
  const profiler::HistogramSnapshot fn_snap = fn_roundtrip->Snapshot();
  std::printf("\nremote function round trip: mean %.1f us, max %.1f us "
              "(%llu calls)\n",
              fn_snap.mean() / 1e3, static_cast<double>(fn_snap.max) / 1e3,
              static_cast<unsigned long long>(fn_snap.count));

  bench::JsonReport report("distrib");
  report.Add("blocking_chain_seconds", blocking_s);
  report.Add("async_chain_seconds", async_s);
  report.Add("overlap_ratio", overlap_ratio);
  report.Add("function_roundtrip_mean_ns", fn_snap.mean());
  report.Add("function_roundtrip_max_ns", static_cast<double>(fn_snap.max));
  report.AddProfilerMetrics();
  report.Write();
  profiler::Stop();

  if (overlap_ratio < 1.5) {
    std::fprintf(stderr,
                 "FAIL: async dispatch only %.2fx over a sync per op "
                 "(needs >= 1.5x)\n",
                 overlap_ratio);
    return 1;
  }
  return 0;
}
