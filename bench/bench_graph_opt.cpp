// Ablation: the graph optimization passes (paper §5) — how much dead-op
// pruning, CSE and constant folding shrink a realistic traced graph, and
// what that buys at execution time.
//
//   build/bench/bench_graph_opt
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "api/tfe.h"
#include "executor/executor.h"
#include "graph/passes.h"
#include "staging/trace_context.h"

namespace {

using tfe::Tensor;
namespace ops = tfe::ops;

// A trace with redundancy: repeated subexpressions (CSE fodder), constant
// arithmetic (folding fodder), and dead branches (pruning fodder).
std::shared_ptr<tfe::GraphFunction> TraceRedundant(int repeat) {
  auto fn = std::make_shared<tfe::GraphFunction>(
      "redundant_" + std::to_string(repeat));
  tfe::TraceContext trace(fn, tfe::EagerContext::Global());
  Tensor x = trace.AddParameter(tfe::DType::kFloat32, tfe::Shape({16})).value();
  Tensor acc = ops::zeros_like(x);
  for (int i = 0; i < repeat; ++i) {
    Tensor shared = ops::tanh(x);               // CSE: identical every time
    Tensor constant = ops::mul(ops::scalar<float>(2.0f),
                               ops::scalar<float>(3.0f));  // foldable
    Tensor dead = ops::exp(ops::exp(x));        // never used
    (void)dead;
    acc = ops::add(acc, ops::mul(shared, constant));
  }
  Tensor out = ops::reduce_sum(acc);
  fn->outputs().push_back({out.node_id(), out.output_index()});
  return fn;
}

void BM_OptimizePass(benchmark::State& state) {
  const int repeat = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto fn = TraceRedundant(repeat);
    state.ResumeTiming();
    tfe::passes::PassStats stats;
    if (!tfe::passes::Optimize(*fn, &stats).ok()) {
      state.SkipWithError("optimize failed");
    }
    benchmark::DoNotOptimize(stats.pruned_nodes);
  }
}
BENCHMARK(BM_OptimizePass)->Arg(8)->Arg(64);

// Runs `fn` as built on every benchmark iteration: with fusion on, the
// executor would run a fused clone instead, hiding what the passes removed.
void Execute(benchmark::State& state, const tfe::GraphFunction& fn) {
  Tensor x = ops::random_normal({16}, 0, 1, /*seed=*/5);
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  const bool fuse = ctx->fuse_elementwise();
  ctx->set_fuse_elementwise(false);
  tfe::Executor executor(ctx);
  for (auto _ : state) {
    auto result = executor.Run(fn, {x}, nullptr, 0, false);
    benchmark::DoNotOptimize(result->outputs[0]);
  }
  ctx->set_fuse_elementwise(fuse);
  state.counters["nodes"] = fn.graph().num_nodes();
}

void BM_ExecuteUnoptimized(benchmark::State& state) {
  auto fn = TraceRedundant(static_cast<int>(state.range(0)));
  Execute(state, *fn);
}
BENCHMARK(BM_ExecuteUnoptimized)->Arg(8)->Arg(64);

void BM_ExecuteOptimized(benchmark::State& state) {
  auto fn = TraceRedundant(static_cast<int>(state.range(0)));
  tfe::passes::PassStats stats;
  if (!tfe::passes::Optimize(*fn, &stats).ok()) {
    state.SkipWithError("optimize failed");
    return;
  }
  Execute(state, *fn);
  state.counters["pruned"] = stats.pruned_nodes;
  state.counters["cse"] = stats.cse_merged;
  state.counters["folded"] = stats.folded_constants;
}
BENCHMARK(BM_ExecuteOptimized)->Arg(8)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return tfe::bench::RunBenchmarksToJson("graph_opt", argc, argv);
}
