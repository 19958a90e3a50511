// Ablation: the parallel dataflow executor (paper §5: the staged runtime
// "runs kernels in parallel when possible, across multiple CPU cores").
//
// Compares the ready-queue parallel engine against inline sequential
// execution on (a) a wide embarrassingly-parallel graph and (b) a deep
// serial chain where parallelism cannot help, plus the nested-call path.
//
//   build/bench/bench_executor
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "api/tfe.h"
#include "executor/executor.h"
#include "staging/trace_context.h"

namespace {

using tfe::Tensor;
namespace ops = tfe::ops;

std::shared_ptr<tfe::GraphFunction> WideGraph(int width) {
  auto fn = std::make_shared<tfe::GraphFunction>("wide_" +
                                                 std::to_string(width));
  tfe::TraceContext trace(fn, tfe::EagerContext::Global());
  Tensor x =
      trace.AddParameter(tfe::DType::kFloat32, tfe::Shape({64, 64})).value();
  std::vector<Tensor> branches;
  for (int i = 0; i < width; ++i) {
    // Each branch is independent: matmul + tanh.
    branches.push_back(ops::tanh(ops::matmul(x, x)));
  }
  Tensor sum = branches[0];
  for (int i = 1; i < width; ++i) sum = ops::add(sum, branches[i]);
  Tensor out = ops::reduce_sum(sum);
  fn->outputs().push_back({out.node_id(), out.output_index()});
  return fn;
}

std::shared_ptr<tfe::GraphFunction> DeepGraph(int depth) {
  auto fn = std::make_shared<tfe::GraphFunction>("deep_" +
                                                 std::to_string(depth));
  tfe::TraceContext trace(fn, tfe::EagerContext::Global());
  Tensor x =
      trace.AddParameter(tfe::DType::kFloat32, tfe::Shape({64, 64})).value();
  Tensor h = x;
  for (int i = 0; i < depth; ++i) h = ops::tanh(ops::matmul(h, x));
  Tensor out = ops::reduce_sum(h);
  fn->outputs().push_back({out.node_id(), out.output_index()});
  return fn;
}

void RunGraph(benchmark::State& state,
              const std::shared_ptr<tfe::GraphFunction>& fn, bool parallel) {
  Tensor x = ops::random_normal({64, 64}, 0, 0.05, /*seed=*/3);
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  // Run the graph as built: fused, the wide graph's elementwise tail would
  // collapse into one step.
  const bool fuse = ctx->fuse_elementwise();
  ctx->set_fuse_elementwise(false);
  tfe::Executor executor(ctx);
  for (auto _ : state) {
    auto result = executor.Run(*fn, {x}, nullptr, 0, false,
                               /*rng_stream_base=*/0, parallel);
    if (!result.ok()) state.SkipWithError("executor failed");
    benchmark::DoNotOptimize(result->outputs[0]);
  }
  ctx->set_fuse_elementwise(fuse);
  state.counters["nodes"] = fn->graph().num_nodes();
}

void BM_WideParallel(benchmark::State& state) {
  auto fn = WideGraph(static_cast<int>(state.range(0)));
  RunGraph(state, fn, /*parallel=*/true);
}
BENCHMARK(BM_WideParallel)->Arg(4)->Arg(16);

void BM_WideInline(benchmark::State& state) {
  auto fn = WideGraph(static_cast<int>(state.range(0)));
  RunGraph(state, fn, /*parallel=*/false);
}
BENCHMARK(BM_WideInline)->Arg(4)->Arg(16);

void BM_DeepParallel(benchmark::State& state) {
  auto fn = DeepGraph(static_cast<int>(state.range(0)));
  RunGraph(state, fn, /*parallel=*/true);
}
BENCHMARK(BM_DeepParallel)->Arg(16);

void BM_DeepInline(benchmark::State& state) {
  auto fn = DeepGraph(static_cast<int>(state.range(0)));
  RunGraph(state, fn, /*parallel=*/false);
}
BENCHMARK(BM_DeepInline)->Arg(16);

void BM_NestedCallDepth(benchmark::State& state) {
  // Function-call composition cost: f3(f2(f1(x))).
  tfe::Function f1 = tfe::function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::tanh(args[0])};
      },
      "nest1");
  tfe::Function f2 = tfe::function(
      [&f1](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(f1({args[0]})[0], args[0])};
      },
      "nest2");
  tfe::Function f3 = tfe::function(
      [&f2](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(f2({args[0]})[0], args[0])};
      },
      "nest3");
  Tensor x = ops::random_normal({8}, 0, 1, /*seed=*/4);
  f3({x});
  for (auto _ : state) {
    benchmark::DoNotOptimize(f3({x})[0]);
  }
}
BENCHMARK(BM_NestedCallDepth);

}  // namespace

int main(int argc, char** argv) {
  return tfe::bench::RunBenchmarksToJson("executor", argc, argv);
}
