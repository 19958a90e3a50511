// Ablation: per-operation dispatch cost through the runtime's layers
// (wall-clock, google-benchmark).
//
//   * kernel only          — the raw compute,
//   * eager dispatch       — + placement, copies, tape checks, accounting
//                            (the paper's motivation: this is what the
//                            interpreter multiplies),
//   * eager + active tape  — + gradient recording,
//   * staged call          — one Call op executing an N-op graph, i.e. the
//                            per-op cost the executor achieves,
//   * staged per-op        — that call cost divided across its ops,
//   * staged node overhead — an unfusable MatMul chain on [1,1] operands,
//                            reported as wall ns per executor node (the
//                            executor's per-node cost around a tiny kernel).
//
//   build/bench/bench_dispatch
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"

#include "api/tfe.h"
#include "ops/kernel.h"
#include "runtime/eager_context.h"

namespace {

using tfe::Tensor;
namespace ops = tfe::ops;

Tensor SmallTensor() {
  static Tensor tensor = ops::random_normal({8}, 0, 1, /*seed=*/11);
  return tensor;
}

void BM_KernelOnly(benchmark::State& state) {
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  Tensor x = SmallTensor();
  tfe::AttrMap attrs;
  for (auto _ : state) {
    auto run = ctx->ExecuteKernel("Add", {x, x}, attrs, ctx->HostCpu(),
                                  /*compiled=*/false, /*start_ns=*/0);
    benchmark::DoNotOptimize(run->outputs[0]);
  }
}
BENCHMARK(BM_KernelOnly);

void BM_EagerDispatch(benchmark::State& state) {
  Tensor x = SmallTensor();
  for (auto _ : state) {
    Tensor y = ops::add(x, x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_EagerDispatch);

void BM_EagerDispatchUnderTape(benchmark::State& state) {
  Tensor x = SmallTensor();
  for (auto _ : state) {
    tfe::GradientTape tape;
    tape.watch(x);
    Tensor y = ops::add(x, x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_EagerDispatchUnderTape);

void BM_StagedCall(benchmark::State& state) {
  const int num_ops = static_cast<int>(state.range(0));
  tfe::Function chain = tfe::function(
      [num_ops](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor h = args[0];
        for (int i = 0; i < num_ops; ++i) h = ops::add(h, args[0]);
        return {h};
      },
      "dispatch_chain");
  Tensor x = SmallTensor();
  chain({x});  // trace
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain({x})[0]);
  }
  state.SetItemsProcessed(state.iterations() * num_ops);
}
BENCHMARK(BM_StagedCall)->Arg(1)->Arg(16)->Arg(256);

void BM_StagedNodeOverhead(benchmark::State& state) {
  const int num_ops = static_cast<int>(state.range(0));
  tfe::Function chain = tfe::function(
      [num_ops](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor h = args[0];
        for (int i = 0; i < num_ops; ++i) h = ops::matmul(h, args[0]);
        return {h};
      },
      "matmul_chain_" + std::to_string(num_ops));
  Tensor x = ops::constant<float>({1.0f}, tfe::Shape({1, 1}));
  chain({x});  // trace, build the fused variant and its plan
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  const uint64_t nodes_before = ctx->stats().executor_nodes.load();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain({x})[0]);
  }
  const double elapsed_ns = std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  const uint64_t nodes = ctx->stats().executor_nodes.load() - nodes_before;
  state.counters["ns_per_node"] =
      nodes > 0 ? elapsed_ns / static_cast<double>(nodes) : 0.0;
}
BENCHMARK(BM_StagedNodeOverhead)->Arg(16)->Arg(256);

void BM_DeviceScopeLookup(benchmark::State& state) {
  Tensor x = SmallTensor();
  tfe::DeviceScope cpu("/cpu:0");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::add(x, x));
  }
}
BENCHMARK(BM_DeviceScopeLookup);

}  // namespace

int main(int argc, char** argv) {
  return tfe::bench::RunBenchmarksToJson("dispatch", argc, argv);
}
