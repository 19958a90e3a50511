// The dataflow executor: parallel execution, errors, ordering, nesting,
// virtual-time bookkeeping.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <thread>

#include "api/tfe.h"
#include "executor/executor.h"
#include "graph/graph_function.h"
#include "profiler/metrics.h"
#include "runtime/eager_context.h"
#include "staging/trace_context.h"
#include "tensor/tensor_util.h"

namespace tfe {
namespace {

// Builds a function by tracing `body` with float scalar args.
std::shared_ptr<GraphFunction> Build(
    const std::string& name, int num_args,
    std::function<std::vector<Tensor>(const std::vector<Tensor>&)> body) {
  auto fn = std::make_shared<GraphFunction>(name);
  TraceContext trace(fn, EagerContext::Global());
  std::vector<Tensor> params;
  for (int i = 0; i < num_args; ++i) {
    params.push_back(
        trace.AddParameter(DType::kFloat32, Shape()).value());
  }
  for (Tensor& out : body(params)) {
    fn->outputs().push_back({out.node_id(), out.output_index()});
  }
  return fn;
}

// Sets elementwise fusion on the global context for one scope. Off, a
// direct Executor::Run executes the graph as built rather than its fused
// plan.
class ScopedFusion {
 public:
  explicit ScopedFusion(bool on)
      : was_on_(EagerContext::Global()->fuse_elementwise()) {
    EagerContext::Global()->set_fuse_elementwise(on);
  }
  ~ScopedFusion() { EagerContext::Global()->set_fuse_elementwise(was_on_); }

 private:
  bool was_on_;
};

TEST(ExecutorTest, RunsSimpleGraph) {
  ScopedFusion no_fusion(false);
  auto fn = Build("exec_simple", 2, [](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::add(args[0], ops::mul(args[1], args[1]))};
  });
  Executor executor(EagerContext::Global());
  auto result = executor.Run(*fn, {ops::scalar<float>(1), ops::scalar<float>(3)},
                             nullptr, 0, false);
  ASSERT_TRUE(result.ok());
  EXPECT_FLOAT_EQ(result->outputs[0].scalar<float>(), 10.0f);
}

TEST(ExecutorTest, ParallelAndInlineAgree) {
  auto fn = Build("exec_modes", 1, [](const std::vector<Tensor>& args) {
    // A diamond with plenty of parallel branches.
    std::vector<Tensor> branches;
    for (int i = 0; i < 16; ++i) {
      branches.push_back(ops::exp(ops::mul(
          args[0], ops::fill(DType::kFloat32, {}, 0.1 * i))));
    }
    Tensor sum = branches[0];
    for (size_t i = 1; i < branches.size(); ++i) {
      sum = ops::add(sum, branches[i]);
    }
    return std::vector<Tensor>{sum};
  });
  ScopedFusion no_fusion(false);  // the pool engine needs the diamond's width
  Executor executor(EagerContext::Global());
  auto parallel =
      executor.Run(*fn, {ops::scalar<float>(0.5f)}, nullptr, 0, false,
                   /*rng_stream_base=*/0, /*parallel=*/true);
  auto inline_run =
      executor.Run(*fn, {ops::scalar<float>(0.5f)}, nullptr, 0, false,
                   /*rng_stream_base=*/0, /*parallel=*/false);
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(inline_run.ok());
  EXPECT_FLOAT_EQ(parallel->outputs[0].scalar<float>(),
                  inline_run->outputs[0].scalar<float>());
}

TEST(ExecutorTest, ArgCountMismatchFails) {
  auto fn = Build("exec_argc", 2, [](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::add(args[0], args[1])};
  });
  Executor executor(EagerContext::Global());
  EXPECT_FALSE(
      executor.Run(*fn, {ops::scalar<float>(1)}, nullptr, 0, false).ok());
}

TEST(ExecutorTest, ArgTypeMismatchFails) {
  auto fn = Build("exec_argt", 1, [](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::identity(args[0])};
  });
  Executor executor(EagerContext::Global());
  EXPECT_FALSE(
      executor.Run(*fn, {tensor_util::Scalar<int32_t>(1)}, nullptr, 0, false)
          .ok());
  EXPECT_FALSE(executor
                   .Run(*fn, {ops::ones(DType::kFloat32, {2})}, nullptr, 0,
                        false)
                   .ok());
}

TEST(ExecutorTest, KernelErrorPropagatesFromParallelRun) {
  // Gather with out-of-range index fails at execution time.
  auto fn = Build("exec_error", 1, [](const std::vector<Tensor>& args) {
    Tensor params = ops::constant<float>({1, 2}, {2});
    Tensor bad_index = ops::constant<int32_t>({7}, {1});
    Tensor gathered = ops::gather(params, bad_index);
    return std::vector<Tensor>{ops::add(args[0],
                                        ops::reduce_sum(gathered))};
  });
  Executor executor(EagerContext::Global());
  auto result = executor.Run(*fn, {ops::scalar<float>(1)}, nullptr, 0, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kOutOfRange);
}

TEST(ExecutorTest, VirtualTimeAdvancesOnSimDevices) {
  EagerContext* ctx = EagerContext::Global();
  auto fn = Build("exec_vtime", 1, [](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::exp(ops::add(args[0], args[0]))};
  });
  Device* gpu = ctx->devices().FindDevice("/gpu:0").value();
  uint64_t before = gpu->timeline().busy_ns();
  Executor executor(ctx);
  auto result = executor.Run(*fn, {ops::scalar<float>(1)}, gpu, 0, false);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(gpu->timeline().busy_ns(), before);
  EXPECT_GT(result->finish_ns, 0u);
}

TEST(ExecutorTest, FinishCoversSideEffects) {
  // A function whose only "result" is an assignment still reports a finish
  // time covering the write.
  Variable v(ops::scalar<float>(0.0f));
  Function f = function(
      [&v](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        v.assign(ops::mul(args[0], args[0]));
        return {};
      },
      "side_effect_finish");
  f({ops::scalar<float>(4.0f)});
  EXPECT_FLOAT_EQ(v.value().scalar<float>(), 16.0f);
}

TEST(ExecutorTest, DeeplyNestedFunctionsRunInline) {
  // Three levels of nesting exercise the inline (non-pool) path and must
  // not deadlock on the executor pool.
  Function level1 = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], ops::scalar<float>(1.0f))};
      },
      "level1");
  Function level2 = function(
      [&level1](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(level1({args[0]})[0], ops::scalar<float>(2.0f))};
      },
      "level2");
  Function level3 = function(
      [&level2](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(level2({args[0]})[0], level2({args[0]})[0])};
      },
      "level3");
  EXPECT_FLOAT_EQ(level3({ops::scalar<float>(3.0f)})[0].scalar<float>(),
                  16.0f);
}

TEST(ExecutorTest, ManyConcurrentTopLevelCalls) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::tanh(ops::mul(args[0], args[0]))};
      },
      "concurrent_calls");
  f({ops::scalar<float>(1.0f)});  // trace once up front
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&f, &failures, t] {
      for (int i = 0; i < 50; ++i) {
        float x = 0.1f * t + 0.01f * i;
        float got = f({ops::scalar<float>(x)})[0].scalar<float>();
        if (std::abs(got - std::tanh(x * x)) > 1e-5) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ExecutorTest, DeepGraphOnPoolEngineDoesNotOverflowStack) {
  // Two interleaved 50,000-step MatMul chains: the graph is 2 wide, so the
  // pool engine runs it, and each worker drains a 50,000-node chain. A
  // worker that recursed once per chained node overflowed its 8 MB stack
  // here.
  constexpr int kSteps = 50000;
  auto fn = std::make_shared<GraphFunction>("exec_deep_pool");
  {
    TraceContext trace(fn, EagerContext::Global());
    Tensor w = trace.AddParameter(DType::kFloat32, Shape({1, 1})).value();
    Tensor a = w;
    Tensor b = w;
    for (int i = 0; i < kSteps; ++i) {
      a = ops::matmul(a, w);
      b = ops::matmul(b, w);
    }
    fn->outputs().push_back({a.node_id(), a.output_index()});
    fn->outputs().push_back({b.node_id(), b.output_index()});
  }
  Executor executor(EagerContext::Global());
  auto result = executor.Run(*fn, {ops::constant<float>({1.0f}, {1, 1})},
                             nullptr, 0, false, /*rng_stream_base=*/0,
                             /*parallel=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FLOAT_EQ(tensor_util::ToVector<float>(result->outputs[0])[0], 1.0f);
  EXPECT_FLOAT_EQ(tensor_util::ToVector<float>(result->outputs[1])[0], 1.0f);
}

TEST(ExecutorTest, WhileBuildsEachPlanOnce) {
  profiler::Counter* plans =
      profiler::Metrics().GetCounter("executor.plans_built");
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 20.0))};
      },
      "plan_below");
  Function body = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::add(vars[0], ops::fill(DType::kFloat32, {}, 1.0))};
      },
      "plan_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return ops::while_loop(below, body, {args[0]});
      },
      "plan_staged");
  uint64_t before = plans->value();
  EXPECT_FLOAT_EQ(staged({ops::scalar<float>(0.0f)})[0].scalar<float>(),
                  20.0f);
  // The staged function, the loop condition and the loop body: one plan
  // each, however many iterations run.
  EXPECT_EQ(plans->value() - before, 3u);
  before = plans->value();
  EXPECT_FLOAT_EQ(staged({ops::scalar<float>(0.0f)})[0].scalar<float>(),
                  20.0f);
  EXPECT_EQ(plans->value() - before, 0u);
}

TEST(ExecutorTest, EachFusionModeRunsItsOwnCachedPlan) {
  EagerContext* ctx = EagerContext::Global();
  ScopedFusion fusion(true);
  profiler::Counter* plans =
      profiler::Metrics().GetCounter("executor.plans_built");
  auto fn = Build("exec_plan_modes", 1, [](const std::vector<Tensor>& args) {
    Tensor h = ops::tanh(ops::mul(args[0], args[0]));
    return std::vector<Tensor>{ops::sub(ops::exp(h), h)};
  });
  int kernel_nodes = 0;
  for (int id = 0; id < fn->graph().num_nodes(); ++id) {
    if (!fn->graph().node(id).is_bound()) ++kernel_nodes;
  }
  Executor executor(ctx);
  // Returns the run's output and sets `nodes` to the kernel steps it ran
  // and `built` to the plans it built.
  const auto run = [&](uint64_t* nodes, uint64_t* built) {
    const uint64_t nodes_before = ctx->stats().executor_nodes.load();
    const uint64_t plans_before = plans->value();
    auto result = executor.Run(*fn, {ops::scalar<float>(0.75f)}, nullptr, 0,
                               false);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    *nodes = ctx->stats().executor_nodes.load() - nodes_before;
    *built = plans->value() - plans_before;
    return result.ok() ? result->outputs[0].scalar<float>() : 0.0f;
  };

  uint64_t fused_nodes = 0, unfused_nodes = 0, nodes = 0, built = 0;
  const float fused = run(&fused_nodes, &built);
  EXPECT_EQ(built, 1u);
  EXPECT_LT(fused_nodes, static_cast<uint64_t>(kernel_nodes));

  ctx->set_fuse_elementwise(false);
  const float unfused = run(&unfused_nodes, &built);
  ctx->set_fuse_elementwise(true);
  EXPECT_EQ(built, 1u);
  EXPECT_EQ(unfused_nodes, static_cast<uint64_t>(kernel_nodes));
  EXPECT_EQ(std::bit_cast<uint32_t>(fused), std::bit_cast<uint32_t>(unfused));

  // Back on: the fused plan is still cached.
  const float again = run(&nodes, &built);
  EXPECT_EQ(built, 0u);
  EXPECT_EQ(nodes, fused_nodes);
  EXPECT_EQ(std::bit_cast<uint32_t>(again), std::bit_cast<uint32_t>(fused));
}

TEST(ExecutorTest, PlannedRunsKeepArgMismatchMessages) {
  auto fn = Build("exec_plan_args", 1, [](const std::vector<Tensor>& args) {
    return std::vector<Tensor>{ops::identity(args[0])};
  });
  Executor executor(EagerContext::Global());
  // The first run builds the plan; the later ones run on it.
  ASSERT_TRUE(executor.Run(*fn, {ops::scalar<float>(1)}, nullptr, 0, false)
                  .ok());
  auto wrong_dtype =
      executor.Run(*fn, {tensor_util::Scalar<int32_t>(1)}, nullptr, 0, false);
  ASSERT_FALSE(wrong_dtype.ok());
  EXPECT_EQ(wrong_dtype.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(wrong_dtype.status().message(),
            "Function exec_plan_args argument 0 has dtype int32, expected "
            "float32");
  auto wrong_shape = executor.Run(*fn, {ops::ones(DType::kFloat32, {2})},
                                  nullptr, 0, false);
  ASSERT_FALSE(wrong_shape.ok());
  EXPECT_EQ(wrong_shape.status().message(),
            "Function exec_plan_args argument 0 has shape [2], expected []");
  auto symbolic = executor.Run(*fn, {Tensor()}, nullptr, 0, false);
  ASSERT_FALSE(symbolic.ok());
  EXPECT_EQ(symbolic.status().message(),
            "Function exec_plan_args argument 0 is not a concrete tensor");
}

TEST(ExecutorTest, DuplicatedOutputEndpointYieldsDistinctTensors) {
  auto fn = Build("exec_dup_out", 1, [](const std::vector<Tensor>& args) {
    Tensor y = ops::mul(args[0], args[0]);
    return std::vector<Tensor>{y, y, args[0], args[0]};
  });
  Executor executor(EagerContext::Global());
  for (int run = 0; run < 2; ++run) {
    auto result =
        executor.Run(*fn, {ops::scalar<float>(3)}, nullptr, 0, false);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->outputs.size(), 4u);
    EXPECT_NE(result->outputs[0].id(), result->outputs[1].id());
    EXPECT_NE(result->outputs[2].id(), result->outputs[3].id());
    EXPECT_FLOAT_EQ(result->outputs[0].scalar<float>(), 9.0f);
    EXPECT_FLOAT_EQ(result->outputs[1].scalar<float>(), 9.0f);
    EXPECT_FLOAT_EQ(result->outputs[3].scalar<float>(), 3.0f);
  }
}

TEST(ExecutorTest, RandomOpsDrawTheSameValuesOnBothEngines) {
  // Eight independent random branches (seed 0: per-node streams): wide
  // enough that the pool engine runs it.
  auto fn = Build("exec_rng_engines", 1, [](const std::vector<Tensor>& args) {
    std::vector<Tensor> outs;
    for (int i = 0; i < 8; ++i) {
      outs.push_back(ops::mul(ops::random_normal({16}), args[0]));
      outs.push_back(ops::random_uniform({16}));
    }
    return outs;
  });
  ScopedFusion no_fusion(false);
  Executor executor(EagerContext::Global());
  constexpr uint64_t kStream = 1234;
  auto pool = executor.Run(*fn, {ops::scalar<float>(2)}, nullptr, 0, false,
                           kStream, /*parallel=*/true);
  auto inline_run = executor.Run(*fn, {ops::scalar<float>(2)}, nullptr, 0,
                                 false, kStream, /*parallel=*/false);
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE(inline_run.ok());
  ASSERT_EQ(pool->outputs.size(), inline_run->outputs.size());
  for (size_t i = 0; i < pool->outputs.size(); ++i) {
    EXPECT_EQ(tensor_util::ToVector<float>(pool->outputs[i]),
              tensor_util::ToVector<float>(inline_run->outputs[i]))
        << "output " << i;
  }
  // Distinct nodes draw distinct streams.
  EXPECT_NE(tensor_util::ToVector<float>(pool->outputs[1]),
            tensor_util::ToVector<float>(pool->outputs[3]));
}

}  // namespace
}  // namespace tfe
