// Staging (tracing JIT) behavior: paper §4.1 and §4.6, including Listings
// 6, 7, 8, the add_noise semantics, the trace cache, captures, the
// state-creation contract, input signatures, init_scope, and host_func.
#include <gtest/gtest.h>

#include <memory>

#include "api/tfe.h"

namespace tfe {
namespace {

using tensor_util::ToVector;

TEST(FunctionTest, StagedMatchesEager) {
  auto select = [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
    Tensor a = ops::constant<float>({1.0f, 0.0f}, {1, 2});
    return {ops::matmul(a, args[0])};
  };
  Tensor x = ops::constant<float>({2.0f, -2.0f}, {2, 1});

  std::vector<Tensor> eager = select({x});
  Function staged = function(select, "select");
  std::vector<Tensor> graph = staged({x});
  EXPECT_TRUE(tensor_util::AllClose(eager[0], graph[0]));
}

TEST(FunctionTest, TraceCacheHitsForSameSignature) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[0])};
      },
      "cache_test");
  Tensor x = ops::constant<float>({1, 2}, {2});
  f({x});
  f({x});
  f({ops::constant<float>({5, 6}, {2})});  // same dtype/shape: cache hit
  EXPECT_EQ(f.num_traces(), 1);
}

TEST(FunctionTest, PolymorphicOnShape) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[0])};
      },
      "shape_poly");
  f({ops::constant<float>({1, 2}, {2})});
  f({ops::constant<float>({1, 2, 3}, {3})});
  f({ops::constant<float>({1, 2}, {1, 2})});
  EXPECT_EQ(f.num_traces(), 3);
}

TEST(FunctionTest, PolymorphicOnDType) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[0])};
      },
      "dtype_poly");
  f({ops::constant<float>({1}, {1})});
  f({ops::constant<double>({1}, {1})});
  EXPECT_EQ(f.num_traces(), 2);
}

TEST(FunctionTest, Listing6NonTensorArgumentsSpecialize) {
  // lossy_matmul with a `training` flag: one graph per boolean value.
  Function lossy_matmul = function(
      [](const std::vector<Tensor>& args,
         const AttrMap& options) -> std::vector<Tensor> {
        Tensor outputs = ops::matmul(args[0], args[1]);
        auto it = options.find("training");
        if (it != options.end() && it->second.Get<bool>()) {
          // Stand-in for dropout: scale by 0.8.
          outputs = ops::mul(outputs, ops::fill(DType::kFloat32, {}, 0.8));
        }
        return {outputs};
      },
      "lossy_matmul");
  Tensor w = ops::random_normal({3, 5}, 0, 1, /*seed=*/3);
  Tensor x = ops::random_normal({5, 1}, 0, 1, /*seed=*/4);
  AttrMap training_true, training_false;
  training_true["training"] = AttrValue(true);
  training_false["training"] = AttrValue(false);

  Tensor lossy = lossy_matmul({w, x}, training_true)[0];
  Tensor exact = lossy_matmul({w, x}, training_false)[0];
  EXPECT_EQ(lossy_matmul.num_traces(), 2);  // two graph functions
  EXPECT_TRUE(tensor_util::AllClose(
      lossy, ops::mul(exact, ops::fill(DType::kFloat32, {}, 0.8)), 1e-4));
  // Repeat calls hit the cache.
  lossy_matmul({w, x}, training_true);
  EXPECT_EQ(lossy_matmul.num_traces(), 2);
}

TEST(FunctionTest, DeviceIsPartOfTheCacheKey) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[0])};
      },
      "device_key");
  Tensor x = ops::constant<float>({1, 2}, {2});
  f({x});
  {
    DeviceScope scope("/gpu:0");
    f({x});
  }
  EXPECT_EQ(f.num_traces(), 2);
}

TEST(FunctionTest, LexicalCaptureByValue) {
  // Closed-over tensors are captured at trace time and silently forwarded.
  Tensor captured = ops::constant<float>({10.0f}, {1});
  Function f = function(
      [captured](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], captured)};
      },
      "capture_value");
  Tensor result = f({ops::constant<float>({1.0f}, {1})})[0];
  EXPECT_FLOAT_EQ(result.data<float>()[0], 11.0f);
}

TEST(FunctionTest, Listing7VariableCaptureByReference) {
  // Paper Listing 7, step by step.
  Variable v(ops::scalar<float>(0.0f));
  Function mutate = function(
      [&v](const std::vector<Tensor>&) -> std::vector<Tensor> {
        v.assign_add(ops::fill(DType::kFloat32, {}, 1.0));
        return {v.read_value()};
      },
      "mutate");
  mutate({});
  EXPECT_FLOAT_EQ(v.read_value().scalar<float>(), 1.0f);
  v.assign_add(ops::scalar<float>(1.0f));
  EXPECT_FLOAT_EQ(v.read_value().scalar<float>(), 2.0f);
  mutate({});
  EXPECT_FLOAT_EQ(v.read_value().scalar<float>(), 3.0f);
  EXPECT_EQ(mutate.num_traces(), 1);  // one trace, fresh state every call
}

TEST(FunctionTest, Listing8Composition) {
  // Nested graph functions: outer's graph contains a call to inner's.
  Function inner = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::relu(args[0])};
      },
      "inner");
  Function outer = function(
      [&inner](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {inner({ops::matmul(args[0], args[1])})[0]};
      },
      "outer");
  Tensor a = ops::constant<float>({1, 0, 0, 0, 1, 0, 0, 0, 1}, {3, 3});
  Tensor b = ops::constant<float>({-1, 0, 0, 0, 1, 0, 0, 0, 2}, {3, 3});
  Tensor result = outer({a, b})[0];
  EXPECT_EQ(ToVector<float>(result),
            (std::vector<float>{0, 0, 0, 0, 1, 0, 0, 0, 2}));

  // The outer graph contains a Call node, not inner's flattened body.
  auto concrete = outer.GetConcreteFunction({a, b});
  ASSERT_TRUE(concrete.ok());
  bool has_call = false;
  const Graph& graph = (*concrete)->graph();
  for (int i = 0; i < graph.num_nodes(); ++i) {
    if (graph.node(i).def->name == "Call") has_call = true;
  }
  EXPECT_TRUE(has_call);
}

TEST(FunctionTest, AddNoiseSemantics) {
  // Paper §4.1: host-language randomness is frozen at trace time...
  random::Philox host_rng(42, 0);
  auto add_noise_host = [&host_rng]() {
    std::vector<float> noise(4);
    for (float& value : noise) value = host_rng.NextGaussian();
    return tensor_util::FromVector<float>(noise, Shape({4}));
  };
  Function frozen = function(
      [&](const std::vector<Tensor>&) -> std::vector<Tensor> {
        // np.random.randn analog: runs once, at trace time.
        return {ops::identity(add_noise_host())};
      },
      "add_noise_frozen");
  Tensor first = frozen({})[0];
  Tensor second = frozen({})[0];
  EXPECT_TRUE(tensor_util::AllClose(first, second));  // constant forever

  // ...but a primitive random op stays random when staged.
  Function fresh = function(
      [](const std::vector<Tensor>&) -> std::vector<Tensor> {
        return {ops::random_normal({4})};
      },
      "add_noise_fresh");
  Tensor a = fresh({})[0];
  Tensor b = fresh({})[0];
  EXPECT_FALSE(tensor_util::AllClose(a, b));
}

TEST(FunctionTest, PythonSideEffectsRunAtTraceTimeOnly) {
  int counter = 0;
  Function f = function(
      [&counter](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        ++counter;  // host-language side effect
        return {ops::add(args[0], args[0])};
      },
      "side_effect");
  Tensor x = ops::constant<float>({1}, {1});
  f({x});
  f({x});
  f({x});
  EXPECT_EQ(counter, 1);  // executed only while tracing
}

TEST(FunctionTest, StateCreationContract) {
  // Variables may be created on the first trace only; the function is
  // traced a second time to record steady-state behavior (paper §4.6).
  int host_calls = 0;
  auto model_state = std::make_shared<std::unique_ptr<Variable>>();
  Function f = function(
      [model_state, &host_calls](
          const std::vector<Tensor>& args) -> std::vector<Tensor> {
        ++host_calls;
        if (*model_state == nullptr) {
          InitScope init;
          *model_state =
              std::make_unique<Variable>(ops::scalar<float>(10.0f));
        }
        return {ops::mul(args[0], (*model_state)->value())};
      },
      "creates_state");
  Tensor x = ops::constant<float>({2}, {1});
  Tensor result = f({x})[0];
  EXPECT_FLOAT_EQ(result.data<float>()[0], 20.0f);
  EXPECT_EQ(host_calls, 1);  // InitScope creation does not force a retrace
  (*model_state)->assign(ops::scalar<float>(3.0f));
  EXPECT_FLOAT_EQ(f({x})[0].data<float>()[0], 6.0f);  // reads fresh state
}

TEST(FunctionTest, VariableCreationInsideTraceTriggersRetrace) {
  int host_calls = 0;
  auto state = std::make_shared<std::unique_ptr<Variable>>();
  Function f = function(
      [state, &host_calls](const std::vector<Tensor>& args)
          -> std::vector<Tensor> {
        ++host_calls;
        if (*state == nullptr) {
          // Created in the tracing context (no init_scope): first trace
          // creates, second trace records.
          *state = std::make_unique<Variable>(
              tensor_util::Scalar<float>(4.0f));
        }
        return {ops::mul(args[0], (*state)->value())};
      },
      "retrace_state");
  Tensor x = ops::constant<float>({3}, {1});
  EXPECT_FLOAT_EQ(f({x})[0].data<float>()[0], 12.0f);
  EXPECT_EQ(host_calls, 2);  // the paper's two-trace protocol
  EXPECT_EQ(f.num_traces(), 1);  // only the second trace is kept
}

TEST(FunctionTest, UnconditionalVariableCreationViolatesContract) {
  // A callable that creates a variable on EVERY execution breaks the
  // two-trace protocol: the second (recording) trace must fail loudly.
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Variable fresh(tensor_util::Scalar<float>(1.0f));
        return {ops::mul(args[0], fresh.value())};
      },
      "always_creates");
  EXPECT_THROW(f({ops::scalar<float>(2.0f)}), RuntimeError);
}

TEST(FunctionTest, InputSignatureSingleTraceManyShapes) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::reduce_sum(args[0], {1})};
      },
      "sig");
  f.SetInputSignature({{DType::kFloat32, Shape({kUnknownDim, 3})}});
  Tensor small = ops::ones(DType::kFloat32, {2, 3});
  Tensor large = ops::ones(DType::kFloat32, {7, 3});
  EXPECT_EQ(f({small})[0].shape(), Shape({2}));
  EXPECT_EQ(f({large})[0].shape(), Shape({7}));
  EXPECT_EQ(f.num_traces(), 1);  // one graph handles all batch sizes

  // Incompatible argument rejected.
  EXPECT_THROW(f({ops::ones(DType::kFloat32, {2, 4})}), RuntimeError);
  EXPECT_THROW(f({ops::ones(DType::kFloat64, {2, 3})}), RuntimeError);
}

TEST(FunctionTest, HostLoopsUnrollIntoTheGraph) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor x = args[0];
        for (int i = 0; i < 5; ++i) {
          x = ops::add(x, args[0]);  // unrolled 5 times
        }
        return {x};
      },
      "unroll");
  auto concrete = f.GetConcreteFunction({ops::scalar<float>(1.0f)});
  ASSERT_TRUE(concrete.ok());
  int add_nodes = 0;
  for (int i = 0; i < (*concrete)->graph().num_nodes(); ++i) {
    if ((*concrete)->graph().node(i).def->name == "Add") ++add_nodes;
  }
  EXPECT_EQ(add_nodes, 5);
  EXPECT_FLOAT_EQ(f({ops::scalar<float>(2.0f)})[0].scalar<float>(), 12.0f);
}

TEST(FunctionTest, HostConditionalsAreBakedIn) {
  bool flag = true;
  Function f = function(
      [&flag](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        if (flag) return {ops::add(args[0], args[0])};
        return {ops::mul(args[0], args[0])};
      },
      "baked_branch");
  Tensor x = ops::scalar<float>(3.0f);
  EXPECT_FLOAT_EQ(f({x})[0].scalar<float>(), 6.0f);
  flag = false;  // too late: the taken branch is baked into the trace
  EXPECT_FLOAT_EQ(f({x})[0].scalar<float>(), 6.0f);
}

TEST(FunctionTest, SymbolicLeakIsRejected) {
  Tensor leaked;
  Function f = function(
      [&leaked](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        leaked = ops::add(args[0], args[0]);
        return {leaked};
      },
      "leak");
  f({ops::scalar<float>(1.0f)});
  ASSERT_TRUE(leaked.is_symbolic());
  EXPECT_THROW(ops::add(leaked, leaked), RuntimeError);
}

TEST(FunctionTest, MultiOutputFunctions) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::add(args[0], args[1]), ops::mul(args[0], args[1]),
                args[0]};
      },
      "multi_out");
  auto outs = f({ops::scalar<float>(3.0f), ops::scalar<float>(4.0f)});
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_FLOAT_EQ(outs[0].scalar<float>(), 7.0f);
  EXPECT_FLOAT_EQ(outs[1].scalar<float>(), 12.0f);
  EXPECT_FLOAT_EQ(outs[2].scalar<float>(), 3.0f);  // pass-through arg
}

TEST(FunctionTest, ZeroOutputSideEffectOnlyFunction) {
  Variable counter(ops::scalar<float>(0.0f));
  Function bump = function(
      [&counter](const std::vector<Tensor>&) -> std::vector<Tensor> {
        counter.assign_add(ops::fill(DType::kFloat32, {}, 1.0));
        return {};
      },
      "bump");
  bump({});
  bump({});
  EXPECT_FLOAT_EQ(counter.value().scalar<float>(), 2.0f);
}

TEST(FunctionTest, StatefulOrderPreservedInGraph) {
  // Two assignments in program order must execute in order.
  Variable v(ops::scalar<float>(0.0f));
  Function f = function(
      [&v](const std::vector<Tensor>&) -> std::vector<Tensor> {
        v.assign(ops::fill(DType::kFloat32, {}, 1.0));
        v.assign(ops::fill(DType::kFloat32, {}, 2.0));
        return {v.read_value()};
      },
      "ordered_writes");
  for (int i = 0; i < 20; ++i) {
    EXPECT_FLOAT_EQ(f({})[0].scalar<float>(), 2.0f);
  }
}

TEST(InitScopeTest, PausesTracing) {
  Tensor eager_result;
  Function f = function(
      [&eager_result](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        {
          InitScope imperative;
          // Executed NOW, imperatively, despite the active trace.
          eager_result = ops::add(ops::scalar<float>(20.0f),
                                  ops::scalar<float>(22.0f));
          EXPECT_FALSE(eager_result.is_symbolic());
        }
        return {ops::add(args[0], eager_result)};
      },
      "init_scope");
  Tensor out = f({ops::scalar<float>(1.0f)})[0];
  EXPECT_FLOAT_EQ(out.scalar<float>(), 43.0f);
  EXPECT_FLOAT_EQ(eager_result.scalar<float>(), 42.0f);
}

TEST(HostFuncTest, EagerIsTransparent) {
  // "When executing in imperative mode, wrapping a Python function in a
  // py_func has essentially no effect" (§4.7).
  Tensor x = ops::scalar<float>(2.0f);
  std::vector<Tensor> outs = host_func(
      "double",
      [](const std::vector<Tensor>& ins) -> StatusOr<std::vector<Tensor>> {
        return std::vector<Tensor>{ops::add(ins[0], ins[0])};
      },
      {x}, {{DType::kFloat32, Shape()}});
  EXPECT_FLOAT_EQ(outs[0].scalar<float>(), 4.0f);
}

TEST(HostFuncTest, EmbedsImperativeCodeInGraphs) {
  // A data-dependent host computation (collatz-ish recursion on the tensor
  // VALUE) cannot be traced — but host_func embeds it in the graph.
  std::function<int(int)> collatz_steps = [&](int n) {
    if (n <= 1) return 0;
    return 1 + collatz_steps(n % 2 == 0 ? n / 2 : 3 * n + 1);
  };
  Function f = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor doubled = ops::mul(args[0], ops::fill(DType::kInt32, {}, 2));
        std::vector<Tensor> outs = host_func(
            "collatz",
            [&collatz_steps](const std::vector<Tensor>& ins)
                -> StatusOr<std::vector<Tensor>> {
              int32_t value = ins[0].scalar<int32_t>();
              return std::vector<Tensor>{tensor_util::Scalar<int32_t>(
                  collatz_steps(value))};
            },
            {doubled}, {{DType::kInt32, Shape()}});
        return {ops::add(outs[0], ops::fill(DType::kInt32, {}, 100))};
      },
      "with_host_func");
  // collatz_steps(6) == 8  ->  108.
  Tensor result = f({tensor_util::Scalar<int32_t>(3)})[0];
  EXPECT_EQ(result.scalar<int32_t>(), 108);
  // The graph re-executes the host callback with fresh values each call.
  Tensor result2 = f({tensor_util::Scalar<int32_t>(5)})[0];
  EXPECT_EQ(result2.scalar<int32_t>(), 100 + collatz_steps(10));
}

TEST(HostFuncTest, MakesGraphUnserializable) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return host_func(
            "identity",
            [](const std::vector<Tensor>& ins)
                -> StatusOr<std::vector<Tensor>> {
              return std::vector<Tensor>{ins[0]};
            },
            {args[0]}, {{DType::kFloat32, Shape()}});
      },
      "unserializable");
  auto concrete = f.GetConcreteFunction({ops::scalar<float>(1.0f)});
  ASSERT_TRUE(concrete.ok());
  EXPECT_FALSE((*concrete)->IsSerializable());
}

}  // namespace
}  // namespace tfe
