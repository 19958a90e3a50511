// GraphFunction serialization: the deployment path (paper §4.3/§5).
#include <gtest/gtest.h>

#include "api/tfe.h"
#include "graph/serialization.h"
#include "runtime/eager_context.h"
#include "staging/control_flow.h"

namespace tfe {
namespace {

TEST(SerializationTest, RoundTripExecutes) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor scaled = ops::mul(args[0], ops::fill(DType::kFloat32, {2}, 3.0));
        return {ops::reduce_sum(ops::tanh(scaled)), scaled};
      },
      "serialize_me");
  Tensor x = ops::constant<float>({0.1f, 0.2f}, {2});
  std::vector<Tensor> expected = f({x});

  auto concrete = f.GetConcreteFunction({x});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunction(**concrete);
  ASSERT_TRUE(serialized.ok());
  EXPECT_GT(serialized->size(), 0u);

  auto restored = DeserializeFunction(*serialized);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->name(), (*concrete)->name());
  EXPECT_EQ((*restored)->num_args(), (*concrete)->num_args());
  EXPECT_EQ((*restored)->num_outputs(), (*concrete)->num_outputs());

  // Execute the deserialized function in a separate runtime ("a production
  // environment that executes the trace using the C++ API").
  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext production(options);
  ASSERT_TRUE(production.functions().Register(*restored).ok());
  std::vector<Tensor> inputs = {x};
  for (const Capture& capture : (*restored)->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["function"] = AttrValue((*restored)->name());
  auto outputs = production.RunPrimitive("Call", inputs, attrs, "");
  ASSERT_TRUE(outputs.ok());
  ASSERT_EQ(outputs->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(tensor_util::AllClose(expected[i], (*outputs)[i]));
  }
}

TEST(SerializationTest, AllAttrKindsRoundTrip) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor t = ops::transpose(
            ops::reshape(args[0], {2, 3}), {1, 0});          // vec<int64>
        Tensor m = ops::matmul(t, t, /*transpose_a=*/false,
                               /*transpose_b=*/true);        // bool attrs
        Tensor c = ops::cast(m, DType::kFloat64);             // dtype attr
        Tensor r = ops::random_normal({3, 3}, 1.0, 2.0, 77);  // shape+double
        Tensor back = ops::cast(c, DType::kFloat32);
        return {ops::reduce_sum(ops::add(back, r), {0, 1})};
      },
      "attr_kinds");
  Tensor x = ops::constant<float>({1, 2, 3, 4, 5, 6}, {6});
  Tensor expected = f({x})[0];

  auto concrete = f.GetConcreteFunction({x});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunction(**concrete);
  ASSERT_TRUE(serialized.ok());
  auto restored = DeserializeFunction(*serialized);
  ASSERT_TRUE(restored.ok());

  // Same runtime this time; re-register under the deserialized name fails
  // (already present), so rename by deserializing into a fresh context.
  EagerContext isolated{EagerContext::Options{}};
  ASSERT_TRUE(isolated.functions().Register(*restored).ok());
  std::vector<Tensor> inputs = {x};
  for (const Capture& capture : (*restored)->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["function"] = AttrValue((*restored)->name());
  auto outputs = isolated.RunPrimitive("Call", inputs, attrs, "");
  ASSERT_TRUE(outputs.ok());
  EXPECT_TRUE(tensor_util::AllClose(expected, (*outputs)[0]));
}

TEST(SerializationTest, VariableCapturesRejected) {
  Variable v(ops::scalar<float>(1.0f));
  Function f = function(
      [&v](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(args[0], v.value())};
      },
      "captures_var");
  auto concrete = f.GetConcreteFunction({ops::scalar<float>(1.0f)});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunction(**concrete);
  EXPECT_FALSE(serialized.ok());
  EXPECT_EQ(serialized.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(SerializationTest, HostFuncRejected) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return host_func(
            "cb",
            [](const std::vector<Tensor>& ins)
                -> StatusOr<std::vector<Tensor>> {
              return std::vector<Tensor>{ins[0]};
            },
            {args[0]}, {{DType::kFloat32, Shape()}});
      },
      "hostfunc_serialize");
  auto concrete = f.GetConcreteFunction({ops::scalar<float>(1.0f)});
  ASSERT_TRUE(concrete.ok());
  EXPECT_FALSE(SerializeFunction(**concrete).ok());
}

TEST(SerializationTest, CorruptDataRejected) {
  EXPECT_FALSE(DeserializeFunction("").ok());
  EXPECT_FALSE(DeserializeFunction("garbage").ok());
  EXPECT_FALSE(DeserializeFunction("tfe_function_v1 5:hello 9999999").ok());
}

TEST(SerializationTest, CorruptCountsRejected) {
  Function f = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::reduce_sum(args[0], {0})};
      },
      "corrupt_counts");
  Tensor x = ops::constant<float>({1, 2, 3}, {3});
  auto concrete = f.GetConcreteFunction({x});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunction(**concrete);
  ASSERT_TRUE(serialized.ok());
  ASSERT_TRUE(DeserializeFunction(*serialized).ok());

  // The reduction's `axes` attr is the one list attr: "v 1 0".
  const std::string axes = " v 1 0 ";
  const size_t at = serialized->find(axes);
  ASSERT_NE(at, std::string::npos);
  for (const std::string corrupt : {" v -1 0 ", " v 99999999999 0 "}) {
    std::string edited = *serialized;
    edited.replace(at, axes.size(), corrupt);
    auto restored = DeserializeFunction(edited);
    ASSERT_FALSE(restored.ok()) << corrupt;
    EXPECT_EQ(restored.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(restored.status().message(),
              "Corrupt serialized function (attr list count)");
  }
}

TEST(SerializationTest, BundleCarriesNestedCallees) {
  Function inner = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::tanh(args[0])};
      },
      "bundle_inner");
  Function outer = function(
      [&inner](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(inner({args[0]})[0], args[0])};
      },
      "bundle_outer");
  Tensor x = ops::scalar<float>(0.7f);
  Tensor expected = outer({x})[0];

  auto concrete = outer.GetConcreteFunction({x});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunctionBundle(
      **concrete, EagerContext::Global()->functions());
  ASSERT_TRUE(serialized.ok());

  auto bundle = DeserializeFunctionBundle(*serialized);
  ASSERT_TRUE(bundle.ok());
  ASSERT_EQ(bundle->size(), 2u);  // outer + inner

  // Execute in a fresh runtime with no pre-registered functions.
  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext production(options);
  for (const auto& fn : *bundle) {
    ASSERT_TRUE(production.functions().Register(fn).ok());
  }
  std::vector<Tensor> inputs = {x};
  for (const Capture& capture : bundle->front()->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["function"] = AttrValue(bundle->front()->name());
  auto outputs = production.RunPrimitive("Call", inputs, attrs, "");
  ASSERT_TRUE(outputs.ok());
  EXPECT_TRUE(tensor_util::AllClose(expected, (*outputs)[0]));
}

TEST(SerializationTest, CondBundleRoundTrips) {
  // A traced Cond node references its branch functions by name; the bundle
  // must carry both so a fresh runtime can take either branch.
  Function double_it = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(args[0], ops::fill(DType::kFloat32, {}, 2.0))};
      },
      "ser_cond_then");
  Function negate_it = function(
      [](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::neg(args[0])};
      },
      "ser_cond_else");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        Tensor pred = ops::less(ops::fill(DType::kFloat32, {}, 0.0), args[0]);
        return ops::cond(pred, double_it, negate_it, {args[0]});
      },
      "ser_cond_outer");
  Tensor pos = ops::scalar<float>(3.0f);
  Tensor neg = ops::scalar<float>(-3.0f);
  Tensor want_pos = staged({pos})[0];
  ASSERT_EQ(staged.num_traces(), 1);

  auto concrete = staged.GetConcreteFunction({pos});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunctionBundle(
      **concrete, EagerContext::Global()->functions());
  ASSERT_TRUE(serialized.ok());
  auto bundle = DeserializeFunctionBundle(*serialized);
  ASSERT_TRUE(bundle.ok());
  ASSERT_EQ(bundle->size(), 3u);  // outer + both branches

  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext production(options);
  for (const auto& fn : *bundle) {
    ASSERT_TRUE(production.functions().Register(fn).ok());
  }
  AttrMap attrs;
  attrs["function"] = AttrValue(bundle->front()->name());
  auto run = [&](const Tensor& x) {
    std::vector<Tensor> inputs = {x};
    for (const Capture& capture : bundle->front()->captures()) {
      inputs.push_back(capture.tensor);
    }
    auto out = production.RunPrimitive("Call", inputs, attrs, "");
    EXPECT_TRUE(out.ok()) << out.status().message();
    return (*out)[0];
  };
  EXPECT_FLOAT_EQ(run(pos).scalar<float>(), want_pos.scalar<float>());
  EXPECT_FLOAT_EQ(run(neg).scalar<float>(), 3.0f);  // untaken-at-trace branch
}

TEST(SerializationTest, WhileBundleRoundTrips) {
  // The While node references cond/body functions; the deserialized loop
  // must still iterate a data-dependent number of times.
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], vars[1])};
      },
      "ser_while_cond");
  Function twice = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::mul(vars[0], ops::fill(DType::kFloat32, {}, 2.0)),
                vars[1]};
      },
      "ser_while_body");
  Function staged = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return ops::while_loop(below, twice, {args[0], args[1]});
      },
      "ser_while_outer");
  Tensor one = ops::scalar<float>(1.0f);
  Tensor limit = ops::scalar<float>(10.0f);
  EXPECT_FLOAT_EQ(staged({one, limit})[0].scalar<float>(), 16.0f);

  auto concrete = staged.GetConcreteFunction({one, limit});
  ASSERT_TRUE(concrete.ok());
  auto serialized = SerializeFunctionBundle(
      **concrete, EagerContext::Global()->functions());
  ASSERT_TRUE(serialized.ok());
  auto bundle = DeserializeFunctionBundle(*serialized);
  ASSERT_TRUE(bundle.ok());
  ASSERT_EQ(bundle->size(), 3u);  // outer + cond + body

  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext production(options);
  for (const auto& fn : *bundle) {
    ASSERT_TRUE(production.functions().Register(fn).ok());
  }
  AttrMap attrs;
  attrs["function"] = AttrValue(bundle->front()->name());
  auto run = [&](float init, float lim) {
    std::vector<Tensor> inputs = {ops::scalar<float>(init),
                                  ops::scalar<float>(lim)};
    for (const Capture& capture : bundle->front()->captures()) {
      inputs.push_back(capture.tensor);
    }
    auto out = production.RunPrimitive("Call", inputs, attrs, "");
    EXPECT_TRUE(out.ok()) << out.status().message();
    return (*out)[0].scalar<float>();
  };
  EXPECT_FLOAT_EQ(run(1.0f, 10.0f), 16.0f);
  EXPECT_FLOAT_EQ(run(1.0f, 100.0f), 128.0f);  // more iterations than traced
}

TEST(SerializationTest, WhileTrainingStepRoundTrips) {
  // A training step staged as one graph: the forward While, its WhileGrad,
  // the resource-typed forward-stack edge between them, and the loop
  // forward and loop backward they name. In a fresh context the bundle
  // must reproduce the live loss and gradients bitwise.
  Function below = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        return {ops::less(vars[0], ops::fill(DType::kFloat32, {}, 4.0))};
      },
      "ser_train_cond");
  Function body = function(
      [](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
        Tensor x = vars[1];
        Tensor w = vars[2];
        return {ops::add(vars[0], ops::fill(DType::kFloat32, {}, 1.0)),
                ops::add(ops::mul(x, w), ops::mul(ops::square(x), w)), w};
      },
      "ser_train_body");
  Function train = function(
      [&](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        GradientTape tape;
        tape.watch(args[0]);
        tape.watch(args[1]);
        Tensor zero = ops::fill(DType::kFloat32, {}, 0.0);
        Tensor y = ops::while_loop(below, body, {zero, args[0], args[1]})[1];
        Tensor loss = ops::square(y);
        tape.StopRecording();
        std::vector<Tensor> grads =
            std::move(tape.gradient(loss, {args[0], args[1]})).value();
        return {loss, grads[0], grads[1]};
      },
      "ser_train_step");
  Tensor x0 = ops::scalar<float>(0.5f);
  Tensor w = ops::scalar<float>(1.1f);
  std::vector<Tensor> live = train({x0, w});

  auto concrete = train.GetConcreteFunction({x0, w});
  ASSERT_TRUE(concrete.ok());
  bool has_stack_edge = false;
  for (int id = 0; id < (*concrete)->graph().num_nodes(); ++id) {
    const Node& node = (*concrete)->graph().node(id);
    if (node.attrs.count("body_forward") == 0) continue;
    has_stack_edge = node.outputs.back().dtype == DType::kResource;
  }
  ASSERT_TRUE(has_stack_edge);
  auto serialized = SerializeFunctionBundle(
      **concrete, EagerContext::Global()->functions());
  ASSERT_TRUE(serialized.ok()) << serialized.status().ToString();
  auto bundle = DeserializeFunctionBundle(*serialized);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext production(options);
  for (const auto& fn : *bundle) {
    ASSERT_TRUE(production.functions().Register(fn).ok());
  }
  std::vector<Tensor> inputs = {x0, w};
  for (const Capture& capture : bundle->front()->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["function"] = AttrValue(bundle->front()->name());
  auto restored = production.RunPrimitive("Call", inputs, attrs, "");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored->size(), live.size());
  const char* names[] = {"loss", "dx0", "dw"};
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ((*restored)[i].scalar<float>(), live[i].scalar<float>())
        << names[i];
  }
}

TEST(SerializationTest, RecursiveCallBundleRoundTrips) {
  // A recursive function's graph Calls itself by name: the bundle's
  // transitive-closure walk must terminate on the cycle and the restored
  // function must recurse in the fresh runtime.
  std::vector<TypeAndShape> sig = {{DType::kFloat32, Shape({})}};
  auto fact = DefineRecursiveFunction(
      "ser_factorial", sig, sig,
      [](const std::vector<Tensor>& args)
          -> StatusOr<std::vector<Tensor>> {
        Tensor n = args[0];
        Function base = function(
            [](const std::vector<Tensor>& a) -> std::vector<Tensor> {
              return {ops::fill(DType::kFloat32, {}, 1.0)};
            },
            "ser_fact_base");
        Function recurse = function(
            [](const std::vector<Tensor>& a) -> std::vector<Tensor> {
              Tensor n_minus_1 =
                  ops::sub(a[0], ops::fill(DType::kFloat32, {}, 1.0));
              std::vector<Tensor> rec = ops::call(
                  "ser_factorial", {n_minus_1},
                  {{DType::kFloat32, Shape({})}});
              return {ops::mul(a[0], rec[0])};
            },
            "ser_fact_recurse");
        Tensor is_base =
            ops::less(n, ops::fill(DType::kFloat32, {}, 1.5));
        return ops::cond(is_base, base, recurse, {n});
      });
  ASSERT_TRUE(fact.ok()) << fact.status().message();

  auto serialized = SerializeFunctionBundle(
      **fact, EagerContext::Global()->functions());
  ASSERT_TRUE(serialized.ok()) << serialized.status().message();
  auto bundle = DeserializeFunctionBundle(*serialized);
  ASSERT_TRUE(bundle.ok());
  // factorial + cond branches (+ their callees, if any): the self-reference
  // must not duplicate the root.
  int roots = 0;
  for (const auto& fn : *bundle) {
    if (fn->name() == "ser_factorial") ++roots;
  }
  EXPECT_EQ(roots, 1);

  EagerContext::Options options;
  options.register_sim_gpu = false;
  options.register_sim_tpu = false;
  EagerContext production(options);
  for (const auto& fn : *bundle) {
    ASSERT_TRUE(production.functions().Register(fn).ok());
  }
  AttrMap attrs;
  attrs["function"] = AttrValue("ser_factorial");
  auto out = production.RunPrimitive(
      "Call", {ops::scalar<float>(5.0f)}, attrs, "");
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_FLOAT_EQ((*out)[0].scalar<float>(), 120.0f);
}

TEST(SerializationTest, BundleRejectsGarbage) {
  EXPECT_FALSE(DeserializeFunctionBundle("").ok());
  EXPECT_FALSE(DeserializeFunctionBundle("tfe_bundle_v1").ok());
  EXPECT_FALSE(DeserializeFunctionBundle("tfe_bundle_v1 1 5:xxxxx").ok());
}

TEST(SerializationTest, ValueCapturesShipWithTheFunction) {
  Tensor weights = ops::constant<float>({2.0f, 4.0f}, {2});
  Function f = function(
      [weights](const std::vector<Tensor>& args) -> std::vector<Tensor> {
        return {ops::mul(args[0], weights)};
      },
      "value_capture_ship");
  Tensor x = ops::constant<float>({10.0f, 10.0f}, {2});
  auto concrete = f.GetConcreteFunction({x});
  ASSERT_TRUE(concrete.ok());
  ASSERT_EQ((*concrete)->captures().size(), 1u);
  auto serialized = SerializeFunction(**concrete);
  ASSERT_TRUE(serialized.ok());
  auto restored = DeserializeFunction(*serialized);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ((*restored)->captures().size(), 1u);
  EXPECT_TRUE(tensor_util::AllClose(weights,
                                    (*restored)->captures()[0].tensor));
}

}  // namespace
}  // namespace tfe
