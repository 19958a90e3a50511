// Registry invariants: every op has a kernel (or is a construction
// pseudo-op), every differentiable op used by the models has a gradient,
// the traits set at registration are pinned, registrations that would
// break the one-entry-per-op rule are rejected, and shape-inference error
// paths reject bad programs at trace time.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "api/tfe.h"
#include "ops/kernel.h"
#include "ops/op_registry.h"

namespace tfe {
namespace {

TEST(OpRegistryTest, CoreOpsAreRegistered) {
  EnsureOpsRegistered();
  for (const char* op :
       {"Add", "MatMul", "Conv2D", "FusedBatchNorm", "Softmax", "Sum",
        "Reshape", "ReadVariableOp", "Call", "HostFunc", "RandomNormal",
        "Cond", "While", "IteratorNext", "HashTableLookup", "Range"}) {
    EXPECT_TRUE(OpRegistry::Global()->Contains(op)) << op;
  }
  EXPECT_FALSE(OpRegistry::Global()->Contains("NoSuchOp"));
  EXPECT_FALSE(OpRegistry::Global()->LookUp("NoSuchOp").ok());
}

TEST(OpRegistryTest, DuplicateRegistrationRejected) {
  EnsureOpsRegistered();
  OpDef dup;
  dup.name = "Add";
  dup.num_inputs = 2;
  dup.shape_fn = shape_fn::BroadcastBinary;
  EXPECT_EQ(OpRegistry::Global()->Register(std::move(dup)).code(),
            ErrorCode::kAlreadyExists);
}

TEST(OpRegistryTest, EveryOpHasAKernelOrIsAPseudoOp) {
  EnsureOpsRegistered();
  // Pseudo-ops are materialized by the tracer/executor, not kernels.
  const std::set<std::string> pseudo = {"Arg", "Const"};
  for (const std::string& op : OpRegistry::Global()->ListOps()) {
    const bool has_kernel =
        static_cast<bool>((*OpRegistry::Global()->LookUp(op))->kernel);
    EXPECT_EQ(has_kernel, pseudo.count(op) == 0) << op;
  }
}

// An op's one kernel serves every device kind: explicit placement on the
// CPU and on each simulated accelerator finds it.
TEST(OpRegistryTest, KernelsCoverAllSimulatedDeviceKinds) {
  EagerContext::ResetGlobal({});
  EagerContext* ctx = EagerContext::Global();
  for (const char* op : {"Add", "MatMul", "Conv2D", "Relu"}) {
    const OpDef* def = *OpRegistry::Global()->LookUp(op);
    for (Device* device : ctx->devices().ListDevices()) {
      StatusOr<Device*> placed = ctx->ResolveDevice(*def, {}, device->name());
      ASSERT_TRUE(placed.ok()) << op << " on " << device->name() << ": "
                               << placed.status().ToString();
      EXPECT_EQ(*placed, device);
    }
  }
}

// The placement and async traits are pinned to the ops that carried them
// as hard-coded name lists before they moved into the registry entry.
TEST(OpRegistryTest, TraitsMatchTheirOps) {
  EnsureOpsRegistered();
  std::set<std::string> always_executes;
  std::set<std::string> variable_ops;
  for (const std::string& op : OpRegistry::Global()->ListOps()) {
    const OpDef* def = *OpRegistry::Global()->LookUp(op);
    if (def->always_executes) always_executes.insert(op);
    if (def->variable_op) variable_ops.insert(op);
  }
  const std::set<std::string> variable_expected = {
      "ReadVariableOp", "AssignVariableOp", "AssignAddVariableOp",
      "AssignSubVariableOp"};
  EXPECT_EQ(variable_ops, variable_expected);
  std::set<std::string> always_expected = {
      "Call",         "HostFunc",        "SaveTensor",    "RestoreTensor",
      "IteratorNext", "HashTableInsert", "HashTableLookup", "HashTableSize",
      "Cond",         "While",           "NoOp"};
  always_expected.insert(variable_expected.begin(), variable_expected.end());
  EXPECT_EQ(always_executes, always_expected);
}

// Each identity trait is set on exactly these ops.
TEST(OpRegistryTest, IdentityTraitsMatchTheirOps) {
  EnsureOpsRegistered();
  auto ops_where = [](const std::function<bool(const OpDef&)>& trait) {
    std::set<std::string> names;
    for (const std::string& op : OpRegistry::Global()->ListOps()) {
      if (trait(**OpRegistry::Global()->LookUp(op))) names.insert(op);
    }
    return names;
  };
  using kernels::FusedMemberKind;
  const auto fused_kind = [&](FusedMemberKind kind) {
    return ops_where([kind](const OpDef& d) { return d.fused.kind == kind; });
  };
  EXPECT_EQ(fused_kind(FusedMemberKind::kCompute),
            (std::set<std::string>{
                "Abs", "Add", "Cast", "Cos", "Div", "Exp", "Floor", "Log",
                "Maximum", "Minimum", "Mul", "Neg", "Pow", "Reciprocal",
                "Relu", "Rsqrt", "Sigmoid", "Sign", "Sin", "Sqrt", "Square",
                "SquaredDifference", "Sub", "Tanh"}));
  EXPECT_EQ(fused_kind(FusedMemberKind::kLayout),
            (std::set<std::string>{"ExpandDims", "Reshape", "Squeeze",
                                   "Transpose"}));
  EXPECT_EQ(fused_kind(FusedMemberKind::kReduce),
            (std::set<std::string>{"Max", "Mean", "Min", "Sum"}));
  EXPECT_EQ(ops_where([](const OpDef& d) {
              return d.fused.kind == FusedMemberKind::kCompute &&
                     kernels::MicroOpFloatOnly(d.fused.code);
            }),
            (std::set<std::string>{"Cos", "Exp", "Floor", "Log", "Pow",
                                   "Reciprocal", "Rsqrt", "Sigmoid", "Sin",
                                   "Sqrt", "Tanh"}));
  const auto cost = [&](OpCostClass c) {
    return ops_where([c](const OpDef& d) { return d.cost == c; });
  };
  EXPECT_EQ(cost(OpCostClass::kTranscendental),
            (std::set<std::string>{"Cos", "Exp", "Log", "Pow", "RandomNormal",
                                   "RandomUniform", "Rsqrt", "Sigmoid", "Sin",
                                   "Sqrt", "Tanh"}));
  EXPECT_EQ(cost(OpCostClass::kMatMul), std::set<std::string>{"MatMul"});
  EXPECT_EQ(cost(OpCostClass::kConv2D), std::set<std::string>{"Conv2D"});
  EXPECT_EQ(cost(OpCostClass::kConv2DBackpropInput),
            std::set<std::string>{"Conv2DBackpropInput"});
  EXPECT_EQ(cost(OpCostClass::kConv2DBackpropFilter),
            std::set<std::string>{"Conv2DBackpropFilter"});
  EXPECT_EQ(cost(OpCostClass::kBatchNorm),
            (std::set<std::string>{"FusedBatchNorm", "FusedBatchNormGrad"}));
  EXPECT_EQ(cost(OpCostClass::kSoftmax),
            (std::set<std::string>{"LogSoftmax", "Softmax",
                                   "SparseSoftmaxCrossEntropyWithLogits"}));
  EXPECT_EQ(cost(OpCostClass::kPool),
            (std::set<std::string>{"AvgPool", "AvgPoolGrad", "MaxPool",
                                   "MaxPoolGrad"}));
  EXPECT_EQ(ops_where([](const OpDef& d) {
              return d.binding == OpDef::Binding::kArg;
            }),
            std::set<std::string>{"Arg"});
  EXPECT_EQ(ops_where([](const OpDef& d) {
              return d.binding == OpDef::Binding::kConst;
            }),
            std::set<std::string>{"Const"});
  EXPECT_EQ(ops_where([](const OpDef& d) { return d.function_call; }),
            std::set<std::string>{"Call"});
  EXPECT_EQ(ops_where([](const OpDef& d) { return d.host_callback; }),
            std::set<std::string>{"HostFunc"});
  EXPECT_EQ(ops_where([](const OpDef& d) { return d.read_only; }),
            (std::set<std::string>{"NoOp", "ReadVariableOp"}));
  EXPECT_EQ(ops_where([](const OpDef& d) { return d.pure_when_seeded; }),
            (std::set<std::string>{"RandomNormal", "RandomUniform"}));
  EXPECT_EQ(ops_where([](const OpDef& d) {
              return static_cast<bool>(d.trace_outputs);
            }),
            (std::set<std::string>{"Call", "Cond", "While", "WhileGrad"}));
}

// A kernel or gradient attaches only to a registered op, and only once.
TEST(OpRegistryTest, AttachmentsRejected) {
  EnsureOpsRegistered();
  OpRegistry* registry = OpRegistry::Global();
  const KernelFn kernel = [](KernelContext*) { return Status::OK(); };
  const GradFn gradient = [](const TapeEntry&, const std::vector<Tensor>&)
      -> StatusOr<std::vector<Tensor>> { return std::vector<Tensor>{}; };
  EXPECT_EQ(registry->RegisterKernel("NoSuchOp", kernel).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(registry->RegisterGradient("NoSuchOp", gradient).code(),
            ErrorCode::kNotFound);
  EXPECT_FALSE(registry->Contains("NoSuchOp"));
  EXPECT_EQ(registry->RegisterGradient("Add", gradient).code(),
            ErrorCode::kAlreadyExists);
}

// A differentiable op without a gradient keeps its loud error: here the
// second-order gradient through MaxPool meets MaxPoolGrad.
TEST(OpRegistryTest, MissingGradientIsUnimplemented) {
  EagerContext::ResetGlobal({});
  Tensor x = ops::random_normal({1, 4, 4, 1}, 0, 1, /*seed=*/7);
  GradientTape outer;
  outer.watch(x);
  Tensor dx;
  {
    GradientTape inner;
    inner.watch(x);
    Tensor y = ops::reduce_sum(ops::max_pool(x, {2, 2}, {2, 2}));
    StatusOr<std::vector<Tensor>> grads = inner.gradient(y, {x});
    ASSERT_TRUE(grads.ok()) << grads.status().ToString();
    dx = (*grads)[0];
  }
  StatusOr<std::vector<Tensor>> second =
      outer.gradient(ops::reduce_sum(dx), {x});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kUnimplemented);
  EXPECT_EQ(second.status().message(),
            "No gradient registered for op MaxPoolGrad (op is marked "
            "differentiable)");
}

TEST(OpRegistryTest, DifferentiableFloatOpsHaveGradients) {
  EnsureOpsRegistered();
  // Ops flagged differentiable that tapes may meet must either have a
  // registered gradient or be deliberate loud-error cases: While and the
  // second-order gradients of conv/pool/batch-norm (differentiating a
  // backward op) raise Unimplemented rather than silently producing zeros.
  const std::set<std::string> loud_error_by_design = {
      "While",          "Conv2DBackpropInput", "Conv2DBackpropFilter",
      "MaxPoolGrad",    "AvgPoolGrad",         "FusedBatchNormGrad"};
  for (const std::string& op : OpRegistry::Global()->ListOps()) {
    auto def = OpRegistry::Global()->LookUp(op);
    ASSERT_TRUE(def.ok());
    if (!(*def)->differentiable) continue;
    if (loud_error_by_design.count(op) > 0) continue;
    EXPECT_TRUE((*def)->gradient)
        << "differentiable op without gradient: " << op;
  }
}

TEST(OpRegistryTest, StatefulnessMatchesSemantics) {
  EnsureOpsRegistered();
  for (const char* op : {"ReadVariableOp", "AssignVariableOp", "RandomNormal",
                         "HostFunc", "Call", "IteratorNext", "SaveTensor"}) {
    EXPECT_TRUE((*OpRegistry::Global()->LookUp(op))->is_stateful) << op;
  }
  for (const char* op : {"Add", "MatMul", "Reshape", "Softmax"}) {
    EXPECT_FALSE((*OpRegistry::Global()->LookUp(op))->is_stateful) << op;
  }
}

// Shape-inference error paths: bad programs must fail when *traced*, before
// any kernel runs (the staged analog of eager kernel validation).
TEST(ShapeInferenceErrors, RejectedAtTraceTime) {
  struct Case {
    const char* name;
    std::function<void()> body;
  };
  std::vector<Case> cases = {
      {"matmul_rank", [] { ops::matmul(ops::ones(DType::kFloat32, {2}),
                                       ops::ones(DType::kFloat32, {2, 2})); }},
      {"matmul_inner", [] { ops::matmul(ops::ones(DType::kFloat32, {2, 3}),
                                        ops::ones(DType::kFloat32, {4, 5})); }},
      {"conv_channels",
       [] {
         ops::conv2d(ops::ones(DType::kFloat32, {1, 4, 4, 3}),
                     ops::ones(DType::kFloat32, {3, 3, 2, 8}));
       }},
      {"reduce_axis", [] { ops::reduce_sum(ops::ones(DType::kFloat32, {2}),
                                           {5}); }},
      {"transpose_perm", [] { ops::transpose(ops::ones(DType::kFloat32, {2, 2}),
                                             {0, 0}); }},
      {"concat_rank",
       [] {
         ops::concat({ops::ones(DType::kFloat32, {2}),
                      ops::ones(DType::kFloat32, {2, 2})},
                     0);
       }},
      {"slice_oob", [] { ops::slice(ops::ones(DType::kFloat32, {3}), {2},
                                    {5}); }},
      {"pad_negative", [] { ops::pad(ops::ones(DType::kFloat32, {2}),
                                     {-1, 0}); }},
      {"squeeze_non_one", [] { ops::squeeze(ops::ones(DType::kFloat32, {2, 3}),
                                            {0}); }},
  };
  for (const Case& test_case : cases) {
    // Eagerly, kernels reject these...
    EXPECT_THROW(test_case.body(), RuntimeError) << test_case.name;
    // ...and under tracing, shape inference rejects them with no kernel run.
    Function staged = function(
        [&](const std::vector<Tensor>&) -> std::vector<Tensor> {
          test_case.body();
          return {ops::scalar<float>(0.0f)};
        },
        "bad_program");
    EXPECT_THROW(staged({}), RuntimeError) << test_case.name << " (traced)";
  }
}

// The kernel half of the op registry (kernels live in each op's entry).
TEST(KernelRegistryTest, DuplicateKernelRejected) {
  EnsureOpsRegistered();
  Status status = OpRegistry::Global()->RegisterKernel(
      "Add", [](KernelContext*) { return Status::OK(); });
  EXPECT_EQ(status.code(), ErrorCode::kAlreadyExists);
}

TEST(KernelRegistryTest, LookupMissingKernel) {
  EagerContext::ResetGlobal({});
  EagerContext* ctx = EagerContext::Global();
  const AttrMap attrs;
  // An unknown op and a registered op without a kernel both fail NotFound;
  // the latter names the missing kernel.
  auto unknown = ctx->ExecuteKernel("NoSuchOp", {}, attrs, ctx->HostCpu(),
                                    /*compiled=*/false, /*start_ns=*/0);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(ctx->RunPrimitive("NoSuchOp", {}, attrs, "").status().code(),
            ErrorCode::kNotFound);
  auto no_kernel = ctx->ExecuteKernel("Arg", {}, attrs, ctx->HostCpu(),
                                      /*compiled=*/false, /*start_ns=*/0);
  ASSERT_FALSE(no_kernel.ok());
  EXPECT_EQ(no_kernel.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(no_kernel.status().message(), "No kernel registered for op Arg");
  StatusOr<const OpDef*> add = OpRegistry::Global()->LookUp("Add");
  ASSERT_TRUE(add.ok());
  EXPECT_TRUE((*add)->kernel);
}

}  // namespace
}  // namespace tfe
