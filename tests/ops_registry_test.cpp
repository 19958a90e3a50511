// Registry invariants: every op has a kernel (or is a construction
// pseudo-op), every differentiable op used by the models has a gradient,
// and shape-inference error paths reject bad programs at trace time.
#include <gtest/gtest.h>

#include <set>

#include "api/tfe.h"
#include "autodiff/gradient_registry.h"
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
    if (pseudo.count(op) > 0) continue;
    EXPECT_TRUE(KernelRegistry::Global()->HasKernel(op, DeviceKind::kCpu))
        << "op without CPU kernel: " << op;
  }
}

TEST(OpRegistryTest, KernelsCoverAllSimulatedDeviceKinds) {
  EnsureOpsRegistered();
  for (const char* op : {"Add", "MatMul", "Conv2D", "Relu"}) {
    for (DeviceKind kind :
         {DeviceKind::kCpu, DeviceKind::kGpu, DeviceKind::kTpu}) {
      EXPECT_TRUE(KernelRegistry::Global()->HasKernel(op, kind))
          << op << " on " << DeviceKindName(kind);
    }
  }
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
    EXPECT_NE(GradientRegistry::Global()->Find(op), nullptr)
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

TEST(KernelRegistryTest, DuplicateKernelRejected) {
  EnsureOpsRegistered();
  Status status = KernelRegistry::Global()->Register(
      "Add", [](KernelContext*) { return Status::OK(); });
  EXPECT_EQ(status.code(), ErrorCode::kAlreadyExists);
}

TEST(KernelRegistryTest, LookupMissingKernel) {
  EnsureOpsRegistered();
  StatusOr<const OpKernels*> missing =
      KernelRegistry::Global()->LookUpOp("NoSuchOp");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "No kernel registered for op NoSuchOp");
  StatusOr<const OpKernels*> add = KernelRegistry::Global()->LookUpOp("Add");
  ASSERT_TRUE(add.ok());
  EXPECT_TRUE((*add)->For(DeviceKind::kCpu).ok());
}

}  // namespace
}  // namespace tfe
