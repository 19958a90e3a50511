// One-stop registration of op defs, kernels and gradients.
#include <mutex>

#include "ops/op_registry.h"

namespace tfe {

namespace data {
void RegisterDataOps();
}  // namespace data

void RegisterHashTableOps();      // state/hash_table.cpp
void RegisterControlFlowOps();    // staging/control_flow.cpp
void RegisterAllGradients();      // autodiff/gradients.cpp

namespace kernels {
void RegisterElementwiseKernels();
void RegisterFusedElementwiseKernels();
void RegisterMatMulKernels();
void RegisterConvKernels();
void RegisterPoolingKernels();
void RegisterBatchNormKernels();
void RegisterReductionKernels();
void RegisterShapeKernels();
void RegisterSoftmaxKernels();
void RegisterRandomKernels();
void RegisterVariableKernels();
void RegisterControlKernels();
void RegisterCallKernels();
void RegisterHostFuncKernels();
}  // namespace kernels

void EnsureOpsRegistered() {
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterAllOpDefs();
    kernels::RegisterElementwiseKernels();
    kernels::RegisterFusedElementwiseKernels();
    kernels::RegisterMatMulKernels();
    kernels::RegisterConvKernels();
    kernels::RegisterPoolingKernels();
    kernels::RegisterBatchNormKernels();
    kernels::RegisterReductionKernels();
    kernels::RegisterShapeKernels();
    kernels::RegisterSoftmaxKernels();
    kernels::RegisterRandomKernels();
    kernels::RegisterVariableKernels();
    kernels::RegisterControlKernels();
    kernels::RegisterCallKernels();
    kernels::RegisterHostFuncKernels();
    data::RegisterDataOps();
    RegisterHashTableOps();
    RegisterControlFlowOps();
    RegisterAllGradients();
  });
}

}  // namespace tfe
