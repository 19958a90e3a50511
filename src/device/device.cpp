#include "device/device.h"

#include "ops/op_def.h"
#include "tensor/tensor.h"

namespace tfe {

Device::Device(DeviceNameParts name, DeviceCostParams cost_params,
               bool executes_kernels, bool synchronous,
               AllocatorKind allocator)
    : name_parts_(name),
      canonical_name_(name.ToString()),
      cost_params_(cost_params),
      executes_kernels_(executes_kernels),
      synchronous_(synchronous),
      timeline_(canonical_name_),
      allocator_(MakeAllocator(allocator, canonical_name_)) {}

uint64_t Device::CompileCostNs(const std::string& signature) {
  if (cost_params_.per_op_compile_ns == 0) return 0;
  std::lock_guard<std::mutex> lock(compile_mu_);
  if (compile_cache_.insert(signature).second) {
    return cost_params_.per_op_compile_ns;
  }
  return 0;
}

uint64_t Device::OpCompileCostNs(const OpDef& op,
                                 const std::vector<Tensor>& inputs) {
  if (cost_params_.per_op_compile_ns == 0 || op.function_call) return 0;
  std::string signature = op.name;
  for (const Tensor& input : inputs) {
    if (input.defined() && !input.is_resource()) {
      signature += ";" + input.shape().ToString();
    }
  }
  return CompileCostNs(signature);
}

void Device::ResetSimulation() { timeline_.Reset(); }

void Device::ResetCompileCache() {
  std::lock_guard<std::mutex> lock(compile_mu_);
  compile_cache_.clear();
}

}  // namespace tfe
