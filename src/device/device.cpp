#include "device/device.h"

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

void Device::ResetSimulation() { timeline_.Reset(); }

void Device::ResetCompileCache() {
  std::lock_guard<std::mutex> lock(compile_mu_);
  compile_cache_.clear();
}

}  // namespace tfe
