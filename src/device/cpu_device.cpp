#include "device/device.h"

namespace tfe {

// The host CPU always executes real kernels synchronously. Its cost params
// are only used when a benchmark asks for virtual-time accounting of CPU
// kernels; by default CPU kernel time is *measured*, not modelled (the
// dispatcher records wall time into the timeline).
std::unique_ptr<Device> MakeCpuDevice(DeviceNameParts name,
                                      AllocatorKind allocator) {
  name.kind = DeviceKind::kCpu;
  DeviceCostParams params;
  // Xeon W-2135-class single socket (the paper's testbed host): ~0.5 TFLOPs
  // achievable fp32, ~60 GB/s.
  params.flops_per_second = 5e11;
  params.bytes_per_second = 6e10;
  params.efficiency = 0.5;
  params.kernel_launch_ns = 500;  // C++ kernel call + allocator
  params.executor_node_ns = 700;  // staged per-node scheduling cost
  return std::make_unique<Device>(name, params, /*executes_kernels=*/true,
                                  /*synchronous=*/true, allocator);
}

}  // namespace tfe
