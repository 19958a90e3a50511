// The Device abstraction shared by imperative and staged execution.
//
// Paper §4.4: "Imperative and staged computations use the same underlying
// Device abstraction, which makes it possible to both execute operations on
// devices and store data on them." A Device here is:
//   * a name (job/task/kind/index),
//   * an execution policy — does it run real kernels (CPU, and simulated
//     devices in numerics mode) or only model their cost (ResNet-scale
//     benchmarks on the simulated accelerators),
//   * a Timeline accumulating virtual kernel time (simulated devices),
//   * optionally a per-op-signature compile cache (the simulated TPU, §4.4:
//     "the overhead of compiling operations for TPU and dispatching the
//     generated code is significant").
#ifndef TFE_DEVICE_DEVICE_H_
#define TFE_DEVICE_DEVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>

#include "device/cost_model.h"
#include "device/device_name.h"
#include "support/timeline.h"
#include "tensor/allocator.h"

namespace tfe {

class Device {
 public:
  Device(DeviceNameParts name, DeviceCostParams cost_params,
         bool executes_kernels, bool synchronous,
         AllocatorKind allocator = DefaultAllocatorKind());
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // Remote devices live on another worker: ops dispatched to them are
  // forwarded over a RemoteBackend instead of running kernels here (see
  // device/remote_device.h), but they flow through the same DeviceManager /
  // DeviceScope / OpQueue machinery as local ones (paper §4.5).
  virtual bool IsRemote() const { return false; }

  const std::string& name() const { return canonical_name_; }
  const DeviceNameParts& name_parts() const { return name_parts_; }
  DeviceKind kind() const { return name_parts_.kind; }
  bool is_accelerator() const { return kind() != DeviceKind::kCpu; }

  // Whether kernels on this device produce real numerics. When false, the
  // dispatcher allocates zeroed outputs of the inferred shapes and only the
  // cost model runs (simulation-only benchmarking mode).
  bool executes_kernels() const { return executes_kernels_; }

  // Synchronous devices (CPU, TPU) block the host until the kernel retires;
  // asynchronous devices (GPU stream) only charge the host an enqueue cost.
  bool synchronous() const { return synchronous_; }

  const DeviceCostParams& cost_params() const { return cost_params_; }
  Timeline& timeline() { return timeline_; }

  // The allocator serving this device's tensor storage (never null). Each
  // device owns its own instance — the allocator-behind-context pattern —
  // so per-device stats() separate CPU, sim, and remote allocation traffic.
  // The kind (arena vs system) is fixed at construction: an EagerContext
  // builds its own devices with Options::allocator; devices added later
  // (a Cluster's remote devices) take DefaultAllocatorKind().
  Allocator* allocator() const { return allocator_.get(); }
  const std::shared_ptr<Allocator>& allocator_shared() const {
    return allocator_;
  }

  // Virtual cost to charge for compiling `signature` on this device
  // (simulated TPU eager mode). First call per signature pays
  // per_op_compile_ns; later calls hit the compile cache and pay nothing.
  uint64_t CompileCostNs(const std::string& signature);

  // Resets the timeline for a fresh measurement window. Compile caches are
  // deliberately preserved: the paper excludes one-time build/optimization
  // costs, so warmed-up compilations survive timer resets.
  void ResetSimulation();
  // Drops cached compilations too (full cold-start).
  void ResetCompileCache();

 private:
  DeviceNameParts name_parts_;
  std::string canonical_name_;
  DeviceCostParams cost_params_;
  bool executes_kernels_;
  bool synchronous_;
  Timeline timeline_;
  std::shared_ptr<Allocator> allocator_;

  std::mutex compile_mu_;
  std::unordered_set<std::string> compile_cache_;
};

// Preset factories. `executes_kernels` toggles numerics vs. timing-only mode
// for the simulated accelerators (CPU always executes for real).
std::unique_ptr<Device> MakeCpuDevice(
    DeviceNameParts name = {}, AllocatorKind allocator = DefaultAllocatorKind());
std::unique_ptr<Device> MakeSimGpuDevice(
    int index = 0, bool executes_kernels = true,
    const std::string& job = "localhost", int task = 0,
    AllocatorKind allocator = DefaultAllocatorKind());
std::unique_ptr<Device> MakeSimTpuDevice(
    int index = 0, bool executes_kernels = true,
    const std::string& job = "localhost", int task = 0,
    AllocatorKind allocator = DefaultAllocatorKind());

}  // namespace tfe

#endif  // TFE_DEVICE_DEVICE_H_
