// Device naming, manager, cost model, and simulated-device behavior.
#include <gtest/gtest.h>

#include "device/cost_model.h"
#include "device/device.h"
#include "device/device_manager.h"
#include "ops/op_registry.h"

namespace tfe {
namespace {

OpCostClass CostClassOf(const char* op) {
  return (*OpRegistry::Global()->LookUp(op))->cost;
}

TEST(DeviceNameTest, FullNameRoundTrip) {
  auto parts = ParseDeviceName("/job:training/task:2/device:GPU:1");
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->job, "training");
  EXPECT_EQ(parts->task, 2);
  EXPECT_EQ(parts->kind, DeviceKind::kGpu);
  EXPECT_EQ(parts->index, 1);
  EXPECT_EQ(parts->ToString(), "/job:training/task:2/device:GPU:1");
}

TEST(DeviceNameTest, ShortForms) {
  EXPECT_EQ(ParseDeviceName("/gpu:0")->kind, DeviceKind::kGpu);
  EXPECT_EQ(ParseDeviceName("gpu:1")->index, 1);
  EXPECT_EQ(ParseDeviceName("TPU")->kind, DeviceKind::kTpu);
  EXPECT_EQ(ParseDeviceName("/device:CPU:0")->kind, DeviceKind::kCpu);
  EXPECT_EQ(ParseDeviceName("cpu")->job, "localhost");
}

TEST(DeviceNameTest, Malformed) {
  EXPECT_FALSE(ParseDeviceName("").ok());
  EXPECT_FALSE(ParseDeviceName("/job:").ok());
  EXPECT_FALSE(ParseDeviceName("/task:x/device:CPU:0").ok());
  EXPECT_FALSE(ParseDeviceName("/device:NPU:0").ok());
  EXPECT_FALSE(ParseDeviceName("/device:GPU:0:9").ok());
}

TEST(DeviceManagerTest, AddFindList) {
  DeviceManager manager;
  auto cpu = manager.AddDevice(MakeCpuDevice());
  ASSERT_TRUE(cpu.ok());
  auto gpu = manager.AddDevice(MakeSimGpuDevice());
  ASSERT_TRUE(gpu.ok());

  EXPECT_EQ(manager.ListDevices().size(), 2u);
  EXPECT_EQ(*manager.FindDevice("/gpu:0"), *gpu);
  EXPECT_EQ(*manager.FindDevice("/job:localhost/task:0/device:CPU:0"), *cpu);
  EXPECT_FALSE(manager.FindDevice("/gpu:1").ok());
  EXPECT_EQ(manager.HostCpu(), *cpu);
  EXPECT_EQ(*manager.FirstDeviceOfKind(DeviceKind::kGpu), *gpu);
  EXPECT_FALSE(manager.FirstDeviceOfKind(DeviceKind::kTpu).ok());
}

TEST(DeviceManagerTest, RejectsDuplicates) {
  DeviceManager manager;
  ASSERT_TRUE(manager.AddDevice(MakeCpuDevice()).ok());
  EXPECT_FALSE(manager.AddDevice(MakeCpuDevice()).ok());
}

TEST(CostModelTest, MatMulFlops) {
  // [8,16] x [16,32] -> [8,32]: 2*8*32*16 = 8192 FLOPs.
  OpCost cost = EstimateOpCost(CostClassOf("MatMul"), {Shape({8, 16}), Shape({16, 32})},
                               {Shape({8, 32})}, 4);
  EXPECT_DOUBLE_EQ(cost.flops, 8192.0);
  EXPECT_GT(cost.bytes, 0.0);
}

TEST(CostModelTest, Conv2DFlops) {
  // out 1x8x8x4, window 3*3*2 -> 2*256*18 FLOPs.
  OpCost cost = EstimateOpCost(
      CostClassOf("Conv2D"), {Shape({1, 8, 8, 2}), Shape({3, 3, 2, 4})},
      {Shape({1, 8, 8, 4})}, 4);
  EXPECT_DOUBLE_EQ(cost.flops, 2.0 * (1 * 8 * 8 * 4) * (3 * 3 * 2));
}

TEST(CostModelTest, ElementwiseDefault) {
  OpCost cost = EstimateOpCost(CostClassOf("Add"), {Shape({10}), Shape({10})},
                               {Shape({10})}, 4);
  EXPECT_DOUBLE_EQ(cost.flops, 10.0);
  EXPECT_DOUBLE_EQ(cost.bytes, 30.0 * 4);
}

TEST(CostModelTest, RooflineComputeVsMemoryBound) {
  DeviceCostParams params;
  params.flops_per_second = 1e12;
  params.bytes_per_second = 1e11;
  params.efficiency = 1.0;
  OpCost compute_bound{1e9, 1e3};
  OpCost memory_bound{1e3, 1e9};
  EXPECT_EQ(KernelTimeNs(compute_bound, params, false), 1'000'000u);
  EXPECT_EQ(KernelTimeNs(memory_bound, params, false), 10'000'000u);
}

TEST(CostModelTest, CompiledDiscountAndDispatch) {
  DeviceCostParams params;
  params.flops_per_second = 1e12;
  params.bytes_per_second = 1e12;
  params.efficiency = 1.0;
  params.eager_dispatch_ns = 500;
  params.fused_discount = 0.5;
  OpCost cost{1e6, 0};
  uint64_t eager = KernelTimeNs(cost, params, /*compiled=*/false);
  uint64_t compiled = KernelTimeNs(cost, params, /*compiled=*/true);
  EXPECT_EQ(eager, 1000u + 500u);
  EXPECT_EQ(compiled, 500u);
}

TEST(SimDeviceTest, CompileCacheChargesOnce) {
  auto tpu = MakeSimTpuDevice();
  uint64_t first = tpu->CompileCostNs("MatMul;[2,2];[2,2]");
  EXPECT_GT(first, 0u);
  EXPECT_EQ(tpu->CompileCostNs("MatMul;[2,2];[2,2]"), 0u);
  EXPECT_GT(tpu->CompileCostNs("MatMul;[4,4];[4,4]"), 0u);
  // Timer resets preserve warmed compilations (the paper excludes one-time
  // build costs)...
  tpu->ResetSimulation();
  EXPECT_EQ(tpu->CompileCostNs("MatMul;[2,2];[2,2]"), 0u);
  // ...while a full cold-start clears them.
  tpu->ResetCompileCache();
  EXPECT_GT(tpu->CompileCostNs("MatMul;[2,2];[2,2]"), 0u);
}

TEST(SimDeviceTest, Presets) {
  auto cpu = MakeCpuDevice();
  EXPECT_TRUE(cpu->synchronous());
  EXPECT_TRUE(cpu->executes_kernels());
  EXPECT_FALSE(cpu->is_accelerator());

  auto gpu = MakeSimGpuDevice(0, /*executes_kernels=*/false);
  EXPECT_FALSE(gpu->synchronous());  // async stream
  EXPECT_FALSE(gpu->executes_kernels());
  EXPECT_TRUE(gpu->is_accelerator());

  auto tpu = MakeSimTpuDevice();
  EXPECT_TRUE(tpu->synchronous());
  EXPECT_GT(tpu->cost_params().per_op_compile_ns, 0u);
  EXPECT_LT(tpu->cost_params().fused_discount, 1.0);
}

}  // namespace
}  // namespace tfe
