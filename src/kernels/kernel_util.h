// Shared helpers for CPU kernel implementations.
#ifndef TFE_KERNELS_KERNEL_UTIL_H_
#define TFE_KERNELS_KERNEL_UTIL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "ops/kernel.h"
#include "support/status.h"
#include "tensor/tensor.h"

// Dtype dispatch: expands STMTS once per supported element type with `T`
// bound. The *_NUMERIC form covers arithmetic types; *_FLOAT covers the
// floating types only (transcendental kernels).
#define TFE_SWITCH_NUMERIC(DTYPE, T, ...)                          \
  switch (DTYPE) {                                                 \
    case ::tfe::DType::kFloat32: {                                 \
      using T = float;                                             \
      __VA_ARGS__;                                                 \
      break;                                                       \
    }                                                              \
    case ::tfe::DType::kFloat64: {                                 \
      using T = double;                                            \
      __VA_ARGS__;                                                 \
      break;                                                       \
    }                                                              \
    case ::tfe::DType::kInt32: {                                   \
      using T = int32_t;                                           \
      __VA_ARGS__;                                                 \
      break;                                                       \
    }                                                              \
    case ::tfe::DType::kInt64: {                                   \
      using T = int64_t;                                           \
      __VA_ARGS__;                                                 \
      break;                                                       \
    }                                                              \
    default:                                                       \
      return ::tfe::InvalidArgument("Unsupported dtype for kernel"); \
  }

#define TFE_SWITCH_FLOAT(DTYPE, T, ...)                            \
  switch (DTYPE) {                                                 \
    case ::tfe::DType::kFloat32: {                                 \
      using T = float;                                             \
      __VA_ARGS__;                                                 \
      break;                                                       \
    }                                                              \
    case ::tfe::DType::kFloat64: {                                 \
      using T = double;                                            \
      __VA_ARGS__;                                                 \
      break;                                                       \
    }                                                              \
    default:                                                       \
      return ::tfe::InvalidArgument(                               \
          "Kernel requires a floating-point dtype");               \
  }

namespace tfe {
namespace kernels {

// Row-major strides of `shape`; broadcast dims (size 1 where the output is
// larger) get stride 0 when `broadcast_to` is provided.
std::vector<int64_t> ComputeStrides(const Shape& shape);

// Strides for reading `input` as if broadcast to `output` (trailing-dim
// alignment). Lengths equal output rank.
std::vector<int64_t> BroadcastStrides(const Shape& input, const Shape& output);

// Attaches `fn` to the registered op `op_name`, CHECK-failing on an
// unknown op or a duplicate (used by the startup registrars).
void RegisterKernel(const char* op_name, KernelFn fn);

// Shards [0, total) into contiguous ranges and runs `fn(begin, end)` on the
// context's intra-op thread pool, with the calling thread taking the first
// shard. Runs serially when the range is below `min_per_shard` (the grain —
// small tensors never pay a pool hop), when `ctx` is null, or when intra-op
// parallelism is disabled on the context. Blocks until every shard finishes.
//
// `fn` must write only to disjoint state per shard and must not call
// ParallelFor itself: shard bodies run as thread-pool leaves, and nesting
// would block a pool thread on the pool.
void ParallelFor(EagerContext* ctx, int64_t total, int64_t min_per_shard,
                 const std::function<void(int64_t, int64_t)>& fn);

// Publishes output `i` as an in-place view over `donor`'s buffer instead of
// allocating fresh storage (buffer donation), and updates the
// allocator.donations metrics. The caller must have proved the donor's
// buffer is exclusively owned and that the kernel's access pattern never
// reads the donor after writing the output (see the fused-run donation
// rules in fused_elementwise.cpp). Returns the published output tensor.
Tensor DonateOutput(KernelContext* ctx, int i, DType dtype, const Shape& shape,
                    const Tensor& donor);

}  // namespace kernels
}  // namespace tfe

#endif  // TFE_KERNELS_KERNEL_UTIL_H_
