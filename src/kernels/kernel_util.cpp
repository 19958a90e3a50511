#include "kernels/kernel_util.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "support/threadpool.h"

namespace tfe {
namespace kernels {

Tensor DonateOutput(KernelContext* ctx, int i, DType dtype, const Shape& shape,
                    const Tensor& donor) {
  Tensor out = Tensor::Concrete(dtype, shape, donor.buffer(), ctx->device());
  ctx->SetOutput(i, out);
  static profiler::Counter* donations =
      profiler::Metrics().GetCounter("allocator.donations");
  static profiler::Counter* donated_bytes =
      profiler::Metrics().GetCounter("allocator.donated_bytes");
  const int64_t bytes =
      shape.num_elements() * static_cast<int64_t>(DTypeSize(dtype));
  donations->Increment();
  donated_bytes->Increment(static_cast<uint64_t>(bytes));
  if (profiler::enabled()) {
    static const uint32_t donation_name = profiler::Intern("buffer_donation");
    profiler::RecordInstant(profiler::EventKind::kAllocator, donation_name,
                            bytes);
  }
  return out;
}

void ParallelFor(EagerContext* ctx, int64_t total, int64_t min_per_shard,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (total <= 0) return;
  min_per_shard = std::max<int64_t>(min_per_shard, 1);
  ThreadPool* pool = ctx != nullptr && ctx->intra_op_parallelism()
                         ? &ctx->intraop_pool()
                         : nullptr;
  const int64_t max_shards = pool != nullptr ? pool->num_threads() : 1;
  const int64_t shards =
      std::min<int64_t>(max_shards, total / min_per_shard);
  if (shards <= 1) {
    fn(0, total);
    return;
  }

  const int64_t block = (total + shards - 1) / shards;
  std::mutex mu;
  std::condition_variable done_cv;
  int64_t remaining = shards - 1;
  for (int64_t s = 1; s < shards; ++s) {
    const int64_t begin = s * block;
    const int64_t end = std::min(total, begin + block);
    pool->Schedule([&, begin, end] {
      if (begin < end) fn(begin, end);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  // The caller owns the first shard; sharing the work keeps the pool sized
  // for (threads - 1) helpers and guarantees progress even on a full pool.
  fn(0, std::min(total, block));
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace kernels
}  // namespace tfe
