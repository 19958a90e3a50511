// The Call kernel: graph functions are executed *by an operation* (paper
// §4.1), which is what makes staged functions compose, run on devices, and
// appear on gradient tapes like any primitive.
#include "executor/executor.h"
#include "graph/passes.h"
#include "kernels/kernel_util.h"
#include "runtime/eager_context.h"

namespace tfe {
namespace kernels {
namespace {

// Recursive graph functions (self/mutual recursion via Call) need a depth
// cap: an unbounded recursion would otherwise exhaust the host stack, since
// nested calls execute inline on the calling thread. Overflow surfaces as a
// FailedPrecondition that poisons the call's outputs like any deferred
// kernel error.
constexpr int64_t kMaxCallDepth = 64;

thread_local int64_t t_call_depth = 0;

Status CallKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto function_name,
                       ctx->GetAttr<std::string>("function"));
  EagerContext* ectx = ctx->eager_context();
  TFE_ASSIGN_OR_RETURN(auto function, ectx->functions().Find(function_name));
  ectx->stats().function_calls.fetch_add(1, std::memory_order_relaxed);

  // Depth accounting is per-thread, which matches execution: a top-level
  // call's nested Call kernels all run inline on one executor thread.
  if (t_call_depth >= kMaxCallDepth) {
    return FailedPrecondition("Call recursion depth exceeded kMaxCallDepth (" +
                              std::to_string(kMaxCallDepth) +
                              ") in function " + function_name);
  }
  struct DepthGuard {
    DepthGuard() { ++t_call_depth; }
    ~DepthGuard() { --t_call_depth; }
  } depth_guard;

  Device* device = ctx->device();
  uint64_t start_ns = ctx->start_ns();
  // Simulated-TPU path: placing a staged computation on a TPU compiles the
  // whole function once (paper §4.4); the compile cost is paid on first
  // call and amortized thereafter, and execution gets the fusion discount.
  const bool compiled = device->kind() == DeviceKind::kTpu;
  if (compiled) {
    start_ns += device->CompileCostNs("function:" + function_name);
    // Fixed per-invocation accelerator launch + infeed/outfeed cost.
    start_ns += device->cost_params().compiled_call_overhead_ns;
  }

  // On real compute devices, run the lazily-built execution variant with
  // elementwise runs fused (the helper also pre-builds variants for any
  // Cond/While subfunctions this graph references). The original function is
  // what autodiff and serialization see; simulated accelerators keep the
  // unfused graph so their per-node cost model is undisturbed.
  std::shared_ptr<GraphFunction> to_run =
      passes::FusedExecutionVariant(ectx, device, function);

  Executor executor(ectx);
  // Nested calls (this kernel running on an executor thread) execute inline
  // so pool threads never block waiting on the pool.
  const bool parallel = !Executor::InExecutor();
  TFE_ASSIGN_OR_RETURN(
      Executor::Result result,
      executor.Run(*to_run, ctx->inputs(), device, start_ns, compiled,
                   parallel, ctx->rng_stream()));
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    ctx->SetOutput(static_cast<int>(i), result.outputs[i]);
  }
  ctx->set_completion_ns(result.finish_ns);
  return Status::OK();
}

}  // namespace

void RegisterCallKernels() { RegisterKernel("Call", CallKernel); }

}  // namespace kernels
}  // namespace tfe
