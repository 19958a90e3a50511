#include "ops/kernel.h"

#include "profiler/profiler.h"

namespace tfe {

namespace {

// A tensor whose buffer is directly readable without blocking: concrete,
// value-bearing, and not backed by an async handle (a handle-backed input
// of a shape-only kernel may still be pending; touching its buffer would
// turn an accounting probe into a sync point).
bool PlainConcrete(const Tensor& t) {
  return t.defined() && !t.is_resource() && !t.is_symbolic() &&
         !t.is_opaque() && !t.has_handle();
}

int64_t PayloadBytes(const Tensor& t) {
  return t.num_elements() * static_cast<int64_t>(DTypeSize(t.dtype()));
}

// Payload bytes a kernel actually moved: every concrete input, plus every
// concrete output that did not reuse an input's buffer. A donated in-place
// output (and any other buffer-sharing view) writes bytes already counted
// on the input side — counting it again would report traffic the memory
// system never saw. Elided fused-run temporaries are opaque and never
// counted on either side.
int64_t MovedBytes(const std::vector<Tensor>& inputs,
                   const std::vector<Tensor>& outputs) {
  int64_t bytes = 0;
  for (const Tensor& t : inputs) {
    if (t.defined() && !t.is_resource() && !t.is_symbolic() && !t.is_opaque()) {
      bytes += PayloadBytes(t);
    }
  }
  for (const Tensor& t : outputs) {
    if (!t.defined() || t.is_resource() || t.is_symbolic() || t.is_opaque()) {
      continue;
    }
    bool aliases_input = false;
    if (PlainConcrete(t)) {
      for (const Tensor& in : inputs) {
        if (PlainConcrete(in) && in.buffer().get() == t.buffer().get()) {
          aliases_input = true;
          break;
        }
      }
    }
    if (!aliases_input) bytes += PayloadBytes(t);
  }
  return bytes;
}

// The kernel observability hook (see Register). The op name is interned at
// registration so the hot path never hashes it.
KernelFn WrapKernelForProfiling(const std::string& op_name, KernelFn fn) {
  const uint32_t name_id = profiler::Intern(op_name);
  return [op_name, name_id, fn = std::move(fn)](KernelContext* ctx) -> Status {
    if (!profiler::enabled()) return fn(ctx);
    profiler::Scope span(profiler::EventKind::kKernel, name_id);
    Status status = fn(ctx);
    const int64_t bytes = MovedBytes(ctx->inputs(), ctx->outputs());
    std::string detail = ctx->device()->name();
    if (ctx->num_outputs() > 0 && ctx->outputs()[0].defined() &&
        !ctx->outputs()[0].is_resource()) {
      detail += " " + ctx->outputs()[0].shape().ToString();
    }
    span.set_arg(bytes);
    span.set_detail(profiler::Intern(detail));
    auto& metrics = profiler::Metrics();
    metrics.GetCounter("kernel." + op_name)->Increment();
    // Statics in this lambda are shared across every wrapped kernel — these
    // two metrics are process-wide aggregates, so that is exactly right.
    static profiler::Counter* invocations =
        metrics.GetCounter("kernel.invocations");
    invocations->Increment();
    static profiler::Histogram* duration =
        metrics.GetHistogram("kernel.duration_ns");
    duration->Record(profiler::NowNs() - span.start_ns());
    metrics.GetCounter("device." + ctx->device()->name() + ".bytes_moved")
        ->Increment(static_cast<uint64_t>(bytes));
    return status;
  };
}

}  // namespace

Tensor KernelContext::AllocateOutput(int i, DType dtype, const Shape& shape) {
  if (static_cast<int>(outputs_.size()) <= i) outputs_.resize(i + 1);
  outputs_[i] = Tensor::Empty(dtype, shape, device_);
  return outputs_[i];
}

void KernelContext::SetOutput(int i, Tensor tensor) {
  if (static_cast<int>(outputs_.size()) <= i) outputs_.resize(i + 1);
  outputs_[i] = std::move(tensor);
}

KernelRegistry* KernelRegistry::Global() {
  static KernelRegistry* registry = new KernelRegistry();
  return registry;
}

Status KernelRegistry::Register(const std::string& op_name, KernelFn fn,
                                std::vector<DeviceKind> kinds) {
  fn = WrapKernelForProfiling(op_name, std::move(fn));
  if (kinds.empty()) {
    kinds = {DeviceKind::kCpu, DeviceKind::kGpu, DeviceKind::kTpu};
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto& per_kind = kernels_[op_name];
  for (DeviceKind kind : kinds) {
    if (!per_kind.emplace(kind, fn).second) {
      return AlreadyExists("Kernel already registered: " + op_name + " on " +
                           DeviceKindName(kind));
    }
  }
  return Status::OK();
}

StatusOr<const KernelFn*> KernelRegistry::LookUp(const std::string& op_name,
                                                 DeviceKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = kernels_.find(op_name);
  if (it == kernels_.end()) {
    return NotFound("No kernel registered for op " + op_name);
  }
  auto kernel_it = it->second.find(kind);
  if (kernel_it == it->second.end()) {
    return NotFound("No " + std::string(DeviceKindName(kind)) +
                    " kernel for op " + op_name);
  }
  return &kernel_it->second;
}

bool KernelRegistry::HasKernel(const std::string& op_name,
                               DeviceKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = kernels_.find(op_name);
  return it != kernels_.end() && it->second.count(kind) > 0;
}

}  // namespace tfe
