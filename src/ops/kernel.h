// Kernel plumbing: the context a kernel runs in, the result of an op's
// prepare hook, and the profiling wrapper every registered kernel gets.
// Kernels themselves live in each op's registry entry (ops/op_def.h).
#ifndef TFE_OPS_KERNEL_H_
#define TFE_OPS_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "device/device.h"
#include "ops/attr_value.h"
#include "ops/op_def.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

class EagerContext;

// Attr `name` of `attrs` as a T, or InvalidArgument when it is missing or
// holds another type.
template <typename T>
StatusOr<T> GetAttr(const AttrMap& attrs, const std::string& name) {
  auto it = attrs.find(name);
  if (it == attrs.end()) {
    return InvalidArgument("Missing attr '" + name + "'");
  }
  if (!it->second.Is<T>()) {
    return InvalidArgument("Attr '" + name + "' has unexpected type");
  }
  return it->second.Get<T>();
}

// What an op's prepare hook derives from a node's attrs (see
// OpRegistry::RegisterKernel). Kernels downcast to their own subclass.
class PreparedKernel {
 public:
  virtual ~PreparedKernel() = default;
};

class KernelContext {
 public:
  KernelContext(EagerContext* eager_context, Device* device,
                std::vector<Tensor> inputs, const AttrMap* attrs,
                const PreparedKernel* prepared = nullptr)
      : eager_context_(eager_context),
        device_(device),
        inputs_(std::move(inputs)),
        attrs_(attrs),
        prepared_(prepared) {}

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  const Tensor& input(int i) const { return inputs_.at(i); }
  const std::vector<Tensor>& inputs() const { return inputs_; }

  Device* device() const { return device_; }

  // The owning runtime; used by the call kernel (to run a graph function)
  // and the host_func kernel (to execute an imperative callback).
  EagerContext* eager_context() const { return eager_context_; }

  template <typename T>
  StatusOr<T> GetAttr(const std::string& name) const {
    return ::tfe::GetAttr<T>(*attrs_, name);
  }

  template <typename T>
  T GetAttrOr(const std::string& name, T fallback) const {
    auto it = attrs_->find(name);
    if (it == attrs_->end() || !it->second.Is<T>()) return fallback;
    return it->second.Get<T>();
  }

  const AttrMap& attrs() const { return *attrs_; }

  // The op's prepare-hook output for these attrs; null when the op has no
  // prepare hook.
  const PreparedKernel* prepared() const { return prepared_; }

  // Allocates output `i` (zero-initialized) on this context's device.
  // Returns the handle by value — handles share state, and a reference into
  // outputs_ would be invalidated by the next allocation.
  Tensor AllocateOutput(int i, DType dtype, const Shape& shape);
  // Publishes an existing tensor (e.g. a buffer-sharing view) as output `i`.
  void SetOutput(int i, Tensor tensor);

  int num_outputs() const { return static_cast<int>(outputs_.size()); }
  const std::vector<Tensor>& outputs() const { return outputs_; }
  std::vector<Tensor> ConsumeOutputs() { return std::move(outputs_); }

  // --- virtual-time plumbing for composite kernels (Call) -------------------
  // Virtual time at which this kernel's inputs are ready.
  uint64_t start_ns() const { return start_ns_; }
  void set_start_ns(uint64_t ns) { start_ns_ = ns; }
  // A composite kernel that schedules its own device time (the Call kernel
  // drives the executor) reports its completion here; 0 means "not set" and
  // the caller schedules `device_ns` itself.
  uint64_t completion_ns() const { return completion_ns_; }
  void set_completion_ns(uint64_t ns) { completion_ns_ = ns; }
  // Whether this kernel runs inside a whole-function compilation unit.
  bool compiled() const { return compiled_; }
  void set_compiled(bool compiled) { compiled_ = compiled; }

  // Deterministic Philox stream for seed-0 random ops, assigned at dispatch
  // (program order) or per graph node — never at execution time, so thread
  // interleaving cannot change which stream an op draws from. 0 means
  // unassigned (e.g. constant folding); kernels then fall back to the
  // context's shared stateful stream.
  uint64_t rng_stream() const { return rng_stream_; }
  void set_rng_stream(uint64_t stream) { rng_stream_ = stream; }

 private:
  EagerContext* eager_context_;
  Device* device_;
  std::vector<Tensor> inputs_;
  const AttrMap* attrs_;
  const PreparedKernel* prepared_;
  std::vector<Tensor> outputs_;
  uint64_t start_ns_ = 0;
  uint64_t completion_ns_ = 0;
  bool compiled_ = false;
  uint64_t rng_stream_ = 0;
};

// An op's prepare-hook result for one graph node's attrs, derived once by an
// execution plan (EagerContext::Prepare) for a node that runs many times.
struct PreparedCall {
  Status status;  // surfaces when the kernel would run
  std::shared_ptr<const PreparedKernel> kernel;  // null without a hook
};

// `fn` wrapped with the kernel observability hook (see
// OpRegistry::RegisterKernel). The op name is interned here so the hot path
// never hashes it.
KernelFn WithKernelProfiling(const std::string& op_name, KernelFn fn);

}  // namespace tfe

#endif  // TFE_OPS_KERNEL_H_
