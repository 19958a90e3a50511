// Kernel plumbing: the context a kernel runs in and the profiling wrapper
// every registered kernel gets. Kernels themselves live in each op's
// registry entry (ops/op_def.h).
//
// A kernel reads what the caller asked for from its attrs, and what the
// runtime proved from the context fields only ExecuteKernel's caller sets:
// the compiled program of a fused run (prepared()) and the input an
// op-at-a-time kernel may overwrite (donor()). No attr can forge either.
#ifndef TFE_OPS_KERNEL_H_
#define TFE_OPS_KERNEL_H_

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

class KernelContext {
 public:
  KernelContext(EagerContext* eager_context, Device* device,
                std::vector<Tensor> inputs, const AttrMap* attrs,
                const kernels::CompiledRun* prepared = nullptr)
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

  // The program a FusedElementwise kernel runs, held by the run's
  // program-cache entry; null for every other kernel.
  const kernels::CompiledRun* prepared() const { return prepared_; }

  // The input an elementwise kernel may write its output over, or -1. Set
  // only where the async drain proved the input's buffer exclusively owned
  // (op-at-a-time donation); the kernel still checks dtype and shape.
  int donor() const { return donor_; }
  void set_donor(int input) { donor_ = input; }

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
  const kernels::CompiledRun* prepared_;
  int donor_ = -1;
  std::vector<Tensor> outputs_;
  uint64_t start_ns_ = 0;
  uint64_t completion_ns_ = 0;
  bool compiled_ = false;
  uint64_t rng_stream_ = 0;
};

// `fn` wrapped with the kernel observability hook (see
// OpRegistry::RegisterKernel). The op name is interned here so the hot path
// never hashes it.
KernelFn WithKernelProfiling(const std::string& op_name, KernelFn fn);

}  // namespace tfe

#endif  // TFE_OPS_KERNEL_H_
