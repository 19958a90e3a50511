#include "runtime/eager_context.h"

#include <chrono>
#include <thread>

#include "device/remote_device.h"
#include "executor/executor.h"
#include "graph/serialization.h"
#include "ops/op_registry.h"
#include "profiler/profiler.h"
#include "runtime/op_queue.h"
#include "support/strings.h"
#include "tensor/tensor_handle.h"

namespace tfe {

namespace {

// Ops that must really execute even on timing-only simulated devices:
// function calls drive the executor, host funcs run imperative callbacks,
// and state ops maintain variable/checkpoint contents.
bool AlwaysExecutes(const std::string& op_name) {
  return op_name == "Call" || op_name == "HostFunc" ||
         op_name == "ReadVariableOp" || op_name == "AssignVariableOp" ||
         op_name == "AssignAddVariableOp" || op_name == "AssignSubVariableOp" ||
         op_name == "SaveTensor" || op_name == "RestoreTensor" ||
         op_name == "IteratorNext" || op_name == "HashTableInsert" ||
         op_name == "HashTableLookup" || op_name == "HashTableSize" ||
         op_name == "Cond" || op_name == "While" || op_name == "NoOp";
}

bool IsVariableOp(const std::string& op_name) {
  return op_name == "ReadVariableOp" || op_name == "AssignVariableOp" ||
         op_name == "AssignAddVariableOp" || op_name == "AssignSubVariableOp";
}

// Host<->accelerator interconnect bandwidth (PCIe-3 x16 class).
constexpr double kTransferBytesPerSecond = 12e9;

uint64_t NowWallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::unique_ptr<EagerContext>& GlobalSlot() {
  static std::unique_ptr<EagerContext> context;
  return context;
}

std::mutex& GlobalMu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

EagerContext::EagerContext() : EagerContext(Options()) {}

EagerContext::EagerContext(const Options& options)
    : host_profile_(options.host_profile),
      rng_(options.random_seed, /*stream=*/0x7465666f),
      random_seed_(options.random_seed),
      async_(options.async) {
  // TFE_PROFILE=<path> turns collection on for the process and registers the
  // at-exit Chrome-trace export.
  profiler::InitFromEnv();
  EnsureOpsRegistered();
  // Paper §4.4: "During program startup, the runtime detects the devices
  // that are available to the machine."
  host_cpu_ =
      devices_.AddDevice(MakeCpuDevice({}, options.allocator)).value();
  if (options.register_sim_gpu) {
    devices_
        .AddDevice(MakeSimGpuDevice(0, options.accelerators_execute_kernels,
                                    "localhost", 0, options.allocator))
        .value();
  }
  if (options.register_sim_tpu) {
    devices_
        .AddDevice(MakeSimTpuDevice(0, options.accelerators_execute_kernels,
                                    "localhost", 0, options.allocator))
        .value();
  }
  int threads = options.executor_threads;
  if (threads <= 0) {
    threads = std::max(2u, std::thread::hardware_concurrency());
  }
  executor_pool_ = std::make_unique<ThreadPool>("tfe_executor", threads);
  intraop_pool_ = std::make_unique<ThreadPool>("tfe_intraop", threads);
}

EagerContext::~EagerContext() {
  // In-flight async ops reference devices and the pool; retire them before
  // members start tearing down.
  WaitQueuesDrained();
}

EagerContext* EagerContext::Global() {
  std::lock_guard<std::mutex> lock(GlobalMu());
  if (GlobalSlot() == nullptr) {
    GlobalSlot() = std::make_unique<EagerContext>(Options());
  }
  return GlobalSlot().get();
}

void EagerContext::ResetGlobal(const Options& options) {
  std::lock_guard<std::mutex> lock(GlobalMu());
  // Tensors created under the previous context hold device tags owned by it;
  // callers must not keep tensors across a reset.
  GlobalSlot() = std::make_unique<EagerContext>(options);
}

StatusOr<Device*> EagerContext::ResolveDevice(
    const std::string& op_name, const std::vector<Tensor>& inputs,
    const std::string& requested_device) {
  // Variable ops execute where the variable's storage lives (paper §4.4).
  if (IsVariableOp(op_name) && !inputs.empty() && inputs[0].defined() &&
      inputs[0].is_resource() && inputs[0].device() != nullptr) {
    return inputs[0].device();
  }
  std::string request = requested_device;
  if (request.empty()) request = DeviceScope::Current();
  if (!request.empty()) {
    TFE_ASSIGN_OR_RETURN(Device * device, devices_.FindDevice(request));
    if (!AlwaysExecutes(op_name) && op_name != "Const" &&
        !KernelRegistry::Global()->HasKernel(op_name, device->kind())) {
      return InvalidArgument(strings::StrCat(
          "Op ", op_name, " was explicitly placed on ", device->name(),
          " but has no kernel for that device"));
    }
    return device;
  }
  // Results of remote ops stay remote (paper §4.5): an unscoped op follows
  // its first remote input to that worker instead of fetching the value —
  // the same data-attraction rule as accelerators below, minus the kernel
  // check (the worker resolves kernels on its side).
  for (const Tensor& input : inputs) {
    if (!input.defined() || input.is_symbolic()) continue;
    Device* device = input.device();
    if (device != nullptr && device->IsRemote()) return device;
  }
  // Unspecified: prefer the device of the first accelerator-resident input
  // if a kernel is available there — "the runtime is able to select a device
  // based on the availability of kernels" (paper §4.4).
  for (const Tensor& input : inputs) {
    if (!input.defined() || input.is_symbolic()) continue;
    Device* device = input.device();
    if (device != nullptr && device->is_accelerator() &&
        KernelRegistry::Global()->HasKernel(op_name, device->kind())) {
      return device;
    }
  }
  return host_cpu_;
}

StatusOr<Tensor> EagerContext::CopyToDevice(const Tensor& tensor,
                                            Device* device) {
  TFE_CHECK(device != nullptr);
  if (!tensor.defined() || tensor.is_symbolic()) {
    return Internal("CopyToDevice on non-concrete tensor");
  }
  if (tensor.is_resource()) return tensor;  // resources never move
  Device* src = tensor.device() != nullptr ? tensor.device() : host_cpu_;
  if (src == device) return tensor;

  stats_.device_copies.fetch_add(1, std::memory_order_relaxed);
  // Copying out of an asynchronous device requires it to drain first — this
  // is the implicit synchronization a `.numpy()` / `.cpu()` call performs.
  if (!src->synchronous()) RaiseHostNs(src->timeline().free_at_ns());
  if (src->is_accelerator() || device->is_accelerator()) {
    AdvanceHostNs(TransferTimeNs(tensor.num_elements() *
                                 static_cast<int64_t>(DTypeSize(tensor.dtype()))));
  }
  if (tensor.is_opaque()) {
    return Tensor::Opaque(tensor.dtype(), tensor.shape(), device);
  }
  // All storage is host memory; a cross-device copy re-tags the (immutable)
  // buffer under a fresh tensor identity.
  return Tensor::Concrete(tensor.dtype(), tensor.shape(), tensor.buffer(),
                          device);
}

StatusOr<Tensor> EagerContext::CopyTo(const Tensor& tensor, Device* device) {
  TFE_CHECK(device != nullptr);
  if (!tensor.defined() || tensor.is_symbolic()) {
    return InvalidArgument("copy_to requires a concrete tensor");
  }
  if (tensor.is_resource()) {
    return InvalidArgument(
        "copy_to cannot move a resource handle; variables are pinned to "
        "their device");
  }
  const auto& handle = tensor.pending_handle();
  const TensorHandle::RemoteInfo* rinfo =
      handle != nullptr ? handle->remote_info() : nullptr;
  if (rinfo != nullptr && rinfo->device == device) return tensor;  // no-op

  // Reading the value is the first half of any move: it waits out async
  // producers, surfaces a poisoned source's original status, and fetches a
  // remote source from its worker store (copy-on-read).
  TFE_RETURN_IF_ERROR(tensor.Materialize());
  const Tensor& value = handle != nullptr ? handle->tensor() : tensor;

  if (!device->IsRemote()) {
    return CopyToDevice(value, device);
  }
  if (value.is_opaque()) {
    return InvalidArgument(strings::StrCat(
        "copy_to(", device->name(),
        "): source is an opaque placeholder with no host bytes to ship"));
  }
  // Remote target: ship the value into the target worker's store and hand
  // back a handle referencing it there, exactly as if an op on that worker
  // had produced it.
  auto* remote = static_cast<RemoteDevice*>(device);
  const std::shared_ptr<RemoteBackend>& backend = remote->shared_backend();
  const int64_t id = backend->AllocateHandleId();
  TFE_RETURN_IF_ERROR(backend->Put(value, id));
  stats_.device_copies.fetch_add(1, std::memory_order_relaxed);
  TensorHandle::RemoteInfo info;
  info.device = device;
  info.handle_id = id;
  info.fetch = [backend, id] { return backend->Fetch(id); };
  info.release = [backend, id] { backend->DeleteAsync(id); };
  auto out = TensorHandle::PendingRemote(value.dtype(), value.shape(),
                                         std::move(info), &host_now_ns_);
  out->SetTensor(Tensor::Opaque(value.dtype(), value.shape(), device),
                 /*ready_ns=*/0);
  return Tensor::FromHandle(std::move(out));
}

StatusOr<EagerContext::KernelRun> EagerContext::ExecuteKernel(
    const std::string& op_name, const std::vector<Tensor>& inputs,
    const AttrMap& attrs, Device* device, bool compiled, uint64_t start_ns,
    uint64_t rng_stream) {
  KernelRun run;
  if (device->IsRemote()) {
    return Internal(strings::StrCat(
        "ExecuteKernel invoked for remote device ", device->name(),
        "; remote ops must flow through the dispatch path"));
  }
  const bool execute = device->executes_kernels() || AlwaysExecutes(op_name);
  // An opaque input forces simulation regardless: there are no values to
  // compute with (state ops handle opacity themselves).
  bool opaque_inputs = false;
  for (const Tensor& input : inputs) {
    if (input.defined() && input.is_opaque()) opaque_inputs = true;
  }

  std::vector<Shape> input_shapes;
  input_shapes.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    if (input.defined() && !input.is_resource()) {
      input_shapes.push_back(input.shape());
    }
  }

  if (execute && (!opaque_inputs || AlwaysExecutes(op_name))) {
    TFE_ASSIGN_OR_RETURN(
        const KernelFn* kernel,
        KernelRegistry::Global()->LookUp(op_name, device->kind()));
    KernelContext ctx(this, device, inputs, &attrs);
    ctx.set_start_ns(start_ns);
    ctx.set_compiled(compiled);
    ctx.set_rng_stream(rng_stream);
    uint64_t wall_begin = NowWallNs();
    TFE_RETURN_IF_ERROR((*kernel)(&ctx));
    uint64_t wall_ns = NowWallNs() - wall_begin;
    run.outputs = ctx.ConsumeOutputs();
    if (ctx.completion_ns() != 0) {
      // Composite kernel accounted its own device time.
      run.completion_ns = ctx.completion_ns();
      run.device_ns = 0;
      return run;
    }
    if (device->is_accelerator()) {
      std::vector<Shape> output_shapes;
      for (const Tensor& output : run.outputs) {
        if (output.defined() && !output.is_resource()) {
          output_shapes.push_back(output.shape());
        }
      }
      OpCost cost = EstimateOpCost(op_name, input_shapes, output_shapes,
                                   DTypeSize(inputs.empty()
                                                 ? DType::kFloat32
                                                 : inputs[0].dtype()));
      run.device_ns = KernelTimeNs(cost, device->cost_params(), compiled);
    } else {
      run.device_ns = wall_ns;  // CPU: measured, not modelled
    }
    return run;
  }

  // Simulation-only path: infer output shapes, produce opaque tensors,
  // charge modelled time.
  TFE_ASSIGN_OR_RETURN(const OpDef* def, OpRegistry::Global()->LookUp(op_name));
  std::vector<TypeAndShape> input_types;
  input_types.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    input_types.push_back({input.dtype(), input.shape()});
  }
  InferenceContext infer(std::move(input_types), &attrs);
  TFE_RETURN_IF_ERROR(def->shape_fn(&infer));
  std::vector<Shape> output_shapes;
  for (const TypeAndShape& out : infer.outputs()) {
    if (!out.shape.IsFullyDefined()) {
      return Internal(strings::StrCat(
          "Simulated execution of ", op_name,
          " produced a partial output shape: ", out.shape.ToString()));
    }
    run.outputs.push_back(Tensor::Opaque(out.dtype, out.shape, device));
    output_shapes.push_back(out.shape);
  }
  OpCost cost =
      EstimateOpCost(op_name, input_shapes, output_shapes,
                     DTypeSize(inputs.empty() || inputs[0].is_resource()
                                   ? DType::kFloat32
                                   : inputs[0].dtype()));
  run.device_ns = KernelTimeNs(cost, device->cost_params(), compiled);
  return run;
}

StatusOr<std::vector<Tensor>> EagerContext::RunPrimitive(
    const std::string& op_name, std::vector<Tensor> inputs,
    const AttrMap& attrs, const std::string& requested_device) {
  stats_.eager_ops.fetch_add(1, std::memory_order_relaxed);
  if (IsVariableOp(op_name)) {
    static profiler::Counter* variable_ops =
        profiler::Metrics().GetCounter("dispatch.variable_ops");
    variable_ops->Increment();
    if (profiler::enabled()) {
      profiler::RecordInstant(profiler::EventKind::kVariableOp,
                              profiler::Intern(op_name));
    }
  }
  // Host-language dispatch cost (DESIGN.md §2: calibrated interpreter
  // model; zero under HostProfile::Native).
  AdvanceHostNs(op_name == "Call" ? host_profile_.function_call_ns
                                  : host_profile_.per_op_dispatch_ns);

  for (const Tensor& input : inputs) {
    if (input.defined() && input.is_symbolic()) {
      return InvalidArgument(strings::StrCat(
          "Symbolic tensor passed to eager execution of ", op_name,
          "; symbolic tensors are only usable inside their trace"));
    }
  }

  StatusOr<Device*> device_or = ResolveDevice(op_name, inputs, requested_device);
  if (!device_or.ok()) {
    // An unknown *remote* device name is a deferred failure, not an eager
    // throw: outputs come back poisoned and the error surfaces at the next
    // sync point — the same protocol as a worker dying mid-op (paper §4.5
    // unified with the async error model).
    const std::string& request =
        requested_device.empty() ? DeviceScope::Current() : requested_device;
    StatusOr<DeviceNameParts> parts = ParseDeviceName(request);
    if (parts.ok() && parts->job != "localhost") {
      std::vector<Tensor> poisoned;
      if (DeferRemoteError(op_name, inputs, attrs, device_or.status(),
                           &poisoned)) {
        return poisoned;
      }
    }
    return device_or.status();
  }
  Device* device = *device_or;

  // Remote devices take the pending-handle dispatch path unconditionally —
  // returning immediately is the whole point of forwarding ops instead of
  // round-tripping per call.
  if (device->IsRemote()) {
    return RunRemote(op_name, std::move(inputs), attrs, device);
  }

  // Async fast path (paper §5): enqueue and return pending handles. Variable
  // ops are sequenced through the owning variable's device queue too, so
  // optimizer updates overlap the next step's dispatch instead of acting as
  // sync points; in-order draining keeps assign/read ordering intact. Other
  // composite and stateful ops (AlwaysExecutes) re-enter the runtime or
  // touch shared state, so they stay on the synchronous path.
  if (async()) {
    if (!AlwaysExecutes(op_name) || IsVariableOp(op_name)) {
      std::vector<Tensor> pending;
      if (EnqueueAsync(op_name, inputs, attrs, device, &pending)) {
        return pending;
      }
    }
    // Synchronous stateful ops (Call, SaveTensor, iterator/hash-table ops,
    // or a variable op falling back from EnqueueAsync) may read state the
    // queues are still updating: order them behind every queued op. Executor
    // threads skip the wait — their enclosing Call already drained, and
    // blocking a pool thread here could starve the drains it waits on.
    if (AlwaysExecutes(op_name) && !Executor::InExecutor()) {
      WaitQueuesDrained();
    }
  }

  // Synchronous path. Entering it is a sync point for this op's inputs: wait
  // for pending producers (raising the virtual host clock to their retire
  // time) and surface a poisoned input's original Status here.
  for (Tensor& input : inputs) {
    const auto& handle = input.pending_handle();
    if (handle == nullptr) continue;
    TFE_RETURN_IF_ERROR(handle->WaitReady());
    input = handle->tensor();
  }

  // Transparent input copies (paper §4.4, Listing 5). Tensors with no
  // device tag are host (CPU) memory.
  for (Tensor& input : inputs) {
    if (!input.defined() || input.is_resource() || input.is_symbolic()) {
      continue;
    }
    Device* source = input.device() != nullptr ? input.device() : host_cpu_;
    if (source != device) {
      TFE_ASSIGN_OR_RETURN(input, CopyToDevice(input, device));
    }
  }

  // Simulated-TPU eager mode: each new op signature pays a compile cost
  // before it can run (paper §4.4); the per-device cache makes it one-time.
  if (device->cost_params().per_op_compile_ns > 0 && op_name != "Call") {
    std::string signature = op_name;
    for (const Tensor& input : inputs) {
      if (input.defined() && !input.is_resource()) {
        signature += ";" + input.shape().ToString();
      }
    }
    AdvanceHostNs(device->CompileCostNs(signature));
  }

  TFE_ASSIGN_OR_RETURN(KernelRun run,
                       ExecuteKernel(op_name, inputs, attrs, device,
                                     /*compiled=*/false, host_now_ns(),
                                     NextRngStream()));

  if (run.completion_ns != 0) {
    if (device->synchronous()) RaiseHostNs(run.completion_ns);
  } else if (run.device_ns > 0) {
    uint64_t done = device->timeline().Schedule(host_now_ns(), run.device_ns);
    // Synchronous devices block the host until the kernel retires; the
    // asynchronous GPU stream lets the host race ahead (this overlap is
    // Figure 3's mechanism) — minus a sync fraction modelling the
    // interpreter's imperfect pipelining.
    if (device->synchronous()) {
      RaiseHostNs(done);
    } else if (device->cost_params().eager_host_sync_fraction > 0) {
      AdvanceHostNs(static_cast<uint64_t>(
          device->cost_params().eager_host_sync_fraction *
          static_cast<double>(run.device_ns)));
    }
  }
  return std::move(run.outputs);
}

uint64_t EagerContext::TransferTimeNs(int64_t bytes) {
  return static_cast<uint64_t>(static_cast<double>(bytes) /
                               kTransferBytesPerSecond * 1e9);
}

bool EagerContext::EnqueueAsync(const std::string& op_name,
                                const std::vector<Tensor>& inputs,
                                const AttrMap& attrs, Device* device,
                                std::vector<Tensor>* outputs) {
  // Output metadata must be known at dispatch time; anything shape inference
  // cannot pin down without values falls back to synchronous execution
  // (which also produces the familiar error messages for invalid calls).
  auto def_or = OpRegistry::Global()->LookUp(op_name);
  if (!def_or.ok()) return false;
  std::vector<TypeAndShape> input_types;
  input_types.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    if (!input.defined()) return false;
    input_types.push_back({input.dtype(), input.shape()});
  }
  InferenceContext infer(std::move(input_types), &attrs);
  if (!(*def_or)->shape_fn(&infer).ok()) return false;
  for (const TypeAndShape& out : infer.outputs()) {
    if (!out.shape.IsFullyDefined()) return false;
  }

  OpQueue::Node node;
  node.op_name = op_name;
  node.inputs = inputs;
  node.attrs = attrs;
  node.enqueue_host_ns = host_now_ns();
  // Reserved at enqueue (host program order), not at drain time, so queue
  // interleaving across devices cannot change a random op's stream.
  node.rng_stream = NextRngStream();
  std::vector<Tensor> result;
  result.reserve(infer.outputs().size());
  for (const TypeAndShape& out : infer.outputs()) {
    auto handle =
        TensorHandle::Pending(out.dtype, out.shape, device, &host_now_ns_);
    node.outputs.push_back(handle);
    result.push_back(Tensor::FromHandle(std::move(handle)));
  }
  queue_for(device)->Enqueue(std::move(node));
  *outputs = std::move(result);
  return true;
}

StatusOr<std::vector<Tensor>> EagerContext::RunRemote(
    const std::string& op_name, std::vector<Tensor> inputs,
    const AttrMap& attrs, Device* device) {
  static profiler::Counter* remote_ops =
      profiler::Metrics().GetCounter("dispatch.remote_ops");
  remote_ops->Increment();
  if (op_name == "Call") {
    return RunRemoteCall(std::move(inputs), attrs, device);
  }
  if (AlwaysExecutes(op_name)) {
    return InvalidArgument(strings::StrCat(
        "Op ", op_name, " cannot be dispatched to remote device ",
        device->name(),
        "; only primitive ops and staged function calls execute remotely"));
  }
  for (const Tensor& input : inputs) {
    if (!input.defined()) {
      return InvalidArgument(
          strings::StrCat("Undefined input to remote op ", op_name));
    }
  }
  // Output metadata at dispatch time, mirroring EnqueueAsync; shapes that
  // inference cannot pin down without values fall back to the blocking
  // protocol (correct, just synchronous).
  auto def_or = OpRegistry::Global()->LookUp(op_name);
  if (!def_or.ok()) return def_or.status();
  std::vector<TypeAndShape> input_types;
  input_types.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    input_types.push_back({input.dtype(), input.shape()});
  }
  InferenceContext infer(std::move(input_types), &attrs);
  bool inferable = (*def_or)->shape_fn(&infer).ok();
  if (inferable) {
    for (const TypeAndShape& out : infer.outputs()) {
      if (!out.shape.IsFullyDefined()) inferable = false;
    }
  }
  if (!inferable) {
    return RunRemoteBlocking(op_name, std::move(inputs), attrs, device);
  }
  return EnqueueRemote(op_name, std::move(inputs), attrs, device,
                       infer.outputs());
}

StatusOr<std::vector<Tensor>> EagerContext::RunRemoteCall(
    std::vector<Tensor> inputs, const AttrMap& attrs, Device* device) {
  auto* remote = static_cast<RemoteDevice*>(device);
  auto fn_attr = attrs.find("function");
  if (fn_attr == attrs.end() || !fn_attr->second.Is<std::string>()) {
    return InvalidArgument("Call without a string 'function' attr");
  }
  const std::string& name = fn_attr->second.Get<std::string>();
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> function,
                       functions_.Find(name));
  AttrMap call_attrs = attrs;
  // Ship-once: serialize the bundle (the callee closure) only the first time
  // this backend sees the name; the worker registers it and every later call
  // is one small request naming the function. Marked only after successful
  // serialization, so a failure here (host funcs, resource captures) stays a
  // clear client-side error and a retry can still ship.
  if (!remote->backend()->FunctionShipped(name)) {
    TFE_ASSIGN_OR_RETURN(std::string serialized,
                         SerializeFunctionBundle(*function, functions_));
    call_attrs.emplace("serialized_function", AttrValue(std::move(serialized)));
    remote->backend()->MarkFunctionShipped(name);
  }
  std::vector<TypeAndShape> output_types;
  bool inferable = true;
  for (int i = 0; i < function->num_outputs(); ++i) {
    TypeAndShape out = function->output_type(i);
    if (!out.shape.IsFullyDefined()) {
      inferable = false;
      break;
    }
    output_types.push_back(std::move(out));
  }
  if (!inferable) {
    return RunRemoteBlocking("Call", std::move(inputs), call_attrs, device);
  }
  return EnqueueRemote("Call", std::move(inputs), std::move(call_attrs),
                       device, output_types);
}

StatusOr<std::vector<Tensor>> EagerContext::EnqueueRemote(
    const std::string& op_name, std::vector<Tensor> inputs, AttrMap attrs,
    Device* device, const std::vector<TypeAndShape>& output_types) {
  auto* remote = static_cast<RemoteDevice*>(device);
  const std::shared_ptr<RemoteBackend>& backend = remote->shared_backend();
  OpQueue::Node node;
  node.op_name = op_name;
  node.inputs = std::move(inputs);
  node.attrs = std::move(attrs);
  node.enqueue_host_ns = host_now_ns();
  node.rng_stream = NextRngStream();
  std::vector<Tensor> result;
  result.reserve(output_types.size());
  for (const TypeAndShape& out : output_types) {
    // The pending-handle protocol: the client pre-assigns the worker-store
    // id each output will live under, so ops dispatched later can reference
    // results that do not exist yet without waiting for this one.
    TensorHandle::RemoteInfo info;
    info.device = device;
    info.handle_id = backend->AllocateHandleId();
    const int64_t id = info.handle_id;
    info.fetch = [backend, id] { return backend->Fetch(id); };
    info.release = [backend, id] { backend->DeleteAsync(id); };
    auto handle = TensorHandle::PendingRemote(out.dtype, out.shape,
                                              std::move(info), &host_now_ns_);
    node.outputs.push_back(handle);
    result.push_back(Tensor::FromHandle(std::move(handle)));
  }
  queue_for(device)->Enqueue(std::move(node));
  return result;
}

StatusOr<std::vector<Tensor>> EagerContext::RunRemoteBlocking(
    const std::string& op_name, std::vector<Tensor> inputs,
    const AttrMap& attrs, Device* device) {
  auto* remote = static_cast<RemoteDevice*>(device);
  const std::shared_ptr<RemoteBackend>& backend = remote->shared_backend();
  // Order behind everything in flight: inputs produced by queued remote ops
  // must exist in the worker store before this request arrives, and handles
  // on other queues must have resolved so their ids (or errors) are visible.
  WaitQueuesDrained();

  std::vector<int64_t> input_ids;
  std::vector<int64_t> temp_ids;
  input_ids.reserve(inputs.size());
  for (Tensor& input : inputs) {
    const auto& handle = input.pending_handle();
    const TensorHandle::RemoteInfo* rinfo =
        handle != nullptr ? handle->remote_info() : nullptr;
    if (rinfo != nullptr) {
      TFE_RETURN_IF_ERROR(handle->status());
      if (static_cast<RemoteDevice*>(rinfo->device)->shared_backend().get() !=
          backend.get()) {
        return InvalidArgument(strings::StrCat(
            "Remote op ", op_name, " on ", device->name(),
            " takes an input living on ", rinfo->device->name(),
            ", a different worker; tensors do not implicitly hop between "
            "workers — move it explicitly with tfe::copy_to"));
      }
      input_ids.push_back(rinfo->handle_id);
      continue;
    }
    if (handle != nullptr) {
      TFE_RETURN_IF_ERROR(handle->WaitReady());
      input = handle->tensor();
    }
    if (!input.defined() || input.is_symbolic() || input.is_resource() ||
        input.is_opaque()) {
      return InvalidArgument(strings::StrCat(
          "Remote op ", op_name,
          " takes an input that is not a concrete value tensor"));
    }
    const int64_t temp_id = backend->AllocateHandleId();
    TFE_RETURN_IF_ERROR(backend->Put(input, temp_id));
    input_ids.push_back(temp_id);
    temp_ids.push_back(temp_id);
  }

  // Worker-assigned output ids (empty output_ids): the reply carries them.
  StatusOr<std::vector<RemoteOutputMeta>> metas =
      Internal("remote call did not complete");
  if (op_name == "Call") {
    auto fn_attr = attrs.find("function");
    TFE_CHECK(fn_attr != attrs.end());
    std::string serialized;
    auto ser_attr = attrs.find("serialized_function");
    if (ser_attr != attrs.end()) {
      serialized = ser_attr->second.Get<std::string>();
    }
    std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;
    backend->RunFunctionAsync(
        remote->local_device_part(), fn_attr->second.Get<std::string>(),
        serialized, std::move(input_ids), /*output_ids=*/{},
        /*append_captures=*/false,
        [&](StatusOr<std::vector<RemoteOutputMeta>> reply) {
          std::lock_guard<std::mutex> lock(done_mu);
          metas = std::move(reply);
          done = true;
          done_cv.notify_one();
        });
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return done; });
  } else {
    metas = backend->RunOp(remote->local_device_part(), op_name,
                           std::move(input_ids), attrs, /*output_ids=*/{});
  }
  for (int64_t id : temp_ids) backend->DeleteAsync(id);
  if (!metas.ok()) return metas.status();

  std::vector<Tensor> outputs;
  outputs.reserve(metas->size());
  for (const RemoteOutputMeta& meta : *metas) {
    TensorHandle::RemoteInfo info;
    info.device = device;
    info.handle_id = meta.handle_id;
    const int64_t id = meta.handle_id;
    info.fetch = [backend, id] { return backend->Fetch(id); };
    info.release = [backend, id] { backend->DeleteAsync(id); };
    auto handle = TensorHandle::PendingRemote(meta.dtype, meta.shape,
                                              std::move(info), &host_now_ns_);
    // Already executed: resolve to the opaque placeholder immediately (the
    // value stays remote; the first local read fetches it).
    handle->SetTensor(Tensor::Opaque(meta.dtype, meta.shape, device),
                      /*ready_ns=*/0);
    outputs.push_back(Tensor::FromHandle(std::move(handle)));
  }
  return outputs;
}

bool EagerContext::DeferRemoteError(const std::string& op_name,
                                    const std::vector<Tensor>& inputs,
                                    const AttrMap& attrs, const Status& error,
                                    std::vector<Tensor>* outputs) {
  auto def_or = OpRegistry::Global()->LookUp(op_name);
  if (!def_or.ok()) return false;
  std::vector<TypeAndShape> input_types;
  input_types.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    if (!input.defined()) return false;
    input_types.push_back({input.dtype(), input.shape()});
  }
  InferenceContext infer(std::move(input_types), &attrs);
  if (!(*def_or)->shape_fn(&infer).ok()) return false;
  std::vector<Tensor> result;
  result.reserve(infer.outputs().size());
  for (const TypeAndShape& out : infer.outputs()) {
    // Partial shapes are fine here: the handles only ever report the error.
    auto handle = TensorHandle::Pending(out.dtype, out.shape,
                                        /*device=*/nullptr, &host_now_ns_);
    handle->SetError(error);
    result.push_back(Tensor::FromHandle(std::move(handle)));
  }
  NoteAsyncError(error);
  *outputs = std::move(result);
  return true;
}

OpQueue* EagerContext::queue_for(Device* device) {
  std::lock_guard<std::mutex> lock(queues_mu_);
  std::unique_ptr<OpQueue>& queue = queues_[device];
  if (queue == nullptr) queue = std::make_unique<OpQueue>(this, device);
  return queue.get();
}

void EagerContext::WaitQueuesDrained() {
  std::vector<OpQueue*> queues;
  {
    std::lock_guard<std::mutex> lock(queues_mu_);
    queues.reserve(queues_.size());
    for (auto& entry : queues_) queues.push_back(entry.second.get());
  }
  // Ops only enter queues from dispatching threads, never from other queues,
  // so one pass over a snapshot drains everything in flight.
  for (OpQueue* queue : queues) queue->WaitDrained();
}

void EagerContext::NoteAsyncError(const Status& status) {
  std::lock_guard<std::mutex> lock(async_error_mu_);
  if (async_error_.ok()) async_error_ = status;
}

void EagerContext::set_async(bool async) {
  if (!async) WaitQueuesDrained();
  async_.store(async, std::memory_order_relaxed);
}

Status EagerContext::Sync() {
  WaitQueuesDrained();
  for (Device* device : devices_.ListDevices()) {
    RaiseHostNs(device->timeline().free_at_ns());
  }
  std::lock_guard<std::mutex> lock(async_error_mu_);
  Status first_error = async_error_;
  async_error_ = Status::OK();
  return first_error;
}

void EagerContext::RaiseHostNs(uint64_t ns) {
  uint64_t current = host_now_ns_.load(std::memory_order_relaxed);
  while (current < ns && !host_now_ns_.compare_exchange_weak(
                             current, ns, std::memory_order_relaxed)) {
  }
}

uint64_t EagerContext::SyncAllDevices() {
  WaitQueuesDrained();
  for (Device* device : devices_.ListDevices()) {
    RaiseHostNs(device->timeline().free_at_ns());
  }
  return host_now_ns();
}

void EagerContext::ResetVirtualTime() {
  WaitQueuesDrained();
  host_now_ns_.store(0, std::memory_order_relaxed);
  for (Device* device : devices_.ListDevices()) {
    device->ResetSimulation();
  }
  stats_.Reset();
}

// ---- DeviceScope ------------------------------------------------------------

namespace {
thread_local std::vector<std::string> g_device_scope_stack;
const std::string kEmptyDevice;
}  // namespace

DeviceScope::DeviceScope(std::string device_name) {
  g_device_scope_stack.push_back(std::move(device_name));
}

DeviceScope::~DeviceScope() { g_device_scope_stack.pop_back(); }

const std::string& DeviceScope::Current() {
  if (g_device_scope_stack.empty()) return kEmptyDevice;
  return g_device_scope_stack.back();
}

}  // namespace tfe
