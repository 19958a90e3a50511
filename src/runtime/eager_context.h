// EagerContext: the imperative runtime (paper §5: "the imperative runtime —
// i.e., the code responsible for constructing and executing operations").
//
// It owns the devices, the function library, the executor thread pool, the
// stateful RNG stream, and the virtual clock used by the simulated
// accelerators. Both stages flow through it: eager ops via RunPrimitive()
// (placement -> transparent input copies -> kernel -> time accounting), and
// staged graph functions via the Call kernel, which re-enters the runtime.
//
// Execution is synchronous by default. With Options::async, primitive ops
// are enqueued on per-device in-order OpQueues and RunPrimitive returns
// pending TensorHandle-backed tensors immediately (paper §5: the runtime
// "can execute operations asynchronously"; the host only blocks at sync
// points — value reads, tape gradient entry, staged calls, Sync()). A failed
// op poisons downstream handles; its Status surfaces at the next sync point
// and Sync() leaves the context reusable.
#ifndef TFE_RUNTIME_EAGER_CONTEXT_H_
#define TFE_RUNTIME_EAGER_CONTEXT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <unordered_map>

#include "device/device_manager.h"
#include "graph/graph_function.h"
#include "ops/kernel.h"
#include "support/random.h"
#include "support/threadpool.h"
#include "tensor/allocator.h"

namespace tfe {

class OpQueue;

// Models the host-language dispatch cost per eager operation. `kNative`
// measures the raw C++ runtime; `Python()` injects the CPython-era per-op
// cost the paper measured against (DESIGN.md §2 documents this calibrated
// substitution — it is the only simulated part of the eager path).
struct HostProfile {
  uint64_t per_op_dispatch_ns = 0;   // each eager primitive dispatch
  uint64_t function_call_ns = 0;     // each staged function invocation
                                     // (signature computation, cache lookup)
  static HostProfile Native() { return {0, 0}; }
  // Paper-era CPython + TF-Python-binding dispatch cost per op / per staged
  // call (calibrated against Figures 3 & 4; see EXPERIMENTS.md).
  static HostProfile Python() { return {25'000, 100'000}; }
};

class EagerContext {
 public:
  struct Options {
    bool register_sim_gpu = true;
    bool register_sim_tpu = true;
    // When false, simulated accelerators skip kernel math and produce opaque
    // tensors (timing-only benchmarking mode). CPU always computes.
    bool accelerators_execute_kernels = true;
    HostProfile host_profile = HostProfile::Native();
    uint64_t random_seed = 1234;
    int executor_threads = 0;  // 0 -> hardware concurrency
    // Asynchronous eager dispatch (paper §5): primitive ops enqueue on
    // per-device queues and return pending handles. Off by default — all
    // synchronous semantics (and tests) are unchanged unless opted in.
    bool async = false;
    // Storage kind of every device allocator this context builds. Defaults
    // to TFE_ALLOCATOR (arena unless it names `system`; parsed once per
    // process). Sanitizer runs pick `system` for per-buffer visibility.
    AllocatorKind allocator = DefaultAllocatorKind();
  };

  EagerContext();  // default Options
  explicit EagerContext(const Options& options);
  ~EagerContext();

  EagerContext(const EagerContext&) = delete;
  EagerContext& operator=(const EagerContext&) = delete;

  // The process-default context used by the public API. Created lazily;
  // ResetGlobal replaces it (tests and benchmarks reconfigure this way).
  static EagerContext* Global();
  static void ResetGlobal(const Options& options);

  DeviceManager& devices() { return devices_; }
  Device* HostCpu() const { return host_cpu_; }
  FunctionLibrary& functions() { return functions_; }
  ThreadPool& executor_pool() { return *executor_pool_; }
  // Pool for kernel-internal sharding (kernels::ParallelFor). Distinct from
  // the executor pool so a kernel waiting on its shards can never deadlock
  // against other kernels occupying executor threads.
  ThreadPool& intraop_pool() { return *intraop_pool_; }

  // Execution-mechanism switches. Each is on by default, flips per context
  // at any time, and leaves values bitwise identical:
  //  * fuse_elementwise — the op-queue drain and the graph executor collapse
  //    runs of shape-compatible elementwise ops into one FusedElementwise
  //    kernel (single traversal).
  //  * intra_op_parallelism — large CPU kernels shard across the intra-op
  //    pool via kernels::ParallelFor (shards never change accumulation
  //    order).
  //  * buffer_donation — a fused run whose input buffer is uniquely owned
  //    (no outstanding handles or tensors, tape not watching) writes its
  //    output in place instead of allocating.
  bool fuse_elementwise() const {
    return fuse_elementwise_.load(std::memory_order_relaxed);
  }
  void set_fuse_elementwise(bool fuse) {
    fuse_elementwise_.store(fuse, std::memory_order_relaxed);
  }
  bool intra_op_parallelism() const {
    return intra_op_parallelism_.load(std::memory_order_relaxed);
  }
  void set_intra_op_parallelism(bool parallel) {
    intra_op_parallelism_.store(parallel, std::memory_order_relaxed);
  }
  bool buffer_donation() const {
    return buffer_donation_.load(std::memory_order_relaxed);
  }
  void set_buffer_donation(bool donate) {
    buffer_donation_.store(donate, std::memory_order_relaxed);
  }

  const HostProfile& host_profile() const { return host_profile_; }
  void set_host_profile(const HostProfile& profile) {
    host_profile_ = profile;
  }

  // ---- Async mode ----------------------------------------------------------

  bool async() const { return async_.load(std::memory_order_relaxed); }
  // Toggling async off is itself a sync point (drains the queues first).
  void set_async(bool async);

  // Sync point: drains every per-device op queue, joins the host clock with
  // all device timelines, and surfaces (then clears) the first deferred
  // async error, leaving the context reusable. Also correct, and a no-op, in
  // sync mode.
  Status Sync();

  // Blocks until all per-device queues are empty (no error reporting).
  void WaitQueuesDrained();

  // First-wins record of a failed async op; surfaced by the next Sync().
  void NoteAsyncError(const Status& status);

  // Modelled host<->accelerator transfer time for `bytes` over the
  // PCIe-class interconnect (shared by the sync path and the op queues).
  static uint64_t TransferTimeNs(int64_t bytes);

  // ---- Execution -----------------------------------------------------------

  // Runs one primitive operation imperatively: charges host dispatch cost,
  // resolves placement, copies mismatched inputs, executes (or simulates)
  // the kernel, and advances virtual time. Gradient-tape recording is the
  // dispatcher's job, not ours. The name form looks the op up first.
  StatusOr<std::vector<Tensor>> RunPrimitive(
      const OpDef& op, std::vector<Tensor> inputs, const AttrMap& attrs,
      const std::string& requested_device);
  StatusOr<std::vector<Tensor>> RunPrimitive(
      const std::string& op_name, std::vector<Tensor> inputs,
      const AttrMap& attrs, const std::string& requested_device);

  // Kernel execution shared with the dataflow executor: no placement, no
  // copies, no host-profile charge. `compiled` marks execution inside a
  // whole-function compilation unit (simulated TPU fusion). Returns outputs
  // and the virtual ns the kernel occupies on `device`'s timeline (for the
  // CPU this is measured wall time).
  struct KernelRun {
    std::vector<Tensor> outputs;
    uint64_t device_ns = 0;
    // Set by composite kernels (Call) that schedule device time themselves.
    uint64_t completion_ns = 0;
  };
  // `rng_stream` is the deterministic Philox stream for seed-0 random ops
  // (see KernelContext::rng_stream); 0 leaves the kernel on the shared
  // stateful stream. `inputs` is taken by value so callers that are done
  // with their inputs can move them into the kernel. `prepared` is the
  // compiled program a FusedElementwise node runs (its program-cache
  // entry's); it also gives a simulated run its output types. `donor` is
  // the input an op-at-a-time elementwise kernel may overwrite, or -1 (see
  // KernelContext::donor). Both are run-time facts of the runtime's own
  // callers; no attr stands in for them.
  StatusOr<KernelRun> ExecuteKernel(
      const OpDef& op, std::vector<Tensor> inputs, const AttrMap& attrs,
      Device* device, bool compiled, uint64_t start_ns,
      uint64_t rng_stream = 0, const kernels::CompiledRun* prepared = nullptr,
      int donor = -1);
  // Looks `op_name` up, then executes it as above.
  StatusOr<KernelRun> ExecuteKernel(const std::string& op_name,
                                    std::vector<Tensor> inputs,
                                    const AttrMap& attrs, Device* device,
                                    bool compiled, uint64_t start_ns,
                                    uint64_t rng_stream = 0);

  // Placement: explicit request > device scope > first input's device (if a
  // kernel exists there) > host CPU. Variable ops stick to the variable's
  // device (paper §4.4).
  StatusOr<Device*> ResolveDevice(const OpDef& op,
                                  const std::vector<Tensor>& inputs,
                                  const std::string& requested_device);

  // Transparent cross-device copy (paper §4.4: "the runtime transparently
  // copies the inputs to the correct device"). Accounts transfer time.
  StatusOr<Tensor> CopyToDevice(const Tensor& tensor, Device* device);

  // Explicit tensor move (tfe::copy_to): reads the tensor's value — fetching
  // from its worker store when the source is remote — and places it on
  // `device`. Local targets behave like the transparent copy; remote targets
  // ship the value into the target worker's store over the pending-handle
  // protocol and return a remote-backed handle. This is the explicit hop the
  // deferred cross-worker InvalidArgument directs users to: tensors never
  // implicitly move between workers, but copy_to moves them on demand.
  StatusOr<Tensor> CopyTo(const Tensor& tensor, Device* device);

  // ---- Virtual time --------------------------------------------------------

  uint64_t host_now_ns() const {
    return host_now_ns_.load(std::memory_order_relaxed);
  }
  // The virtual host clock itself, for constructing pending handles whose
  // reads join the host timeline (TensorHandle::Pending). Outlives every
  // handle by the usual tensors-don't-outlive-their-context rule.
  std::atomic<uint64_t>* host_clock() { return &host_now_ns_; }
  void AdvanceHostNs(uint64_t ns) {
    host_now_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  // Raises host time to at least `ns` (join with a device timeline).
  void RaiseHostNs(uint64_t ns);
  // Blocks (virtually) until all device work retires, as reading a tensor
  // value would; returns the new host time.
  uint64_t SyncAllDevices();
  // Zeroes all timelines, compile caches, and counters for a fresh
  // measurement window.
  void ResetVirtualTime();

  // ---- Introspection -------------------------------------------------------

  struct Stats {
    std::atomic<uint64_t> eager_ops{0};
    std::atomic<uint64_t> executor_nodes{0};
    std::atomic<uint64_t> function_calls{0};
    std::atomic<uint64_t> traces{0};
    std::atomic<uint64_t> device_copies{0};
    // FusedElementwise invocations / primitive ops folded into them.
    std::atomic<uint64_t> fused_runs{0};
    std::atomic<uint64_t> fused_ops{0};
    // Fused runs whose program was a DAG rather than a linear chain:
    // several published outputs, or an in-run value with several consumers.
    std::atomic<uint64_t> fused_dag_runs{0};

    // Zeroes every field. The static_assert below fails the build when a
    // field is added without being listed here.
    void Reset() {
      for (std::atomic<uint64_t>* field :
           {&eager_ops, &executor_nodes, &function_calls, &traces,
            &device_copies, &fused_runs, &fused_ops, &fused_dag_runs}) {
        field->store(0, std::memory_order_relaxed);
      }
    }
  };
  static_assert(sizeof(Stats) == 8 * sizeof(std::atomic<uint64_t>),
                "Stats::Reset must list every field");
  Stats& stats() { return stats_; }

  // The context-level stateful RNG stream backing seed-0 random ops that
  // were dispatched without an assigned stream (rng_stream == 0).
  random::Philox& rng() { return rng_; }
  std::mutex& rng_mu() { return rng_mu_; }
  // Base seed for the per-op deterministic streams.
  uint64_t random_seed() const { return random_seed_; }
  // Reserves the next deterministic RNG stream id (> 0). Called on
  // dispatching host threads (program order) and once per unbased executor
  // run, so the sequence of reservations is independent of kernel-execution
  // interleaving.
  uint64_t NextRngStream() {
    return rng_stream_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  // The per-device in-order queue, created on first async dispatch to the
  // device.
  OpQueue* queue_for(Device* device);
  // Async fast path: infers output metadata, enqueues the op, and returns
  // pending tensors. Returns false (and leaves `outputs` untouched) when the
  // op must take the synchronous path — composite/stateful ops, or shapes
  // that inference cannot pin down without values.
  bool EnqueueAsync(const OpDef& op, const std::vector<Tensor>& inputs,
                    const AttrMap& attrs, Device* device,
                    std::vector<Tensor>* outputs);

  // ---- Remote dispatch (device->IsRemote(), paper §4.5) --------------------
  // Remote ops always take the pending-handle path regardless of the async
  // flag: the op enqueues on the remote device's OpQueue and returns
  // remote-backed pending tensors immediately; the worker's completion
  // callback resolves (or poisons) them. Ops whose output shapes cannot be
  // pinned down at dispatch fall back to RunRemoteBlocking.
  StatusOr<std::vector<Tensor>> RunRemote(const OpDef& op,
                                          std::vector<Tensor> inputs,
                                          const AttrMap& attrs, Device* device);
  // Staged-function calls on a remote device: the serialized bundle ships on
  // first use (ship-once, per backend), after which each call is one small
  // request naming the registered function.
  StatusOr<std::vector<Tensor>> RunRemoteCall(const OpDef& call,
                                              std::vector<Tensor> inputs,
                                              const AttrMap& attrs,
                                              Device* device);
  // Synchronous remote execution with worker-assigned output ids: the slow
  // path for ops shape inference cannot handle. Drains the queues first so
  // the request observes every in-flight op's results, then issues the same
  // RPC the queue does and waits for its reply.
  StatusOr<std::vector<Tensor>> RunRemoteBlocking(const OpDef& op,
                                                  std::vector<Tensor> inputs,
                                                  const AttrMap& attrs,
                                                  Device* device);
  // Builds the pending remote handles (client-assigned store ids) and
  // enqueues the node on the remote device's queue.
  StatusOr<std::vector<Tensor>> EnqueueRemote(
      const OpDef& op, std::vector<Tensor> inputs, AttrMap attrs,
      Device* device, const std::vector<TypeAndShape>& output_types);
  // Poisoned-output fabrication for an op whose placement failed on a
  // remote-looking device name: the error defers to the next sync point
  // instead of throwing at dispatch, matching mid-flight worker failures.
  // False when output metadata cannot be inferred (caller reports eagerly).
  bool DeferRemoteError(const OpDef& op, const std::vector<Tensor>& inputs,
                        const AttrMap& attrs, const Status& error,
                        std::vector<Tensor>* outputs);

  DeviceManager devices_;
  Device* host_cpu_ = nullptr;
  FunctionLibrary functions_;
  std::unique_ptr<ThreadPool> executor_pool_;
  std::unique_ptr<ThreadPool> intraop_pool_;
  std::atomic<bool> fuse_elementwise_{true};
  std::atomic<bool> intra_op_parallelism_{true};
  std::atomic<bool> buffer_donation_{true};
  HostProfile host_profile_;
  std::atomic<uint64_t> host_now_ns_{0};
  Stats stats_;
  std::mutex rng_mu_;
  random::Philox rng_;
  uint64_t random_seed_ = 0;
  std::atomic<uint64_t> rng_stream_counter_{0};

  std::atomic<bool> async_{false};
  std::mutex queues_mu_;
  std::unordered_map<Device*, std::unique_ptr<OpQueue>> queues_;
  std::mutex async_error_mu_;
  Status async_error_;
};

// Scoped device override, the `with tf.device(...)` analog (paper §4.4).
// Thread-local and nestable; an empty name clears the override within the
// scope.
class DeviceScope {
 public:
  explicit DeviceScope(std::string device_name);
  ~DeviceScope();

  DeviceScope(const DeviceScope&) = delete;
  DeviceScope& operator=(const DeviceScope&) = delete;

  // The innermost scope's device name, or "" when unscoped.
  static const std::string& Current();
};

}  // namespace tfe

#endif  // TFE_RUNTIME_EAGER_CONTEXT_H_
