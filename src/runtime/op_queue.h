// OpQueue: one device's in-order asynchronous dispatch queue (paper §5).
//
// Async eager dispatch enqueues each primitive here and returns pending
// TensorHandles immediately; the queue executes ops in submission order on
// the runtime's shared ThreadPool. Drains are continuation-style and never
// block a pool thread: when the front op's inputs include an unresolved
// handle from another device's queue, the drain parks itself on that handle
// (TensorHandle::AndThen) and re-arms when it resolves — so any number of
// queues share a small pool without deadlock.
//
// Drain fusion: each drain iteration offers the queue, front first, to the
// fused-run selector it shares with the static graph pass
// (kernels/run_selector.h), and executes the run it picks as one
// FusedElementwise kernel, handing it the run's cached compiled program.
// Only what the drain alone knows stays here: the device gate, which queued
// node produces a pending input, when a resolved operand is usable in
// place, the donation proof, and whether a member's value is observable
// outside the run. A node's run-member class is computed once, when a scan
// first reaches it, and kept in the node. Members claimed from behind the
// front are not erased from the deque: each leaves an empty husk in place
// that the drain pops once it reaches the front, so claiming a run takes no
// queue lock and moves no other node.
//
// Virtual-time accounting rides on the queue: an op occupies its device's
// timeline starting no earlier than (a) the host clock at enqueue and (b)
// its inputs' ready times, which models the host racing ahead of device
// work (the overlap behind Figure 3).
#ifndef TFE_RUNTIME_OP_QUEUE_H_
#define TFE_RUNTIME_OP_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/run_selector.h"
#include "ops/attr_value.h"
#include "profiler/profiler.h"
#include "tensor/tensor.h"
#include "tensor/tensor_handle.h"

namespace tfe {

class Device;
class EagerContext;
struct OpDef;

class OpQueue {
 public:
  // One enqueued primitive: inputs may be pending tensors from any queue;
  // `outputs` are the handles handed to the caller at dispatch time.
  struct Node {
    const OpDef* op = nullptr;  // resolved once at dispatch
    std::vector<Tensor> inputs;
    AttrMap attrs;
    // Virtual host time when the op was dispatched (earliest device start).
    uint64_t enqueue_host_ns = 0;
    // Profiler wall clock at enqueue; 0 when profiling was off. Feeds the
    // dispatch-to-execute latency histogram.
    uint64_t enqueue_wall_ns = 0;
    // Deterministic RNG stream reserved at enqueue (program order).
    uint64_t rng_stream = 0;
    std::vector<std::shared_ptr<TensorHandle>> outputs;

    // Drain-only state: written and read by the queue's drain alone.
    // Scan facts, computed the first time a selection scan reaches the
    // node: its run-member class (null: a hole). Every later scan reads it
    // instead of classifying the node again.
    bool scanned = false;
    const kernels::FusedMemberClass* member_class = nullptr;
    // A husk: a fused run claimed this node from behind the front and moved
    // its contents out. It stays in place until it reaches the front; scans
    // step over it without counting it as a hole.
    bool claimed = false;
  };

  OpQueue(EagerContext* ctx, Device* device);

  OpQueue(const OpQueue&) = delete;
  OpQueue& operator=(const OpQueue&) = delete;

  // Never blocks; safe from any thread.
  void Enqueue(Node node);

  // Blocks the calling (user) thread until every enqueued op has retired.
  void WaitDrained();

 private:
  // Schedules a drain on the pool if one is not already running and work
  // exists. Caller must hold mu_.
  void PumpLocked();
  // Pops and executes ready ops in order; parks on the first unresolved
  // input handle. Runs on a pool thread; never blocks. Each iteration pops
  // the husks at the front, asks the fused-run selector
  // (kernels/run_selector.h) for the run anchored at the front, with this
  // queue's unclaimed nodes as the candidate stream, and takes the whole DAG
  // segment it picks (the front popped, the other members left as husks);
  // otherwise it pops the front alone.
  void Drain();
  // Runs one op: propagates poisoned inputs, materializes the rest, executes
  // the kernel, accounts device time, and fulfills the output handles. An
  // elementwise op whose input buffer is provably uniquely owned (the same
  // use-count proof ExecuteFused applies to run operands) names that input
  // as the kernel's donor (KernelContext::donor), and the kernel writes its
  // output in place.
  void Execute(Node node);
  // Remote-device variant: assembles the inputs into worker-store ids
  // (RemoteDevice::AssembleInputs) and issues the op over the backend's
  // pending-handle protocol. The worker's completion callback resolves the
  // output handles (to opaque placeholders — values stay remote until read)
  // or poisons them; the RPC is in flight while the drain moves on, tracked
  // by inflight_ so WaitDrained covers it.
  void ExecuteRemote(Node node);

  // Executes a run of >= 2 fused nodes as one FusedElementwise invocation of
  // the program the selector compiled, passing the kernel the entry's
  // compiled run and reading the external operand at each of `slots`:
  // elides intermediates nobody outside the run can observe, schedules one
  // span of device time, and fulfills every run handle at the same
  // completion time. Falls back to per-node Execute() when an operand
  // raced from usable to unusable.
  void ExecuteFused(std::vector<Node> run,
                    const std::vector<kernels::FusedRunSlot>& slots,
                    const kernels::FusedProgram& program);

  EagerContext* const ctx_;
  Device* const device_;
  // The FusedElementwise entry every fused run executes.
  const OpDef* const fused_op_;

  // Observability instruments, resolved once (metric pointers are
  // process-lifetime stable; see profiler/metrics.h).
  profiler::Counter* const enqueued_counter_;
  profiler::Gauge* const depth_gauge_;
  profiler::Histogram* const run_length_hist_;
  profiler::Histogram* const dispatch_latency_hist_;
  const uint32_t drain_name_id_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::deque<Node> queue_;
  // Husks in queue_; queue.depth.<device> reports the other nodes only.
  size_t claimed_ = 0;
  bool draining_ = false;
  // Waiting on a cross-device input handle; its AndThen callback un-parks.
  bool parked_ = false;
  // Remote RPCs issued but not yet resolved by their worker callback. Part
  // of the WaitDrained predicate: a drained remote queue means every op's
  // outputs have been resolved (or poisoned), not merely sent.
  int inflight_ = 0;
};

}  // namespace tfe

#endif  // TFE_RUNTIME_OP_QUEUE_H_
