#include "runtime/op_queue.h"

#include <algorithm>
#include <utility>

#include "device/device.h"
#include "device/remote_device.h"
#include "kernels/fused_elementwise.h"
#include "kernels/program_cache.h"
#include "ops/op_registry.h"
#include "runtime/eager_context.h"
#include "support/strings.h"
#include "support/threadpool.h"

namespace tfe {

namespace {

// The front node's first input handle that has not resolved yet, or null if
// the node is ready to execute. Handles from this queue are always resolved
// by the time their consumer reaches the front (in-order execution), so this
// only ever parks on cross-device dependencies. A remote queue additionally
// skips unresolved handles living on its own device: the worker's in-order
// service queue guarantees the producing request lands before the consuming
// one, so the consumer can pass the producer's store id without waiting —
// parking here would serialize exactly the chain the pending-handle protocol
// exists to overlap.
std::shared_ptr<TensorHandle> FirstUnresolvedInput(const OpQueue::Node& node,
                                                   const Device* device) {
  for (const Tensor& input : node.inputs) {
    const auto& handle = input.pending_handle();
    if (handle == nullptr) continue;
    if (device->IsRemote() && handle->remote_info() != nullptr &&
        handle->device() == device) {
      continue;
    }
    if (!handle->resolved()) return handle;
  }
  return nullptr;
}

// Resolves an external (not produced in-run) input to its concrete value.
// Null when the input is unresolved, poisoned, or not plain data.
const Tensor* ResolvedOperand(const Tensor& input) {
  const auto& handle = input.pending_handle();
  // Remote values are copy-on-read: "resolved" only means the worker posted
  // completion, and touching the placeholder would trigger (or race) the
  // fetch. Never fuse through them.
  if (handle != nullptr && handle->remote_info() != nullptr) return nullptr;
  if (handle != nullptr && (!handle->resolved() || !handle->status().ok())) {
    return nullptr;
  }
  const Tensor* value = handle == nullptr ? &input : &handle->tensor();
  const bool plain = value->defined() && !value->is_symbolic() &&
                     !value->is_resource() && !value->is_opaque();
  return plain ? value : nullptr;
}

// The queue as the fused-run selector's candidate stream: position p is the
// p-th unclaimed node from the front, the front is the anchor. Husks are
// not positions at all, so a claimed member is never a hole: the same rule
// the static pass applies to nodes an earlier run claimed. The facts that
// are the drain's own live here: which queued node produces a pending
// input, when an external operand is usable, the donation proof, and
// observability.
//
// The source reads queued nodes through element pointers it takes under the
// queue lock, a chunk at a time as the scan reaches them: Enqueue only
// appends, which leaves existing elements in place, and only the drain
// touches queued elements, so the scan itself runs without the lock.
class QueueRunSource final : public kernels::FusedRunSource {
 public:
  QueueRunSource(std::mutex& mu, std::deque<OpQueue::Node>& queue,
                 OpQueue::Node* front, const Device* device, bool donation)
      : mu_(mu), deque_(queue), nodes_{front}, device_(device),
        donation_(donation) {}

  // The node at scan position `pos` (one the scan reached).
  OpQueue::Node& node_at(int pos) const { return *nodes_[pos]; }

  bool Candidate(int pos, kernels::FusedRunCandidate* out) override {
    while (static_cast<size_t>(pos) >= nodes_.size()) {
      constexpr size_t kChunk = 32;
      std::lock_guard<std::mutex> lock(mu_);
      const size_t end = std::min(deque_.size(), next_ + kChunk);
      if (next_ >= end) return false;
      for (; next_ < end; ++next_) {
        OpQueue::Node& node = deque_[next_];
        if (!node.claimed) nodes_.push_back(&node);
      }
    }
    OpQueue::Node& node = *nodes_[pos];
    if (!node.scanned) {
      node.scanned = true;
      if (node.outputs.size() == 1) {
        const TensorHandle& result = *node.outputs[0];
        if (kernels::ClassifyFusedMember(*node.op, node.attrs,
                                         node.inputs.size(), result.dtype(),
                                         result.shape())) {
          node.member_class = &node.op->fused;
        }
      }
    }
    out->op = node.op;
    out->attrs = &node.attrs;
    out->num_inputs = static_cast<int>(node.inputs.size());
    if (node.outputs.size() == 1) {
      out->id = Id(node.outputs[0]);
      const TensorHandle& result = *node.outputs[0];
      out->dtype = result.dtype();
      out->shape = &result.shape();
      out->cls = node.member_class;
    }
    return true;
  }

  kernels::FusedRunInput Input(int pos, int i) override {
    kernels::FusedRunInput in;
    const Tensor& input = nodes_[pos]->inputs[i];
    const auto& handle = input.pending_handle();
    if (handle != nullptr && !handle->resolved()) {
      // Pending: produced by a node queued ahead of this one, or elsewhere
      // (another queue), which makes it unusable.
      in.producer = Id(handle);
      return in;
    }
    // Usable without a transparent copy: plain data already resident on this
    // device (no device means host data, which the host CPU reads in place).
    const Tensor* value = ResolvedOperand(input);
    if (value == nullptr ||
        (value->device() != nullptr && value->device() != device_)) {
      return in;
    }
    in.key = value->id();
    in.dtype = value->dtype();
    in.shape = &value->shape();
    in.usable = true;
    // Donation: offer this operand's buffer as an in-place output when it is
    // provably exclusive — `input` (this slot, alive until the kernel
    // returns) is the only tensor state wrapping the producing handle, and
    // nothing else holds the handle, its resolved value, or its buffer. A
    // tape-watched or user-aliased value fails these counts (TapeEntry and
    // aliases hold whole Tensors). Counts are racy the same way
    // ReadOutside's are, but external references can only be created from
    // existing external references, so a stale count only errs high and
    // races resolve toward copying (the safe direction).
    in.may_donate = donation_ && handle != nullptr &&
                    handle.use_count() == 1 && input.state_use_count() == 1 &&
                    value->state_use_count() == 1 &&  // the handle's own
                    value->buffer().use_count() == 1;
    return in;
  }

  // Observability: false only when provably every reference to the member's
  // handle — and to the tensor state wrapping it — is an input slot of a
  // later member, i.e. the caller dropped its tensor and only the fuser holds
  // the value. Use counts are racy the same way shared_ptr::use_count is, but
  // stale counts only err high, so races resolve toward materializing (the
  // safe direction).
  bool ReadOutside(const std::vector<int>& members, size_t k) override {
    const auto& handle = nodes_[members[k]]->outputs[0];
    const long handle_refs = handle.use_count();
    if (handle_refs <= 1) return false;  // only the node's outputs
    if (handle_refs > 2) return true;    // several tensor states hold it
    // Exactly one tensor state holds the handle. Locate it among the later
    // in-run input slots; if found, it is unobservable iff those slots
    // account for every tensor sharing the state.
    const Tensor* holder = nullptr;
    long in_run_state_refs = 0;
    for (size_t m = k + 1; m < members.size(); ++m) {
      for (const Tensor& input : nodes_[members[m]]->inputs) {
        if (input.pending_handle().get() == handle.get()) {
          holder = &input;
          ++in_run_state_refs;
        }
      }
    }
    if (holder == nullptr) return true;  // held outside the run
    return holder->state_use_count() != in_run_state_refs;
  }

 private:
  // A pending value's identity: its handle.
  static int64_t Id(const std::shared_ptr<TensorHandle>& handle) {
    return static_cast<int64_t>(reinterpret_cast<uintptr_t>(handle.get()));
  }

  std::mutex& mu_;
  std::deque<OpQueue::Node>& deque_;
  std::vector<OpQueue::Node*> nodes_;  // the positions reached so far
  size_t next_ = 1;  // the deque index the next chunk starts at
  const Device* const device_;
  const bool donation_;
};

}  // namespace

OpQueue::OpQueue(EagerContext* ctx, Device* device)
    : ctx_(ctx),
      device_(device),
      fused_op_(OpRegistry::Global()->LookUp("FusedElementwise").value()),
      enqueued_counter_(profiler::Metrics().GetCounter("queue.enqueued")),
      depth_gauge_(
          profiler::Metrics().GetGauge("queue.depth." + device->name())),
      run_length_hist_(
          profiler::Metrics().GetHistogram("fusion.run_length")),
      dispatch_latency_hist_(profiler::Metrics().GetHistogram(
          "queue.dispatch_to_execute_ns")),
      drain_name_id_(profiler::Intern("drain " + device->name())) {}

void OpQueue::Enqueue(Node node) {
  enqueued_counter_->Increment();
  uint32_t name_id = 0;
  if (profiler::enabled()) {
    node.enqueue_wall_ns = profiler::NowNs();
    name_id = profiler::Intern(node.op->name);
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(node));
    depth = queue_.size() - claimed_;
    PumpLocked();
  }
  depth_gauge_->Set(static_cast<int64_t>(depth));
  if (name_id != 0) {
    profiler::RecordInstant(profiler::EventKind::kEnqueue, name_id,
                            static_cast<int64_t>(depth));
  }
}

void OpQueue::PumpLocked() {
  if (draining_ || parked_ || queue_.empty()) return;
  draining_ = true;
  ctx_->executor_pool().Schedule([this] { Drain(); });
}

void OpQueue::Drain() {
  profiler::Scope drain_span(profiler::EventKind::kQueueDrain, drain_name_id_);
  int64_t ops_drained = 0;
  for (;;) {
    Node* front;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (; !queue_.empty() && queue_.front().claimed; --claimed_) {
        queue_.pop_front();
      }
      if (queue_.empty()) {
        draining_ = false;
        drained_cv_.notify_all();
        return;
      }
      // Safe to inspect outside the lock: only the single active drain pops
      // or touches queued elements, and deque growth does not invalidate
      // them.
      front = &queue_.front();
    }
    if (std::shared_ptr<TensorHandle> unresolved =
            FirstUnresolvedInput(*front, device_)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        draining_ = false;
        parked_ = true;
      }
      // Park: re-arm the drain when the cross-device dependency resolves.
      // If it resolved between the check above and here, AndThen runs the
      // callback inline and the drain restarts immediately.
      unresolved->AndThen([this] {
        std::lock_guard<std::mutex> lock(mu_);
        parked_ = false;
        PumpLocked();
      });
      return;
    }
    // Take the largest fusable map-reduce DAG segment anchored at the front,
    // as the shared selector picks it, so the segment executes as one
    // kernel. Fuse only where the kernel actually computes: simulated
    // accelerators are virtual-time devices and fusing would perturb their
    // cost model. Taking members ahead of the holes the scan stepped over
    // is safe: a member's inputs are all resolved or produced in-run (a
    // consumer of a hole's output cannot join), ops with effects (variable
    // writes) are never fusable, RNG streams are pinned at dispatch, and
    // holes that consume a member's output see its handle resolve when the
    // fused kernel completes. Members the selector drops while shrinking the
    // run are never claimed, so they keep their places.
    kernels::FusedRunSelection selection;
    std::vector<Node> run;
    if (ctx_->fuse_elementwise() && !device_->is_accelerator() &&
        device_->executes_kernels()) {
      QueueRunSource source(mu_, queue_, front, device_,
                            ctx_->buffer_donation());
      selection = kernels::SelectFusedRun(
          source, kernels::FusedProgramCache::Global());
      // Claim the members behind the front without the lock: their contents
      // move into the run and an empty husk keeps each place. A husk holds
      // no tensors, so every use count the run's proofs read is unchanged.
      run.reserve(selection.members.size());
      for (int pos : selection.members) {
        Node& member = source.node_at(pos);
        run.push_back(std::move(member));
        if (pos == 0) continue;
        member = Node();
        member.claimed = true;
      }
    }
    if (run.empty()) run.push_back(std::move(*front));
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.pop_front();
      claimed_ += run.size() - 1;
      depth = queue_.size() - claimed_;
    }
    depth_gauge_->Set(static_cast<int64_t>(depth));
    run_length_hist_->Record(run.size());
    ops_drained += static_cast<int64_t>(run.size());
    drain_span.set_arg(ops_drained);
    if (run.size() == 1) {
      Execute(std::move(run.front()));
    } else {
      ExecuteFused(std::move(run), selection.operands, *selection.program);
    }
  }
}

void OpQueue::ExecuteFused(std::vector<Node> run,
                           const std::vector<kernels::FusedRunSlot>& slots,
                           const kernels::FusedProgram& program) {
  const kernels::CompiledRun& compiled = program.run;
  // The run starts once every member was dispatched and every external
  // operand is ready (in-run handles are still pending here).
  const uint64_t now_ns = profiler::enabled() ? profiler::NowNs() : 0;
  uint64_t start_ns = 0;
  for (const Node& node : run) {
    if (node.enqueue_wall_ns != 0 && node.enqueue_wall_ns <= now_ns) {
      dispatch_latency_hist_->Record(now_ns - node.enqueue_wall_ns);
    }
    start_ns = std::max(start_ns, node.enqueue_host_ns);
    for (const Tensor& input : node.inputs) {
      const auto& handle = input.pending_handle();
      if (handle != nullptr && handle->resolved()) {
        start_ns = std::max(start_ns, handle->ready_ns());
      }
    }
  }
  std::vector<Tensor> operands;
  operands.reserve(slots.size());
  for (const kernels::FusedRunSlot& slot : slots) {
    const Tensor* value = ResolvedOperand(run[slot.member].inputs[slot.input]);
    if (value == nullptr) {
      // Raced from usable to surprising: execute the run op-at-a-time,
      // which preserves exact per-node error semantics.
      for (Node& node : run) Execute(std::move(node));
      return;
    }
    operands.push_back(*value);
  }

  auto poison = [&](const Status& status) {
    for (const Node& node : run) {
      for (const auto& out : node.outputs) out->SetError(status);
    }
    ctx_->NoteAsyncError(status);
  };

  // The cache entry's compiled run carries the program, the run dtype and
  // the donation plan; the kernel gets no attrs.
  auto result = ctx_->ExecuteKernel(*fused_op_, std::move(operands), AttrMap(),
                                    device_, /*compiled=*/false, start_ns,
                                    /*rng_stream=*/0, &compiled);
  if (!result.ok()) {
    poison(result.status());
    return;
  }
  const uint64_t done_ns =
      device_->timeline().Schedule(start_ns, result->device_ns);
  if (result->outputs.size() != compiled.output_members.size()) {
    poison(Internal("FusedElementwise produced " +
                    std::to_string(result->outputs.size()) +
                    " outputs, expected " +
                    std::to_string(compiled.output_members.size())));
    return;
  }
  // Every handle in the run resolves at the same completion time; elided
  // intermediates resolve to opaque placeholders of their own shape (nobody
  // can read them).
  for (size_t k = 0; k < compiled.output_members.size(); ++k) {
    run[compiled.output_members[k]].outputs[0]->SetTensor(
        std::move(result->outputs[k]), done_ns);
  }
  std::vector<bool> published(run.size(), false);
  for (int member : compiled.output_members) published[member] = true;
  for (size_t n = 0; n < run.size(); ++n) {
    if (published[n]) continue;
    const auto& out = run[n].outputs[0];
    out->SetTensor(Tensor::Opaque(out->dtype(), out->shape(), device_),
                   done_ns);
  }
}

void OpQueue::Execute(Node node) {
  if (device_->IsRemote()) {
    ExecuteRemote(std::move(node));
    return;
  }
  if (node.enqueue_wall_ns != 0 && profiler::enabled()) {
    const uint64_t now_ns = profiler::NowNs();
    if (node.enqueue_wall_ns <= now_ns) {
      dispatch_latency_hist_->Record(now_ns - node.enqueue_wall_ns);
    }
  }
  // Deferred error propagation: a poisoned input poisons every output with
  // the *original* Status, without executing (paper §5 error semantics).
  uint64_t start_ns = node.enqueue_host_ns;
  std::vector<Tensor> inputs;
  inputs.reserve(node.inputs.size());
  for (const Tensor& input : node.inputs) {
    const auto& handle = input.pending_handle();
    if (handle == nullptr) {
      inputs.push_back(input);
      continue;
    }
    Status status = handle->status();
    if (!status.ok()) {
      for (const auto& out : node.outputs) out->SetError(status);
      ctx_->NoteAsyncError(status);
      return;
    }
    if (handle->remote_info() != nullptr) {
      // Copy-on-read: a local op consuming a remote tensor pulls the value
      // from the worker store here (WaitReady performs the one-shot fetch —
      // the drain already confirmed the handle resolved, so this only blocks
      // on the fetch RPC itself).
      status = handle->WaitReady();
      if (!status.ok()) {
        for (const auto& out : node.outputs) out->SetError(status);
        ctx_->NoteAsyncError(status);
        return;
      }
    }
    start_ns = std::max(start_ns, handle->ready_ns());
    inputs.push_back(handle->tensor());
  }

  auto poison = [&](const Status& status) {
    for (const auto& out : node.outputs) out->SetError(status);
    ctx_->NoteAsyncError(status);
  };

  // Transparent input copies (paper §4.4). Unlike the synchronous path, the
  // transfer cost is charged to the op's device occupancy, not the host —
  // the host already raced ahead.
  uint64_t extra_ns = 0;
  for (Tensor& input : inputs) {
    if (!input.defined() || input.is_resource() || input.is_symbolic()) {
      continue;
    }
    Device* source = input.device() != nullptr ? input.device() : ctx_->HostCpu();
    if (source == device_) continue;
    ctx_->stats().device_copies.fetch_add(1, std::memory_order_relaxed);
    if (source->is_accelerator() || device_->is_accelerator()) {
      extra_ns += EagerContext::TransferTimeNs(
          input.num_elements() * static_cast<int64_t>(DTypeSize(input.dtype())));
    }
    if (input.is_opaque()) {
      input = Tensor::Opaque(input.dtype(), input.shape(), device_);
    } else {
      input = Tensor::Concrete(input.dtype(), input.shape(), input.buffer(),
                               device_);
    }
  }

  // Per-op-signature compile cost (simulated TPU eager mode) also rides on
  // the device occupancy in async mode.
  extra_ns += device_->OpCompileCostNs(*node.op, inputs);

  // Op-at-a-time buffer donation: the fused-run use-count proof applied to a
  // single elementwise op. When an input is provably the last reference to
  // its value — no other handle holders, tensor states, or buffer aliases
  // (tape entries and user aliases hold whole Tensors and fail the counts) —
  // ask the kernel to write its output in place. Binary ops may take the
  // donation from either operand, but only one whose shape equals the
  // output's: a broadcasting operand's buffer is too small, and an
  // exact-shape donor reads element i immediately before the loop writes
  // element i, so aliasing is safe even when the other operand broadcasts
  // (it lives in a different buffer — a shared buffer fails the counts).
  // The kernels re-validate dtype/shape and allocate fresh otherwise.
  int donor = -1;
  if (ctx_->buffer_donation() && !device_->is_accelerator() &&
      device_->executes_kernels() && node.attrs.empty() &&
      node.inputs.size() == inputs.size() &&
      (inputs.size() == 1 || inputs.size() == 2) && node.outputs.size() == 1) {
    const kernels::FusedMemberClass& cls = node.op->fused;
    if (cls.kind == kernels::FusedMemberKind::kCompute &&
        kernels::MicroOpArity(cls.code) == static_cast<int>(inputs.size()) &&
        cls.code != kernels::MicroOpCode::kCast) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        const auto& handle = node.inputs[i].pending_handle();
        const Tensor& value = inputs[i];
        if (handle != nullptr && value.defined() && !value.is_opaque() &&
            !value.is_resource() &&
            value.dtype() == node.outputs[0]->dtype() &&
            value.shape() == node.outputs[0]->shape() &&
            handle.use_count() == 1 &&
            node.inputs[i].state_use_count() == 1 &&
            value.state_use_count() == 2 &&  // handle's + `inputs[i]`
            value.buffer().use_count() == 1) {
          donor = static_cast<int>(i);
          break;
        }
      }
    }
  }

  auto run = ctx_->ExecuteKernel(*node.op, inputs, node.attrs, device_,
                                 /*compiled=*/false, start_ns,
                                 node.rng_stream, /*prepared=*/nullptr, donor);
  if (!run.ok()) {
    poison(run.status());
    return;
  }
  uint64_t done_ns =
      run->completion_ns != 0
          ? run->completion_ns
          : device_->timeline().Schedule(start_ns, extra_ns + run->device_ns);

  if (run->outputs.size() != node.outputs.size()) {
    poison(Internal("Async op " + node.op->name + " produced " +
                    std::to_string(run->outputs.size()) + " outputs, expected " +
                    std::to_string(node.outputs.size())));
    return;
  }
  for (size_t i = 0; i < node.outputs.size(); ++i) {
    node.outputs[i]->SetTensor(std::move(run->outputs[i]), done_ns);
  }
}

void OpQueue::ExecuteRemote(Node node) {
  if (node.enqueue_wall_ns != 0 && profiler::enabled()) {
    const uint64_t now_ns = profiler::NowNs();
    if (node.enqueue_wall_ns <= now_ns) {
      dispatch_latency_hist_->Record(now_ns - node.enqueue_wall_ns);
    }
  }
  auto* remote = static_cast<RemoteDevice*>(device_);
  std::shared_ptr<RemoteBackend> backend = remote->shared_backend();

  std::vector<int64_t> input_ids;
  std::vector<int64_t> temp_ids;
  Status assembled =
      remote->AssembleInputs(node.op->name, node.inputs, &input_ids, &temp_ids);
  if (!assembled.ok()) {
    for (const auto& out : node.outputs) out->SetError(assembled);
    ctx_->NoteAsyncError(assembled);
    return;
  }

  // The pending-handle protocol: outputs execute under the client-assigned
  // store ids baked into the handles at dispatch time.
  std::vector<int64_t> output_ids;
  output_ids.reserve(node.outputs.size());
  for (const auto& out : node.outputs) {
    TFE_CHECK(out->remote_info() != nullptr);
    output_ids.push_back(out->remote_info()->handle_id);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++inflight_;
  }
  auto done = [this, backend, outputs = node.outputs, temp_ids,
               op_name = node.op->name](
                  StatusOr<std::vector<RemoteOutputMeta>> metas) mutable {
    {
      profiler::Scope resolve_span(profiler::EventKind::kRemoteResolve,
                                   "remote_resolve");
      if (resolve_span.active()) {
        resolve_span.set_detail(profiler::Intern(op_name));
      }
      if (!metas.ok()) {
        for (const auto& out : outputs) out->SetError(metas.status());
        ctx_->NoteAsyncError(metas.status());
      } else if (metas->size() != outputs.size()) {
        Status status = Internal(strings::StrCat(
            "Remote op ", op_name, " produced ", metas->size(),
            " outputs, expected ", outputs.size()));
        for (const auto& out : outputs) out->SetError(status);
        ctx_->NoteAsyncError(status);
      } else {
        // Values stay on the worker: handles resolve to opaque placeholders
        // and the first local read fetches (TensorHandle copy-on-read).
        for (size_t i = 0; i < outputs.size(); ++i) {
          const RemoteOutputMeta& meta = (*metas)[i];
          outputs[i]->SetTensor(Tensor::Opaque(meta.dtype, meta.shape, device_),
                                /*ready_ns=*/0);
        }
      }
      // The consuming request (if any) is already behind us in the worker
      // queue, so the temp inputs are safe to drop now.
      for (int64_t id : temp_ids) backend->DeleteAsync(id);
      // Let go of the handles before the queue counts as drained: after a
      // sync the client holds the only references, so dropping the last
      // tensor releases its store entry from the dropping thread.
      outputs.clear();
    }
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
    if (inflight_ == 0) drained_cv_.notify_all();
  };

  profiler::Scope enqueue_span(profiler::EventKind::kRemoteEnqueue,
                               "remote_enqueue");
  if (enqueue_span.active()) {
    enqueue_span.set_detail(profiler::Intern(node.op->name));
  }
  backend->RunOpAsync(remote->local_device_part(), node.op->name,
                      std::move(input_ids), std::move(node.attrs),
                      std::move(output_ids), std::move(done));
}

void OpQueue::WaitDrained() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] {
    return queue_.empty() && !draining_ && inflight_ == 0;
  });
}

}  // namespace tfe
