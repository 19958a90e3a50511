#include "serving/serving.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "executor/executor.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "staging/function.h"
#include "staging/signature.h"
#include "support/random.h"
#include "support/strings.h"
#include "tensor/dtype.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace serving {

namespace {

int NextPow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Cached interned instant names + metric handles (leaked singletons, same
// pattern as the rest of the runtime's instrumentation sites).
struct Telemetry {
  uint32_t batched_run = profiler::Intern("batched_run");
  uint32_t unbatched_run = profiler::Intern("unbatched_run");
  uint32_t session_open = profiler::Intern("session_open");
  uint32_t session_close = profiler::Intern("session_close");
  profiler::Gauge* sessions = profiler::Metrics().GetGauge("serving.sessions");
  profiler::Histogram* batch_size =
      profiler::Metrics().GetHistogram("serving.batch_size");
  profiler::Histogram* queue_delay_us =
      profiler::Metrics().GetHistogram("serving.queue_delay_us");
  profiler::Counter* batches =
      profiler::Metrics().GetCounter("serving.batches");
  profiler::Counter* batched_calls =
      profiler::Metrics().GetCounter("serving.batched_calls");
  profiler::Counter* unbatched_calls =
      profiler::Metrics().GetCounter("serving.unbatched_calls");
  profiler::Counter* call_errors =
      profiler::Metrics().GetCounter("serving.call_errors");
};

Telemetry& Telem() {
  static Telemetry* t = new Telemetry();
  return *t;
}

// Unwraps a resolved pending handle so downstream code sees plain host data.
Status Concretize(Tensor& tensor) {
  TFE_RETURN_IF_ERROR(tensor.Materialize());
  if (const auto& handle = tensor.pending_handle(); handle != nullptr) {
    tensor = handle->tensor();
  }
  return Status::OK();
}

// Executes a concrete graph function directly through the dataflow executor
// on the host CPU — the serving-side twin of the Call kernel
// (kernels/call_op.cpp): the executor picks the same plan and the same
// inline-when-nested rule, but the run is entered from a batcher or submit
// thread rather than an op queue.
StatusOr<std::vector<Tensor>> RunConcrete(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& concrete,
    const std::vector<Tensor>& explicit_args, uint64_t rng_stream) {
  std::vector<Tensor> call_inputs;
  call_inputs.reserve(concrete->num_args());
  for (const Tensor& arg : explicit_args) {
    if (!arg.is_resource()) call_inputs.push_back(arg);
  }
  for (const Capture& capture : concrete->captures()) {
    call_inputs.push_back(capture.tensor);
  }
  for (Tensor& input : call_inputs) {
    if (!input.is_resource()) TFE_RETURN_IF_ERROR(Concretize(input));
  }

  ctx->stats().function_calls.fetch_add(1, std::memory_order_relaxed);
  Device* device = ctx->HostCpu();
  TFE_ASSIGN_OR_RETURN(
      Executor::Result result,
      Executor(ctx).Run(*concrete, call_inputs, device, ctx->host_now_ns(),
                        /*compiled=*/false, rng_stream));
  ctx->RaiseHostNs(result.finish_ns);
  return std::move(result.outputs);
}

}  // namespace

Serving::Serving(ServingOptions options, EagerContext* ctx)
    : ctx_(ctx != nullptr ? ctx : EagerContext::Global()),
      options_(std::move(options)) {
  DynamicBatcher::Options batcher_options;
  batcher_options.max_batch_size = std::max(1, options_.max_batch_size);
  batcher_options.max_queue_delay_us =
      std::max(0, options_.max_queue_delay_us);
  batcher_ = std::make_unique<DynamicBatcher>(
      batcher_options,
      [this](std::vector<PendingCall> batch) { RunBatch(std::move(batch)); });
}

Serving::~Serving() {
  Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, session] : sessions_) {
    WorkspaceRegistry::Global().Remove(session->workspace_name);
    Telem().sessions->Add(-1);
  }
  sessions_.clear();
}

StatusOr<SessionId> Serving::OpenSession(const std::string& label,
                                         uint64_t rng_seed) {
  auto session = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) {
      return FailedPrecondition("Serving is shut down");
    }
    session->id = next_session_++;
  }
  session->workspace_name = strings::StrCat(
      "serving/", label.empty() ? "session" : label, "_", session->id);
  TFE_ASSIGN_OR_RETURN(session->workspace,
                       WorkspaceRegistry::Global().GetOrCreate(
                           session->workspace_name,
                           options_.shared_workspace));
  // Per-session Philox substream base: deterministic in (base seed, open
  // order), overridable per session so tests can pin exact streams.
  session->rng_seed =
      rng_seed != 0
          ? rng_seed
          : random::SplitMix64(options_.rng_seed +
                       0x9e3779b97f4a7c15ull * static_cast<uint64_t>(
                                                   session->id));
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.emplace(session->id, session);
  }
  Telem().sessions->Add(1);
  profiler::RecordInstant(profiler::EventKind::kServing, Telem().session_open,
                          session->id);
  return session->id;
}

Status Serving::CloseSession(SessionId id) {
  std::shared_ptr<Session> session;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return NotFound(strings::StrCat("No serving session ", id));
    }
    session = it->second;
    drain_cv_.wait(lock, [&] { return session->inflight == 0; });
    sessions_.erase(id);
  }
  WorkspaceRegistry::Global().Remove(session->workspace_name);
  Telem().sessions->Add(-1);
  profiler::RecordInstant(profiler::EventKind::kServing, Telem().session_close,
                          id);
  return Status::OK();
}

Status Serving::SessionStatus(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return NotFound(strings::StrCat("No serving session ", id));
  }
  Status deferred = it->second->deferred_error;
  it->second->deferred_error = Status::OK();
  return deferred;
}

StatusOr<std::shared_ptr<Workspace>> Serving::workspace(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return NotFound(strings::StrCat("No serving session ", id));
  }
  return it->second->workspace;
}

int64_t Serving::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sessions_.size());
}

void Serving::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
  }
  batcher_->Shutdown();
}

Status Serving::Await(const std::vector<Tensor>& outputs) {
  Status result;
  for (const Tensor& tensor : outputs) {
    Status status = tensor.Materialize();
    if (!status.ok() && result.ok()) result = status;
  }
  return result;
}

bool Serving::GraphBatchSafe(const GraphFunction& fn, int depth) {
  if (depth > 16) return false;  // cycle / pathological nesting guard
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = batch_safe_.find(fn.name()); it != batch_safe_.end()) {
      return it->second;
    }
  }
  bool safe = true;
  const Graph& graph = fn.graph();
  for (int i = 0; i < graph.num_nodes() && safe; ++i) {
    const Node& node = graph.node(i);
    if (!node.is_stateful() || node.def->read_only) continue;
    if (node.def->pure_when_seeded) {
      // Explicitly seeded randomness is a pure function of (seed, seed2);
      // seed-0 draws from the session's stream, which a shared batched
      // execution could not honor per-tenant.
      int64_t seed = 0, seed2 = 0;
      if (auto it = node.attrs.find("seed");
          it != node.attrs.end() && it->second.Is<int64_t>()) {
        seed = it->second.Get<int64_t>();
      }
      if (auto it = node.attrs.find("seed2");
          it != node.attrs.end() && it->second.Is<int64_t>()) {
        seed2 = it->second.Get<int64_t>();
      }
      safe = seed != 0 || seed2 != 0;
      continue;
    }
    if (node.def->function_call) {
      auto it = node.attrs.find("function");
      std::string callee_name =
          it != node.attrs.end() && it->second.Is<std::string>()
              ? it->second.Get<std::string>()
              : "";
      auto callee = ctx_->functions().Find(callee_name);
      safe = callee.ok() && GraphBatchSafe(**callee, depth + 1);
      continue;
    }
    // Assign*, HostFunc, Save/Restore, iterators: executing once on behalf
    // of many sessions would change per-session side effects.
    safe = false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  batch_safe_.emplace(fn.name(), safe);
  return safe;
}

StatusOr<std::vector<Tensor>> Serving::Submit(SessionId id, Function& fn,
                                              const std::vector<Tensor>& args,
                                              const AttrMap& non_tensor_args) {
  std::shared_ptr<Session> session;
  uint64_t rng_stream = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) return FailedPrecondition("Serving is shut down");
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return NotFound(strings::StrCat("No serving session ", id));
    }
    session = it->second;
    if (!session->deferred_error.ok()) {
      Status deferred = session->deferred_error;
      session->deferred_error = Status::OK();
      return deferred;
    }
    // Reserve this call's Philox substream now — before any batching
    // decision — so the sampled values of a session depend only on its own
    // submit order, never on batch-mates. Always burned, batched or not,
    // to keep the per-call stream sequence stable either way.
    session->calls_submitted++;
    rng_stream =
        random::SplitMix64(session->rng_seed + session->calls_submitted) | 1ull;
  }

  // Trace (or look up) the concrete function under the session's workspace
  // so named variables resolve against session state.
  StatusOr<std::shared_ptr<GraphFunction>> concrete_or =
      [&]() -> StatusOr<std::shared_ptr<GraphFunction>> {
    try {
      WorkspaceScope scope(session->workspace);
      return fn.GetConcreteFunction(args, non_tensor_args);
    } catch (const RuntimeError& e) {
      return Status(e.code(), e.what());
    }
  }();
  if (!concrete_or.ok()) {
    FinishCall(id, concrete_or.status());
    return concrete_or.status();
  }
  std::shared_ptr<GraphFunction> concrete = std::move(concrete_or).value();

  // Group key: function object + concrete trace + full input signature
  // (shapes, dtypes, resource identities, non-tensor args). Distinct
  // variable bindings or attrs can never coalesce.
  TFE_ASSIGN_OR_RETURN(std::string signature,
                       ComputeSignature(args, non_tensor_args, ""));
  std::string group_key = strings::StrCat(
      reinterpret_cast<uintptr_t>(&fn), "|", concrete->name(), "|", signature);

  // Batchability proof, part one (static, per call): every tensor argument
  // shares a leading example dimension and every output carries it.
  int64_t rows = -1;
  int tensor_args = 0;
  bool batchable = true;
  for (const Tensor& arg : args) {
    if (!arg.defined()) return InvalidArgument("Undefined tensor argument");
    if (arg.is_resource()) continue;
    tensor_args++;
    const Shape& shape = arg.shape();
    if (shape.rank() < 1) {
      batchable = false;
      break;
    }
    if (rows < 0) rows = shape.dim(0);
    if (shape.dim(0) != rows) batchable = false;
  }
  if (tensor_args == 0 || rows <= 0) batchable = false;
  bool outputs_defined = true;
  for (int i = 0; i < concrete->num_outputs(); ++i) {
    const TypeAndShape out = concrete->output_type(i);
    if (!out.shape.IsFullyDefined()) {
      outputs_defined = false;
      batchable = false;
      continue;
    }
    if (out.shape.rank() < 1 || out.shape.dim(0) != rows) batchable = false;
  }

  if (!outputs_defined) {
    // Dynamic output shapes: no future metadata to hand out — run the call
    // synchronously on the submitting thread (still under the session's
    // reserved stream, so determinism holds).
    auto result = RunConcrete(ctx_, concrete, args, rng_stream);
    profiler::RecordInstant(profiler::EventKind::kServing,
                            Telem().unbatched_run, 1);
    Telem().unbatched_calls->Increment();
    Telem().batch_size->Record(1);
    if (!result.ok()) {
      FinishCall(id, result.status());
      return result.status();
    }
    return result;
  }

  if (batchable) {
    batchable = GraphBatchSafe(*concrete);
  }
  if (batchable) {
    std::lock_guard<std::mutex> lock(mu_);
    if (unbatchable_groups_.count(group_key) != 0) batchable = false;
  }

  PendingCall call;
  call.session_id = id;
  call.fn = &fn;
  call.concrete = concrete;
  call.workspace = session->workspace;
  call.args = args;
  call.non_tensor_args = non_tensor_args;
  call.rng_stream = rng_stream;
  call.rows = rows;
  call.batchable = batchable;
  call.group_key = std::move(group_key);
  call.outputs.reserve(concrete->num_outputs());
  std::vector<Tensor> futures;
  futures.reserve(concrete->num_outputs());
  for (int i = 0; i < concrete->num_outputs(); ++i) {
    const TypeAndShape out = concrete->output_type(i);
    auto handle = TensorHandle::Pending(out.dtype, out.shape, ctx_->HostCpu(),
                                        ctx_->host_clock());
    call.outputs.push_back(handle);
    futures.push_back(Tensor::FromHandle(std::move(handle)));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    session->inflight++;
  }
  Status enqueued = batcher_->Enqueue(std::move(call));
  if (!enqueued.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    session->inflight--;
    return enqueued;
  }
  return futures;
}

void Serving::FinishCall(SessionId id, const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  Session& session = *it->second;
  if (!status.ok()) {
    Telem().call_errors->Increment();
    // First-wins, like the context's deferred async error.
    if (session.deferred_error.ok()) session.deferred_error = status;
  }
  if (session.inflight > 0) {
    session.inflight--;
    if (session.inflight == 0) drain_cv_.notify_all();
  }
}

void Serving::FailCall(PendingCall& call, const Status& status) {
  // Outputs resolved before the failure (earlier splits of the same call)
  // keep their values; the rest poison. Resolution is single-producer
  // (this batcher thread), so resolved() cannot race.
  for (const auto& handle : call.outputs) {
    if (!handle->resolved()) handle->SetError(status);
  }
  FinishCall(call.session_id, status);
}

void Serving::RunSingle(PendingCall& call) {
  auto result = RunConcrete(ctx_, call.concrete, call.args, call.rng_stream);
  profiler::RecordInstant(profiler::EventKind::kServing, Telem().unbatched_run,
                          1);
  Telem().unbatched_calls->Increment();
  Telem().batch_size->Record(1);
  Telem().queue_delay_us->Record((profiler::NowNs() - call.enqueue_ns) / 1000);
  if (!result.ok()) {
    FailCall(call, result.status());
    return;
  }
  std::vector<Tensor> outputs = std::move(result).value();
  const uint64_t ready_ns = ctx_->host_now_ns();
  for (size_t i = 0; i < call.outputs.size(); ++i) {
    Tensor value = outputs.at(i);
    if (Status st = Concretize(value); !st.ok()) {
      FailCall(call, st);
      return;
    }
    call.outputs[i]->SetTensor(std::move(value), ready_ns);
  }
  FinishCall(call.session_id, Status::OK());
}

void Serving::RunBatch(std::vector<PendingCall> batch) {
  // Per-call argument materialization: a poisoned future or invalid input
  // fails only its own session's futures; batch-mates proceed.
  std::vector<PendingCall> live;
  live.reserve(batch.size());
  for (PendingCall& call : batch) {
    Status status;
    for (Tensor& arg : call.args) {
      if (arg.is_resource()) continue;
      status = Concretize(arg);
      if (!status.ok()) break;
    }
    if (!status.ok()) {
      FailCall(call, status);
    } else {
      live.push_back(std::move(call));
    }
  }
  if (live.empty()) return;
  if (live.size() == 1 || !live[0].batchable) {
    for (PendingCall& call : live) RunSingle(call);
    return;
  }

  // --- Coalesced execution -------------------------------------------------
  const int k = static_cast<int>(live.size());
  const int64_t rows = live[0].rows;
  // Pad the call count to a power of two so the trace cache sees at most
  // log2(max_batch) batched shapes per group.
  const int bucket = NextPow2(k);
  PendingCall& lead = live[0];

  // Stack every tensor argument along the leading axis (row-major tensors:
  // one contiguous memcpy per member), zero-filling the padding rows.
  std::vector<Tensor> batched_args;
  batched_args.reserve(lead.args.size());
  for (size_t j = 0; j < lead.args.size(); ++j) {
    const Tensor& proto = lead.args[j];
    if (proto.is_resource()) {
      batched_args.push_back(proto);
      continue;
    }
    Shape shape = proto.shape();
    shape.set_dim(0, rows * bucket);
    Tensor stacked = Tensor::Empty(proto.dtype(), shape, ctx_->HostCpu());
    const size_t member_bytes =
        static_cast<size_t>(proto.num_elements()) * DTypeSize(proto.dtype());
    char* dst = static_cast<char*>(stacked.raw_mutable_data());
    for (int m = 0; m < k; ++m) {
      std::memcpy(dst + static_cast<size_t>(m) * member_bytes,
                  live[m].args[j].raw_data(), member_bytes);
    }
    std::memset(dst + static_cast<size_t>(k) * member_bytes, 0,
                static_cast<size_t>(bucket - k) * member_bytes);
    batched_args.push_back(std::move(stacked));
  }

  // Trace (or fetch) the batched-shape concrete function. Members share one
  // concrete trace and signature, so their workspaces agree on every name
  // the function resolves; the lead's scope stands in for all of them.
  StatusOr<std::shared_ptr<GraphFunction>> batched_or =
      [&]() -> StatusOr<std::shared_ptr<GraphFunction>> {
    try {
      WorkspaceScope scope(lead.workspace);
      return lead.fn->GetConcreteFunction(batched_args, lead.non_tensor_args);
    } catch (const RuntimeError& e) {
      return Status(e.code(), e.what());
    }
  }();
  if (!batched_or.ok()) {
    for (PendingCall& call : live) FailCall(call, batched_or.status());
    return;
  }
  std::shared_ptr<GraphFunction> batched = std::move(batched_or).value();

  // Batchability proof, part two (static, per group): the batched trace's
  // output shapes must be exactly the row-wise stack of the single-call
  // shapes. Anything else (an output mixing examples — x @ xᵀ, a cross-row
  // reduction that kept rank) disqualifies the group permanently and its
  // calls run unbatched, preserving bitwise-identical results.
  bool stackable = batched->num_outputs() == lead.concrete->num_outputs();
  for (int i = 0; stackable && i < batched->num_outputs(); ++i) {
    const TypeAndShape single = lead.concrete->output_type(i);
    const TypeAndShape whole = batched->output_type(i);
    stackable = whole.dtype == single.dtype &&
                whole.shape.IsFullyDefined() &&
                whole.shape.rank() == single.shape.rank() &&
                whole.shape.dim(0) == rows * bucket;
    for (int d = 1; stackable && d < single.shape.rank(); ++d) {
      stackable = whole.shape.dim(d) == single.shape.dim(d);
    }
  }
  if (!stackable) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      unbatchable_groups_.insert(lead.group_key);
    }
    for (PendingCall& call : live) RunSingle(call);
    return;
  }

  auto result = RunConcrete(ctx_, batched, batched_args, /*rng_stream=*/0);
  if (!result.ok()) {
    for (PendingCall& call : live) FailCall(call, result.status());
    return;
  }
  std::vector<Tensor> outputs = std::move(result).value();

  // Record the batch telemetry before resolving any future: a caller
  // unblocked by its outputs must already observe the batched_run evidence
  // (tests and the --serving gate read these right after Await).
  profiler::RecordInstant(profiler::EventKind::kServing, Telem().batched_run,
                          k, profiler::Intern(lead.fn->name()));
  Telem().batches->Increment();
  Telem().batched_calls->Increment(static_cast<uint64_t>(k));
  Telem().batch_size->Record(static_cast<uint64_t>(k));

  // Split each stacked output back into per-caller rows and resolve the
  // futures.
  const uint64_t ready_ns = ctx_->host_now_ns();
  const uint64_t now = profiler::NowNs();
  for (int m = 0; m < k; ++m) {
    PendingCall& call = live[m];
    Status status;
    for (size_t i = 0; i < call.outputs.size(); ++i) {
      Tensor whole = outputs.at(i);
      if (status = Concretize(whole); !status.ok()) break;
      const TypeAndShape single = call.concrete->output_type(i);
      Tensor piece =
          Tensor::Empty(single.dtype, single.shape, ctx_->HostCpu());
      const size_t member_bytes =
          static_cast<size_t>(single.shape.num_elements()) *
          DTypeSize(single.dtype);
      std::memcpy(piece.raw_mutable_data(),
                  static_cast<const char*>(whole.raw_data()) +
                      static_cast<size_t>(m) * member_bytes,
                  member_bytes);
      call.outputs[i]->SetTensor(std::move(piece), ready_ns);
    }
    if (!status.ok()) {
      FailCall(call, status);
      continue;
    }
    Telem().queue_delay_us->Record((now - call.enqueue_ns) / 1000);
    FinishCall(call.session_id, Status::OK());
  }
}

}  // namespace serving
}  // namespace tfe
