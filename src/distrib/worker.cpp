#include "distrib/worker.h"

#include "graph/serialization.h"
#include "profiler/profiler.h"
#include "support/strings.h"
#include "tensor/tensor_util.h"

namespace tfe {

WorkerServer::WorkerServer(const Options& options) : options_(options) {
  EagerContext::Options ctx_options;
  ctx_options.register_sim_gpu = options.with_sim_gpu;
  ctx_options.register_sim_tpu = false;
  ctx_options.random_seed = options.random_seed;
  ctx_options.executor_threads = 2;
  ctx_ = std::make_unique<EagerContext>(ctx_options);
  // Shipped graphs may carry node placements staged under this worker's full
  // remote name; resolve those as local devices.
  ctx_->devices().SetSelfIdentity(options_.job, options_.task);
  service_thread_ = std::thread([this] { ServiceLoop(); });
}

WorkerServer::~WorkerServer() {
  // Graceful teardown: the service thread drains everything already queued
  // (running each request with OK) before exiting, so work posted before
  // destruction still completes. Explicit Shutdown() is the failure path.
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  if (service_thread_.joinable()) service_thread_.join();
}

void WorkerServer::Shutdown() {
  std::deque<Request> abandoned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    // Swap the queue out so the service thread sees it empty and exits; the
    // in-flight request (if any) finishes normally.
    abandoned.swap(queue_);
  }
  wake_.notify_all();
  service_thread_.join();
  // Fail everything that never reached the service thread: the callers'
  // pending handles get poisoned with Unavailable.
  const Status status = ShutdownStatus();
  for (Request& request : abandoned) request(status);
}

Status WorkerServer::ShutdownStatus() const {
  return Unavailable(strings::StrCat("Worker /job:", options_.job,
                                     "/task:", options_.task, " shut down"));
}

std::vector<std::string> WorkerServer::DeviceNames() const {
  std::vector<std::string> names;
  for (Device* device : ctx_->devices().ListDevices()) {
    DeviceNameParts parts = device->name_parts();
    parts.job = options_.job;
    parts.task = options_.task;
    names.push_back(parts.ToString());
  }
  return names;
}

void WorkerServer::CallAsync(Request fn) {
  static profiler::Counter* rpc_async_calls =
      profiler::Metrics().GetCounter("rpc.async_calls");
  rpc_async_calls->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      queue_.push_back(std::move(fn));
      wake_.notify_one();
      return;
    }
  }
  fn(ShutdownStatus());
}

void WorkerServer::ServiceLoop() {
  while (true) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      static profiler::Counter* served =
          profiler::Metrics().GetCounter("rpc.requests_served");
      served->Increment();
      // Service-side span: the worker thread executing one request.
      profiler::Scope recv_span(profiler::EventKind::kRpcRecv,
                                "worker_request");
      request(Status::OK());
    }
  }
}

Status WorkerServer::LookUpInputs(const std::vector<int64_t>& input_ids,
                                  std::vector<Tensor>* inputs) {
  std::lock_guard<std::mutex> lock(store_mu_);
  for (int64_t id : input_ids) {
    auto it = store_.find(id);
    if (it == store_.end()) {
      return NotFound(strings::StrCat("No remote tensor #", id, " on ",
                                      options_.job, "/task:", options_.task));
    }
    inputs->push_back(it->second);
  }
  return Status::OK();
}

std::vector<RemoteOutputMeta> WorkerServer::StoreOutputs(
    std::vector<Tensor> outputs, const std::vector<int64_t>& output_ids) {
  std::vector<RemoteOutputMeta> metas;
  metas.reserve(outputs.size());
  std::lock_guard<std::mutex> lock(store_mu_);
  for (size_t i = 0; i < outputs.size(); ++i) {
    RemoteOutputMeta meta;
    meta.handle_id =
        output_ids.empty() ? next_handle_++ : output_ids[i];
    meta.dtype = outputs[i].dtype();
    meta.shape = outputs[i].shape();
    // insert_or_assign: re-running under a client-assigned id (retry)
    // replaces rather than leaks.
    store_.insert_or_assign(meta.handle_id, std::move(outputs[i]));
    metas.push_back(std::move(meta));
  }
  return metas;
}

StatusOr<std::vector<RemoteOutputMeta>> WorkerServer::ExecuteOp(
    const std::string& device, const std::string& op_name,
    const std::vector<int64_t>& input_ids, AttrMap attrs,
    const std::vector<int64_t>& output_ids) {
  auto bundle = attrs.find("serialized_function");
  if (bundle != attrs.end()) {
    if (bundle->second.Is<std::string>()) {
      // Bundles carry the whole transitive closure of graph functions
      // (nested Call / Cond / While callees included).
      TFE_ASSIGN_OR_RETURN(
          auto functions,
          DeserializeFunctionBundle(bundle->second.Get<std::string>()));
      for (const auto& fn : functions) {
        if (!ctx_->functions().Contains(fn->name())) {
          TFE_RETURN_IF_ERROR(ctx_->functions().Register(fn));
        }
      }
    }
    attrs.erase(bundle);
  }
  std::vector<Tensor> inputs;
  TFE_RETURN_IF_ERROR(LookUpInputs(input_ids, &inputs));
  TFE_ASSIGN_OR_RETURN(
      std::vector<Tensor> outputs,
      ctx_->RunPrimitive(op_name, std::move(inputs), attrs, device));
  if (!output_ids.empty() && output_ids.size() != outputs.size()) {
    return Internal(strings::StrCat(
        "Remote op ", op_name, " produced ", outputs.size(),
        " outputs but the client pre-assigned ", output_ids.size(),
        " handle ids"));
  }
  return StoreOutputs(std::move(outputs), output_ids);
}

void WorkerServer::RunOpAsync(const std::string& device,
                              const std::string& op_name,
                              std::vector<int64_t> input_ids, AttrMap attrs,
                              std::vector<int64_t> output_ids, DoneFn done) {
  CallAsync([this, device, op_name, input_ids = std::move(input_ids),
             attrs = std::move(attrs), output_ids = std::move(output_ids),
             done = std::move(done)](const Status& status) mutable {
    if (!status.ok()) {
      done(status);
      return;
    }
    done(ExecuteOp(device, op_name, input_ids, std::move(attrs), output_ids));
  });
}

void WorkerServer::PutAsync(Tensor tensor, int64_t dst_id) {
  // Direct store write (no queue trip): the client issues the put before the
  // op that consumes `dst_id`, and map insertion under store_mu_ is ordered
  // before that op's lookup regardless of which thread performs it.
  std::lock_guard<std::mutex> lock(store_mu_);
  store_.insert_or_assign(dst_id, std::move(tensor));
}

void WorkerServer::DeleteAsync(int64_t handle_id) {
  CallAsync([this, handle_id](const Status& status) {
    if (!status.ok()) return;  // shut down: the whole store dies with it
    std::lock_guard<std::mutex> lock(store_mu_);
    store_.erase(handle_id);
  });
}

StatusOr<Tensor> WorkerServer::Fetch(int64_t handle_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return ShutdownStatus();
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  auto it = store_.find(handle_id);
  if (it == store_.end()) {
    return NotFound("No remote tensor with that handle");
  }
  return tensor_util::DeepCopy(it->second);
}

}  // namespace tfe
