#include "distrib/remote_backend.h"

#include <utility>

#include "tensor/tensor_util.h"

namespace tfe {

class WorkerBackend::Pin {
 public:
  explicit Pin(WorkerBackend* backend) : backend_(backend) {
    std::lock_guard<std::mutex> lock(backend_->mu_);
    ++backend_->pins_;
    worker_ = backend_->worker_;
  }
  ~Pin() {
    std::lock_guard<std::mutex> lock(backend_->mu_);
    if (--backend_->pins_ == 0) backend_->unpinned_cv_.notify_all();
  }
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

  WorkerServer* worker() const { return worker_; }

 private:
  WorkerBackend* const backend_;
  WorkerServer* worker_ = nullptr;
};

WorkerBackend::WorkerBackend(std::string target, WorkerServer* worker)
    : target_(std::move(target)), worker_(worker) {}

void WorkerBackend::Disconnect() {
  std::unique_lock<std::mutex> lock(mu_);
  worker_ = nullptr;
  unpinned_cv_.wait(lock, [this] { return pins_ == 0; });
}

Status WorkerBackend::Disconnected() const {
  return Unavailable("Disconnected from " + target_);
}

int64_t WorkerBackend::AllocateHandleId() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

Status WorkerBackend::Put(const Tensor& value, int64_t dst_id) {
  if (!value.defined() || value.is_symbolic() || value.is_resource()) {
    return InvalidArgument("Only concrete value tensors can be shipped");
  }
  Pin pin(this);
  if (pin.worker() == nullptr) return Disconnected();
  // Deep copy: the wire transfer that gRPC would perform.
  pin.worker()->PutAsync(tensor_util::DeepCopy(value), dst_id);
  return Status::OK();
}

void WorkerBackend::RunOpAsync(const std::string& device,
                               const std::string& op,
                               std::vector<int64_t> input_ids, AttrMap attrs,
                               std::vector<int64_t> output_ids, DoneFn done) {
  Pin pin(this);
  if (pin.worker() == nullptr) {
    done(Disconnected());
    return;
  }
  pin.worker()->RunOpAsync(device, op, std::move(input_ids), std::move(attrs),
                           std::move(output_ids), std::move(done));
}

bool WorkerBackend::FunctionShipped(const std::string& name) {
  std::lock_guard<std::mutex> lock(shipped_mu_);
  return shipped_functions_.count(name) != 0;
}

void WorkerBackend::MarkFunctionShipped(const std::string& name) {
  std::lock_guard<std::mutex> lock(shipped_mu_);
  shipped_functions_.insert(name);
}

StatusOr<Tensor> WorkerBackend::Fetch(int64_t handle_id) {
  Pin pin(this);
  if (pin.worker() == nullptr) return Disconnected();
  TFE_ASSIGN_OR_RETURN(Tensor fetched, pin.worker()->Fetch(handle_id));
  // The worker tagged the copy with its own context's device pointers; the
  // bytes are plain host memory on this side of the wire.
  if (fetched.device() != nullptr) {
    return Tensor::Concrete(fetched.dtype(), fetched.shape(), fetched.buffer(),
                            /*device=*/nullptr);
  }
  return fetched;
}

void WorkerBackend::DeleteAsync(int64_t handle_id) {
  Pin pin(this);
  if (pin.worker() == nullptr) return;
  pin.worker()->DeleteAsync(handle_id);
}

}  // namespace tfe
