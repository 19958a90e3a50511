#include "device/remote_device.h"

#include <utility>

#include "support/logging.h"
#include "support/strings.h"
#include "tensor/tensor_handle.h"

namespace tfe {
namespace {

std::string LocalDevicePart(DeviceNameParts parts) {
  // The name the owning worker's DeviceManager resolves: same kind/index,
  // local job/task.
  parts.job = "localhost";
  parts.task = 0;
  return parts.ToString();
}

}  // namespace

RemoteDevice::RemoteDevice(DeviceNameParts name,
                           std::shared_ptr<RemoteBackend> backend)
    // executes_kernels=false: ExecuteKernel must never run here — remote ops
    // are forwarded whole. synchronous=false: like a GPU stream, dispatch
    // only charges an enqueue; completion lands via the worker callback.
    : Device(name, DeviceCostParams{}, /*executes_kernels=*/false,
             /*synchronous=*/false),
      backend_(std::move(backend)),
      local_part_(LocalDevicePart(name)) {
  TFE_CHECK(backend_ != nullptr);
}

Status RemoteDevice::AssembleInputs(const std::string& op_name,
                                    const std::vector<Tensor>& inputs,
                                    std::vector<int64_t>* input_ids,
                                    std::vector<int64_t>* temp_ids) const {
  const size_t first_temp = temp_ids->size();
  auto fail = [&](Status status) {
    for (size_t i = first_temp; i < temp_ids->size(); ++i) {
      backend_->DeleteAsync((*temp_ids)[i]);
    }
    temp_ids->resize(first_temp);
    return status;
  };
  input_ids->reserve(input_ids->size() + inputs.size());
  for (const Tensor& input : inputs) {
    const auto& handle = input.pending_handle();
    const TensorHandle::RemoteInfo* rinfo =
        handle != nullptr ? handle->remote_info() : nullptr;
    if (rinfo != nullptr) {
      // Deferred error propagation: a poisoned remote producer poisons this
      // op with the *original* status.
      Status status = handle->status();
      if (!status.ok()) return fail(std::move(status));
      if (static_cast<const RemoteDevice*>(rinfo->device)->backend() !=
          backend_.get()) {
        return fail(InvalidArgument(strings::StrCat(
            "Remote op ", op_name, " on ", this->name(),
            " takes an input living on ", rinfo->device->name(),
            ", a different worker; ",
            "tensors do not implicitly hop between workers — move it "
            "explicitly with tfe::copy_to")));
      }
      input_ids->push_back(rinfo->handle_id);
      continue;
    }
    Tensor value = input;
    if (handle != nullptr) {
      Status status = handle->WaitReady();
      if (!status.ok()) return fail(std::move(status));
      value = handle->tensor();
    }
    if (!value.defined() || value.is_symbolic() || value.is_resource() ||
        value.is_opaque()) {
      return fail(InvalidArgument(strings::StrCat(
          "Remote op ", op_name, " on ", this->name(),
          " takes an input that is not a concrete value tensor")));
    }
    const int64_t id = backend_->AllocateHandleId();
    Status status = backend_->Put(value, id);
    if (!status.ok()) return fail(std::move(status));
    input_ids->push_back(id);
    temp_ids->push_back(id);
  }
  return Status::OK();
}

}  // namespace tfe
