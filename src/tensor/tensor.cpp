#include "tensor/tensor.h"

#include <atomic>

#include "device/device.h"
#include "support/strings.h"
#include "tensor/allocator.h"
#include "tensor/tensor_handle.h"

namespace tfe {

namespace {
std::atomic<int64_t> g_next_tensor_id{1};
std::atomic<int64_t> g_next_resource_id{1};
}  // namespace

ResourceBase::ResourceBase()
    : resource_id_(g_next_resource_id.fetch_add(1, std::memory_order_relaxed)) {}

struct Tensor::State {
  int64_t id = 0;
  DType dtype = DType::kInvalid;
  Shape shape;
  Device* device = nullptr;

  // Concrete storage (null for symbolic tensors).
  std::shared_ptr<Buffer> buffer;
  std::shared_ptr<ResourceBase> resource;

  // Symbolic reference: output `output_index` of node `node_id` in `graph`.
  Graph* graph = nullptr;
  int node_id = -1;
  int output_index = -1;

  // Timing-only placeholder (simulated device, kernels not executed).
  bool opaque = false;

  // Async-dispatch future; when set, value accessors block on it.
  std::shared_ptr<TensorHandle> handle;
};

namespace {
std::shared_ptr<Tensor::State> NewState() {
  auto state = std::make_shared<Tensor::State>();
  state->id = g_next_tensor_id.fetch_add(1, std::memory_order_relaxed);
  return state;
}
}  // namespace

Tensor Tensor::Concrete(DType dtype, Shape shape,
                        std::shared_ptr<Buffer> buffer, Device* device) {
  TFE_CHECK(shape.IsFullyDefined())
      << "Concrete tensor requires a fully-defined shape, got "
      << shape.ToString();
  auto state = NewState();
  state->dtype = dtype;
  state->shape = std::move(shape);
  state->buffer = std::move(buffer);
  state->device = device;
  TFE_CHECK(state->buffer != nullptr);
  TFE_CHECK_NE(dtype, DType::kResource);
  TFE_CHECK_GE(static_cast<int64_t>(state->buffer->bytes()),
               state->shape.num_elements() *
                   static_cast<int64_t>(DTypeSize(dtype)));
  return Tensor(std::move(state));
}

Tensor Tensor::Empty(DType dtype, const Shape& shape, Device* device) {
  // Storage comes from the owning device's allocator so per-device arenas
  // account (and recycle) their own traffic; device-less tensors use the
  // process-wide default.
  auto buffer = Buffer::Allocate(
      static_cast<size_t>(shape.num_elements()) * DTypeSize(dtype),
      device != nullptr ? device->allocator_shared() : ProcessAllocator());
  return Concrete(dtype, shape, std::move(buffer), device);
}

Tensor Tensor::MakeResource(std::shared_ptr<ResourceBase> resource,
                            Device* device) {
  auto state = NewState();
  state->dtype = DType::kResource;
  state->shape = Shape();
  state->resource = std::move(resource);
  state->device = device;
  TFE_CHECK(state->resource != nullptr);
  return Tensor(std::move(state));
}

Tensor Tensor::Symbolic(DType dtype, Shape shape, Graph* graph, int node_id,
                        int output_index) {
  auto state = NewState();
  state->dtype = dtype;
  state->shape = std::move(shape);
  state->graph = graph;
  state->node_id = node_id;
  state->output_index = output_index;
  return Tensor(std::move(state));
}

Tensor Tensor::Opaque(DType dtype, Shape shape, Device* device) {
  TFE_CHECK(shape.IsFullyDefined());
  // Opaque values have no storage, so every placeholder shares one empty
  // buffer (leaked: placeholders may outlive every context). Nothing reads
  // or donates an opaque tensor's buffer, so sharing it is invisible.
  static const auto* empty = new std::shared_ptr<Buffer>(Buffer::Allocate(0));
  auto state = NewState();
  state->dtype = dtype;
  state->shape = std::move(shape);
  state->buffer = *empty;
  state->device = device;
  state->opaque = true;
  return Tensor(std::move(state));
}

Tensor Tensor::FromHandle(std::shared_ptr<TensorHandle> handle) {
  TFE_CHECK(handle != nullptr);
  auto state = NewState();
  // Metadata is known up front (shape inference); only the value is deferred.
  state->dtype = handle->dtype();
  state->shape = handle->shape();
  state->device = handle->device();
  state->handle = std::move(handle);
  return Tensor(std::move(state));
}

bool Tensor::has_handle() const { return defined() && state_->handle != nullptr; }

const std::shared_ptr<TensorHandle>& Tensor::pending_handle() const {
  static const std::shared_ptr<TensorHandle> kNull;
  return defined() && state_->handle != nullptr ? state_->handle : kNull;
}

Status Tensor::Materialize() const {
  if (!defined() || state_->handle == nullptr) return Status::OK();
  return state_->handle->WaitReady();
}

const Tensor& Tensor::ResolvedValue() const {
  Status status = state_->handle->WaitReady();
  TFE_CHECK(status.ok()) << "Reading a poisoned async tensor: "
                         << status.ToString();
  return state_->handle->tensor();
}

bool Tensor::is_opaque() const {
  if (!defined()) return false;
  if (state_->handle != nullptr) {
    const auto& handle = state_->handle;
    // Remote-backed handles resolve to opaque placeholders, but their values
    // are readable: the first read fetches from the worker store
    // (copy-on-read). Don't peek at the placeholder either — tensor() before
    // the fetch completes would race with the placeholder swap.
    if (handle->remote_info() != nullptr) return false;
    return handle->resolved() && handle->status().ok() &&
           handle->tensor().is_opaque();
  }
  return state_->opaque;
}

bool Tensor::is_symbolic() const {
  return defined() && state_->graph != nullptr;
}

bool Tensor::is_resource() const {
  return defined() && state_->dtype == DType::kResource;
}

int64_t Tensor::id() const {
  TFE_CHECK(defined());
  return state_->id;
}

DType Tensor::dtype() const {
  TFE_CHECK(defined());
  return state_->dtype;
}

const Shape& Tensor::shape() const {
  TFE_CHECK(defined());
  return state_->shape;
}

Device* Tensor::device() const {
  TFE_CHECK(defined());
  return state_->device;
}

const std::shared_ptr<Buffer>& Tensor::buffer() const {
  TFE_CHECK(defined());
  if (state_->handle != nullptr) return ResolvedValue().buffer();
  TFE_CHECK(!is_symbolic()) << "buffer() on symbolic tensor";
  TFE_CHECK(state_->buffer != nullptr) << "buffer() on resource tensor";
  return state_->buffer;
}

const void* Tensor::raw_data() const {
  TFE_CHECK(defined());
  if (state_->handle != nullptr) return ResolvedValue().raw_data();
  TFE_CHECK(!is_opaque())
      << "Reading values of an opaque (timing-only simulation) tensor";
  return buffer()->data();
}

void* Tensor::raw_mutable_data() {
  TFE_CHECK(defined());
  if (state_->handle != nullptr) {
    return const_cast<Tensor&>(ResolvedValue()).raw_mutable_data();
  }
  TFE_CHECK(!is_opaque())
      << "Writing values of an opaque (timing-only simulation) tensor";
  return buffer()->data();
}

const std::shared_ptr<ResourceBase>& Tensor::resource() const {
  TFE_CHECK(defined());
  TFE_CHECK(is_resource()) << "resource() on non-resource tensor";
  return state_->resource;
}

Graph* Tensor::graph() const {
  TFE_CHECK(is_symbolic());
  return state_->graph;
}

int Tensor::node_id() const {
  TFE_CHECK(is_symbolic());
  return state_->node_id;
}

int Tensor::output_index() const {
  TFE_CHECK(is_symbolic());
  return state_->output_index;
}

std::string Tensor::DebugString() const {
  if (!defined()) return "Tensor(undefined)";
  if (state_->handle != nullptr && !state_->handle->resolved()) {
    return strings::StrCat("PendingTensor(dtype=", DTypeName(dtype()),
                           ", shape=", shape().ToString(), ")");
  }
  if (is_symbolic()) {
    return strings::StrCat("SymbolicTensor(dtype=", DTypeName(dtype()),
                           ", shape=", shape().ToString(), ", node=",
                           state_->node_id, ":", state_->output_index, ")");
  }
  if (is_resource()) {
    return strings::StrCat("ResourceTensor(", state_->resource->TypeName(),
                           " #", state_->resource->resource_id(), ")");
  }
  return strings::StrCat("Tensor(dtype=", DTypeName(dtype()),
                         ", shape=", shape().ToString(), ")");
}

}  // namespace tfe
