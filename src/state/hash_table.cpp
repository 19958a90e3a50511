#include "state/hash_table.h"

#include <cstring>

#include "kernels/kernel_util.h"
#include "ops/op_registry.h"
#include "runtime/dispatch.h"
#include "tensor/tensor_util.h"

namespace tfe {

namespace {

size_t RowBytes(DType dtype, const Shape& value_shape) {
  return static_cast<size_t>(value_shape.num_elements()) * DTypeSize(dtype);
}

// Restore delivers keys and values as two separate tensors; the keys are
// stashed per-resource until the values arrive (restore follows tracking
// order, so "keys" lands before "values").
std::mutex g_pending_mu;
Tensor& PendingKeysFor(const void* resource) {
  static auto* pending = new std::map<const void*, Tensor>();
  std::lock_guard<std::mutex> lock(g_pending_mu);
  return (*pending)[resource];
}

}  // namespace

HashTableResource::HashTableResource(DType value_dtype, Shape value_shape)
    : value_dtype_(value_dtype), value_shape_(std::move(value_shape)) {
  TFE_CHECK(value_shape_.IsFullyDefined());
}

Status HashTableResource::Insert(const Tensor& keys, const Tensor& values) {
  if (keys.dtype() != DType::kInt64 || keys.shape().rank() != 1) {
    return InvalidArgument("Hash table keys must be int64 [n]");
  }
  const int64_t n = keys.shape().dim(0);
  std::vector<int64_t> expected_dims = {n};
  for (int64_t d : value_shape_.dims()) expected_dims.push_back(d);
  if (values.dtype() != value_dtype_ ||
      values.shape() != Shape(expected_dims)) {
    return InvalidArgument("Hash table values must be [n, value_shape...]");
  }
  const size_t row_bytes = RowBytes(value_dtype_, value_shape_);
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t i = 0; i < n; ++i) {
    Tensor row = Tensor::Empty(value_dtype_, value_shape_, values.device());
    std::memcpy(row.raw_mutable_data(),
                static_cast<const char*>(values.raw_data()) + i * row_bytes,
                row_bytes);
    table_[keys.data<int64_t>()[i]] = std::move(row);
  }
  return Status::OK();
}

StatusOr<Tensor> HashTableResource::Lookup(const Tensor& keys,
                                           const Tensor& default_value) {
  if (keys.dtype() != DType::kInt64 || keys.shape().rank() != 1) {
    return InvalidArgument("Hash table keys must be int64 [n]");
  }
  if (default_value.dtype() != value_dtype_ ||
      default_value.shape() != value_shape_) {
    return InvalidArgument("Hash table default value shape mismatch");
  }
  const int64_t n = keys.shape().dim(0);
  std::vector<int64_t> out_dims = {n};
  for (int64_t d : value_shape_.dims()) out_dims.push_back(d);
  Tensor out = Tensor::Empty(value_dtype_, Shape(out_dims), keys.device());
  const size_t row_bytes = RowBytes(value_dtype_, value_shape_);
  std::lock_guard<std::mutex> lock(mu_);
  for (int64_t i = 0; i < n; ++i) {
    auto it = table_.find(keys.data<int64_t>()[i]);
    const void* src =
        it != table_.end() ? it->second.raw_data() : default_value.raw_data();
    std::memcpy(static_cast<char*>(out.raw_mutable_data()) + i * row_bytes,
                src, row_bytes);
  }
  return out;
}

int64_t HashTableResource::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(table_.size());
}

std::pair<Tensor, Tensor> HashTableResource::Export() const {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t n = static_cast<int64_t>(table_.size());
  Tensor keys = Tensor::Empty(DType::kInt64, Shape({n}), nullptr);
  std::vector<int64_t> value_dims = {n};
  for (int64_t d : value_shape_.dims()) value_dims.push_back(d);
  Tensor values = Tensor::Empty(value_dtype_, Shape(value_dims), nullptr);
  const size_t row_bytes = RowBytes(value_dtype_, value_shape_);
  int64_t i = 0;
  for (const auto& [key, row] : table_) {
    keys.mutable_data<int64_t>()[i] = key;
    std::memcpy(static_cast<char*>(values.raw_mutable_data()) + i * row_bytes,
                row.raw_data(), row_bytes);
    ++i;
  }
  return {std::move(keys), std::move(values)};
}

Status HashTableResource::Import(const Tensor& keys, const Tensor& values) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    table_.clear();
  }
  return Insert(keys, values);
}

HashTable::HashTable(DType value_dtype, const Shape& value_shape) {
  resource_ = std::make_shared<HashTableResource>(value_dtype, value_shape);
  handle_ = Tensor::MakeResource(resource_, nullptr);
  // Contents checkpoint through the generic tracked-state mechanism.
  auto resource = resource_;
  TrackState("keys",
             {[resource]() -> StatusOr<Tensor> {
                return resource->Export().first;
              },
              [resource](const Tensor& keys) -> Status {
                PendingKeysFor(resource.get()) = keys;
                return Status::OK();
              }});
  TrackState("values",
             {[resource]() -> StatusOr<Tensor> {
                return resource->Export().second;
              },
              [resource](const Tensor& values) -> Status {
                Tensor keys = PendingKeysFor(resource.get());
                if (!keys.defined()) {
                  return Internal("Hash table values restored before keys");
                }
                Status status = resource->Import(keys, values);
                PendingKeysFor(resource.get()) = Tensor();
                return status;
              }});
}

void HashTable::insert(const Tensor& keys, const Tensor& values) const {
  TFE_CHECK(defined());
  Dispatch({.op_name = "HashTableInsert", .inputs = {handle_, keys, values}})
      .status()
      .ThrowIfError();
}

Tensor HashTable::lookup(const Tensor& keys,
                         const Tensor& default_value) const {
  TFE_CHECK(defined());
  AttrMap attrs;
  attrs["dtype"] = AttrValue(resource_->value_dtype());
  // Output shape: [n, value_shape...]; n comes from the keys at run time,
  // so inference uses the keys' (possibly partial) dim.
  auto result =
      DispatchSingle({.op_name = "HashTableLookup",
                      .inputs = {handle_, keys, default_value},
                      .attrs = std::move(attrs)});
  result.status().ThrowIfError();
  return std::move(result).value();
}

Tensor HashTable::size() const {
  TFE_CHECK(defined());
  auto result = DispatchSingle({.op_name = "HashTableSize",
                                .inputs = {handle_}});
  result.status().ThrowIfError();
  return std::move(result).value();
}

namespace {

StatusOr<HashTableResource*> GetTable(const Tensor& handle) {
  if (!handle.defined() || !handle.is_resource()) {
    return InvalidArgument("Expected a hash-table resource");
  }
  auto* table = dynamic_cast<HashTableResource*>(handle.resource().get());
  if (table == nullptr) return InvalidArgument("Resource is not a hash table");
  return table;
}

Status HashTableInsertKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(HashTableResource * table, GetTable(ctx->input(0)));
  return table->Insert(ctx->input(1), ctx->input(2));
}

Status HashTableLookupKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(HashTableResource * table, GetTable(ctx->input(0)));
  TFE_ASSIGN_OR_RETURN(Tensor out,
                       table->Lookup(ctx->input(1), ctx->input(2)));
  ctx->SetOutput(0, std::move(out));
  return Status::OK();
}

Status HashTableSizeKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(HashTableResource * table, GetTable(ctx->input(0)));
  ctx->SetOutput(0, tensor_util::Scalar<int64_t>(table->size()));
  return Status::OK();
}

}  // namespace

void RegisterHashTableOps() {
  {
    OpDef def;
    def.name = "HashTableInsert";
    def.num_inputs = 3;
    def.is_stateful = true;
    def.differentiable = false;
    def.always_executes = true;
    def.shape_fn = [](InferenceContext*) { return Status::OK(); };
    TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  }
  {
    OpDef def;
    def.name = "HashTableLookup";
    def.num_inputs = 3;  // handle, keys, default
    def.is_stateful = true;
    def.differentiable = false;
    def.always_executes = true;
    def.shape_fn = [](InferenceContext* ctx) {
      TFE_ASSIGN_OR_RETURN(DType dtype, ctx->GetAttr<DType>("dtype"));
      std::vector<int64_t> dims = {ctx->input_shape(1).rank() == 1
                                       ? ctx->input_shape(1).dims()[0]
                                       : kUnknownDim};
      for (int64_t d : ctx->input_shape(2).dims()) dims.push_back(d);
      ctx->AddOutput(dtype, Shape(std::move(dims)));
      return Status::OK();
    };
    TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  }
  {
    OpDef def;
    def.name = "HashTableSize";
    def.num_inputs = 1;
    def.is_stateful = true;
    def.differentiable = false;
    def.always_executes = true;
    def.shape_fn = [](InferenceContext* ctx) {
      ctx->AddOutput(DType::kInt64, Shape());
      return Status::OK();
    };
    TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  }
  kernels::RegisterKernel("HashTableInsert", HashTableInsertKernel);
  kernels::RegisterKernel("HashTableLookup", HashTableLookupKernel);
  kernels::RegisterKernel("HashTableSize", HashTableSizeKernel);
}

}  // namespace tfe
