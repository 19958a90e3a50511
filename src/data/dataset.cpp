#include "data/dataset.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "kernels/kernel_util.h"
#include "ops/op_registry.h"
#include "runtime/dispatch.h"
#include "support/random.h"
#include "support/strings.h"
#include "tensor/tensor_util.h"

namespace tfe {
namespace data {

Dataset Dataset::FromTensors(std::vector<Tensor> components) {
  TFE_CHECK(!components.empty());
  int64_t rows = -1;
  for (const Tensor& component : components) {
    TFE_CHECK(component.defined() && !component.is_symbolic() &&
              !component.is_resource())
        << "Dataset components must be concrete tensors";
    TFE_CHECK_GE(component.shape().rank(), 1);
    if (rows < 0) rows = component.shape().dim(0);
    TFE_CHECK_EQ(component.shape().dim(0), rows)
        << "Dataset components must share dimension 0";
  }
  Dataset dataset;
  dataset.components_ = std::move(components);
  return dataset;
}

Dataset Dataset::Shuffle(uint64_t seed) const {
  Dataset dataset = *this;
  dataset.shuffle_ = true;
  dataset.shuffle_seed_ = seed;
  return dataset;
}

Dataset Dataset::Batch(int64_t batch_size) const {
  TFE_CHECK_GE(batch_size, 1);
  Dataset dataset = *this;
  dataset.batch_size_ = batch_size;
  return dataset;
}

Dataset Dataset::Repeat(int64_t count) const {
  TFE_CHECK(count == -1 || count >= 1);
  Dataset dataset = *this;
  dataset.repeat_count_ = count;
  return dataset;
}

int64_t Dataset::num_rows() const { return components_[0].shape().dim(0); }

int64_t Dataset::cardinality() const { return num_rows() / batch_size_; }

DType Dataset::component_dtype(int i) const {
  return components_.at(i).dtype();
}

Shape Dataset::element_shape(int i) const {
  std::vector<int64_t> dims = components_.at(i).shape().dims();
  dims[0] = batch_size_;
  return Shape(std::move(dims));
}

IteratorResource::IteratorResource(Dataset dataset, Variable position)
    : dataset_(std::move(dataset)), position_(std::move(position)) {}

StatusOr<std::vector<Tensor>> IteratorResource::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  Tensor state = position_.storage()->value();
  int64_t epoch = state.data<int64_t>()[0];
  int64_t offset = state.data<int64_t>()[1];

  const int64_t batches_per_epoch = dataset_.cardinality();
  if (batches_per_epoch == 0) return OutOfRange("Dataset is empty");
  if (offset >= batches_per_epoch) {
    ++epoch;
    offset = 0;
  }
  if (dataset_.repeat_count() != -1 && epoch >= dataset_.repeat_count()) {
    return OutOfRange("End of dataset");
  }

  // The epoch's row order: identity, or the deterministic philox
  // permutation for (seed, epoch) — a restored position replays exactly.
  const int64_t rows = dataset_.num_rows();
  std::vector<int64_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  if (dataset_.shuffled()) {
    random::Philox gen(dataset_.shuffle_seed(),
                       static_cast<uint64_t>(epoch) + 1);
    for (int64_t i = rows - 1; i > 0; --i) {
      int64_t j = static_cast<int64_t>(gen.NextUint64() %
                                       static_cast<uint64_t>(i + 1));
      std::swap(order[i], order[j]);
    }
  }

  const int64_t batch = dataset_.batch_size();
  const int64_t begin = offset * batch;
  std::vector<Tensor> element;
  element.reserve(dataset_.num_components());
  for (int c = 0; c < dataset_.num_components(); ++c) {
    const Tensor& source = dataset_.components()[c];
    Tensor out = Tensor::Empty(source.dtype(), dataset_.element_shape(c),
                               source.device());
    const size_t row_bytes = static_cast<size_t>(source.num_elements() /
                                                 source.shape().dim(0)) *
                             DTypeSize(source.dtype());
    const char* src = static_cast<const char*>(source.raw_data());
    char* dst = static_cast<char*>(out.raw_mutable_data());
    for (int64_t b = 0; b < batch; ++b) {
      std::memcpy(dst + b * row_bytes, src + order[begin + b] * row_bytes,
                  row_bytes);
    }
    element.push_back(std::move(out));
  }

  Tensor next_state = tensor_util::FromVector<int64_t>({epoch, offset + 1},
                                                       Shape({2}));
  TFE_RETURN_IF_ERROR(position_.storage()->Assign(std::move(next_state)));
  return element;
}

Iterator::Iterator(const Dataset& dataset) {
  Variable position(tensor_util::FromVector<int64_t>({0, 0}, Shape({2})),
                    "iterator_position");
  resource_ = std::make_shared<IteratorResource>(dataset, position);
  handle_ = Tensor::MakeResource(resource_, nullptr);
  TrackVariable("position", position);
}

StatusOr<std::vector<Tensor>> Iterator::TryNext() const {
  TFE_CHECK(defined());
  AttrMap attrs;
  attrs["num_outputs"] = AttrValue(
      static_cast<int64_t>(resource_->dataset().num_components()));
  for (int i = 0; i < resource_->dataset().num_components(); ++i) {
    attrs[strings::StrCat("out_dtype_", i)] =
        AttrValue(resource_->dataset().component_dtype(i));
    attrs[strings::StrCat("out_shape_", i)] =
        AttrValue(resource_->dataset().element_shape(i));
  }
  return Dispatch({.op_name = "IteratorNext", .inputs = {handle_},
                   .attrs = std::move(attrs)});
}

std::vector<Tensor> Iterator::Next() const {
  auto result = TryNext();
  result.status().ThrowIfError();
  return std::move(result).value();
}

namespace {

Status IteratorNextKernel(KernelContext* ctx) {
  const Tensor& handle = ctx->input(0);
  if (!handle.is_resource()) {
    return InvalidArgument("IteratorNext expects an iterator resource");
  }
  auto* iterator = dynamic_cast<IteratorResource*>(handle.resource().get());
  if (iterator == nullptr) {
    return InvalidArgument("Resource is not an iterator");
  }
  TFE_ASSIGN_OR_RETURN(std::vector<Tensor> element, iterator->Next());
  for (size_t i = 0; i < element.size(); ++i) {
    ctx->SetOutput(static_cast<int>(i), std::move(element[i]));
  }
  return Status::OK();
}

}  // namespace

void RegisterDataOps() {
  OpDef def;
  def.name = "IteratorNext";
  def.num_inputs = 1;
  def.is_stateful = true;
  def.differentiable = false;
  def.always_executes = true;
  def.shape_fn = [](InferenceContext* ctx) {
    int64_t count = ctx->GetAttrOr<int64_t>("num_outputs", 0);
    for (int64_t i = 0; i < count; ++i) {
      TFE_ASSIGN_OR_RETURN(
          DType dtype,
          ctx->GetAttr<DType>(strings::StrCat("out_dtype_", i)));
      TFE_ASSIGN_OR_RETURN(
          Shape shape, ctx->GetAttr<Shape>(strings::StrCat("out_shape_", i)));
      ctx->AddOutput(dtype, std::move(shape));
    }
    return Status::OK();
  };
  TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  kernels::RegisterKernel("IteratorNext", IteratorNextKernel);
}

}  // namespace data
}  // namespace tfe
