// Data-movement kernels: Reshape, Transpose, Concat, Slice, Pad, Tile,
// ExpandDims, Squeeze, Gather.
#include <cmath>
#include <cstring>

#include "kernels/kernel_util.h"

namespace tfe {
namespace kernels {
namespace {

// Reshape/ExpandDims/Squeeze share the input buffer — pure metadata ops.
Status ReinterpretShape(KernelContext* ctx, Shape out_shape) {
  const Tensor& x = ctx->input(0);
  if (out_shape.num_elements() != x.num_elements()) {
    return InvalidArgument("Reshape element count mismatch: " +
                           x.shape().ToString() + " -> " +
                           out_shape.ToString());
  }
  ctx->SetOutput(0, Tensor::Concrete(x.dtype(), std::move(out_shape),
                                     x.buffer(), ctx->device()));
  return Status::OK();
}

Status ReshapeKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(auto target,
                       ctx->GetAttr<std::vector<int64_t>>("shape"));
  int64_t known = 1;
  int infer_index = -1;
  for (size_t i = 0; i < target.size(); ++i) {
    if (target[i] == -1) {
      if (infer_index >= 0) {
        return InvalidArgument("Reshape allows at most one -1 dimension");
      }
      infer_index = static_cast<int>(i);
    } else {
      known *= target[i];
    }
  }
  if (infer_index >= 0) {
    if (known == 0 || x.num_elements() % known != 0) {
      return InvalidArgument("Cannot infer -1 dimension in Reshape");
    }
    target[infer_index] = x.num_elements() / known;
  }
  return ReinterpretShape(ctx, Shape(std::move(target)));
}

Status ExpandDimsKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(int64_t axis, ctx->GetAttr<int64_t>("axis"));
  if (axis < 0) axis += x.shape().rank() + 1;
  if (axis < 0 || axis > x.shape().rank()) {
    return InvalidArgument("ExpandDims axis out of range");
  }
  std::vector<int64_t> dims = x.shape().dims();
  dims.insert(dims.begin() + axis, 1);
  return ReinterpretShape(ctx, Shape(std::move(dims)));
}

Status SqueezeKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  std::vector<int64_t> axes = ctx->GetAttrOr<std::vector<int64_t>>("axis", {});
  std::vector<bool> drop(x.shape().rank(), false);
  if (axes.empty()) {
    for (int i = 0; i < x.shape().rank(); ++i) {
      drop[i] = x.shape().dims()[i] == 1;
    }
  } else {
    for (int64_t axis : axes) {
      if (axis < 0) axis += x.shape().rank();
      if (axis < 0 || axis >= x.shape().rank() || x.shape().dims()[axis] != 1) {
        return InvalidArgument("Squeeze axis invalid");
      }
      drop[axis] = true;
    }
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < x.shape().rank(); ++i) {
    if (!drop[i]) dims.push_back(x.shape().dims()[i]);
  }
  return ReinterpretShape(ctx, Shape(std::move(dims)));
}

Status TransposeKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(auto perm, ctx->GetAttr<std::vector<int64_t>>("perm"));
  const int rank = x.shape().rank();
  if (static_cast<int>(perm.size()) != rank) {
    return InvalidArgument("Transpose perm rank mismatch");
  }
  std::vector<bool> seen(rank, false);
  for (int64_t p : perm) {
    if (p < 0 || p >= rank || seen[p]) {
      return InvalidArgument("Transpose perm is not a permutation");
    }
    seen[p] = true;
  }
  std::vector<int64_t> out_dims(rank);
  for (int i = 0; i < rank; ++i) out_dims[i] = x.shape().dims()[perm[i]];
  Shape out_shape(out_dims);
  Tensor out = ctx->AllocateOutput(0, x.dtype(), out_shape);

  std::vector<int64_t> in_strides = ComputeStrides(x.shape());
  // Stride of the input dim that each output dim walks.
  std::vector<int64_t> walk(rank);
  for (int i = 0; i < rank; ++i) walk[i] = in_strides[perm[i]];

  const size_t elem = DTypeSize(x.dtype());
  const char* in = static_cast<const char*>(x.raw_data());
  char* result = static_cast<char*>(out.raw_mutable_data());
  std::vector<int64_t> coord(rank, 0);
  int64_t in_off = 0;
  const int64_t count = x.num_elements();
  for (int64_t i = 0; i < count; ++i) {
    std::memcpy(result + i * elem, in + in_off * elem, elem);
    for (int d = rank - 1; d >= 0; --d) {
      in_off += walk[d];
      if (++coord[d] < out_dims[d]) break;
      coord[d] = 0;
      in_off -= walk[d] * out_dims[d];
    }
  }
  return Status::OK();
}

Status ConcatKernel(KernelContext* ctx) {
  if (ctx->num_inputs() < 1) return InvalidArgument("Concat needs inputs");
  TFE_ASSIGN_OR_RETURN(int64_t axis, ctx->GetAttr<int64_t>("axis"));
  const Shape& first = ctx->input(0).shape();
  if (axis < 0) axis += first.rank();
  if (axis < 0 || axis >= first.rank()) {
    return InvalidArgument("Concat axis out of range");
  }
  int64_t axis_total = 0;
  for (int i = 0; i < ctx->num_inputs(); ++i) {
    const Shape& shape = ctx->input(i).shape();
    if (shape.rank() != first.rank() ||
        ctx->input(i).dtype() != ctx->input(0).dtype()) {
      return InvalidArgument("Concat rank or dtype mismatch");
    }
    for (int d = 0; d < first.rank(); ++d) {
      if (d != axis && shape.dims()[d] != first.dims()[d]) {
        return InvalidArgument("Concat non-axis dimension mismatch");
      }
    }
    axis_total += shape.dim(static_cast<int>(axis));
  }
  std::vector<int64_t> out_dims = first.dims();
  out_dims[axis] = axis_total;
  Shape out_shape(out_dims);
  Tensor out = ctx->AllocateOutput(0, ctx->input(0).dtype(), out_shape);

  // Treat tensors as [outer, axis*inner] row-major blocks.
  int64_t outer = 1;
  for (int64_t i = 0; i < axis; ++i) outer *= first.dims()[i];
  int64_t inner = 1;
  for (int i = static_cast<int>(axis) + 1; i < first.rank(); ++i) {
    inner *= first.dims()[i];
  }
  const size_t elem = DTypeSize(out.dtype());
  char* dst = static_cast<char*>(out.raw_mutable_data());
  const int64_t out_row_bytes = axis_total * inner * static_cast<int64_t>(elem);
  int64_t written = 0;
  for (int i = 0; i < ctx->num_inputs(); ++i) {
    const Tensor& t = ctx->input(i);
    const int64_t rows = t.shape().dim(static_cast<int>(axis)) * inner;
    const int64_t row_bytes = rows * static_cast<int64_t>(elem);
    const char* src = static_cast<const char*>(t.raw_data());
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(dst + o * out_row_bytes + written, src + o * row_bytes,
                  row_bytes);
    }
    written += row_bytes;
  }
  return Status::OK();
}

Status SliceKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(auto begin, ctx->GetAttr<std::vector<int64_t>>("begin"));
  TFE_ASSIGN_OR_RETURN(auto size, ctx->GetAttr<std::vector<int64_t>>("size"));
  const int rank = x.shape().rank();
  if (static_cast<int>(begin.size()) != rank ||
      static_cast<int>(size.size()) != rank) {
    return InvalidArgument("Slice begin/size rank mismatch");
  }
  std::vector<int64_t> out_dims(rank);
  for (int i = 0; i < rank; ++i) {
    int64_t s = size[i] == -1 ? x.shape().dims()[i] - begin[i] : size[i];
    if (begin[i] < 0 || s < 0 || begin[i] + s > x.shape().dims()[i]) {
      return InvalidArgument("Slice out of bounds");
    }
    out_dims[i] = s;
  }
  Shape out_shape(out_dims);
  Tensor out = ctx->AllocateOutput(0, x.dtype(), out_shape);
  if (out_shape.num_elements() == 0) return Status::OK();

  std::vector<int64_t> in_strides = ComputeStrides(x.shape());
  const size_t elem = DTypeSize(x.dtype());
  const char* in = static_cast<const char*>(x.raw_data());
  char* result = static_cast<char*>(out.raw_mutable_data());
  std::vector<int64_t> coord(rank, 0);
  int64_t in_off = 0;
  for (int i = 0; i < rank; ++i) in_off += begin[i] * in_strides[i];
  const int64_t count = out_shape.num_elements();
  for (int64_t i = 0; i < count; ++i) {
    std::memcpy(result + i * elem, in + in_off * elem, elem);
    for (int d = rank - 1; d >= 0; --d) {
      in_off += in_strides[d];
      if (++coord[d] < out_dims[d]) break;
      coord[d] = 0;
      in_off -= in_strides[d] * out_dims[d];
    }
  }
  return Status::OK();
}

Status PadKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(auto paddings,
                       ctx->GetAttr<std::vector<int64_t>>("paddings"));
  const int rank = x.shape().rank();
  if (static_cast<int>(paddings.size()) != rank * 2) {
    return InvalidArgument("Pad paddings rank mismatch");
  }
  std::vector<int64_t> out_dims(rank);
  for (int i = 0; i < rank; ++i) {
    if (paddings[2 * i] < 0 || paddings[2 * i + 1] < 0) {
      return InvalidArgument("Pad amounts must be non-negative");
    }
    out_dims[i] = x.shape().dims()[i] + paddings[2 * i] + paddings[2 * i + 1];
  }
  Shape out_shape(out_dims);
  Tensor out = ctx->AllocateOutput(0, x.dtype(), out_shape);  // zeros

  if (x.num_elements() == 0) return Status::OK();
  std::vector<int64_t> out_strides = ComputeStrides(out_shape);
  const size_t elem = DTypeSize(x.dtype());
  const char* in = static_cast<const char*>(x.raw_data());
  char* result = static_cast<char*>(out.raw_mutable_data());
  std::vector<int64_t> coord(rank, 0);
  int64_t out_off = 0;
  for (int i = 0; i < rank; ++i) out_off += paddings[2 * i] * out_strides[i];
  const int64_t count = x.num_elements();
  for (int64_t i = 0; i < count; ++i) {
    std::memcpy(result + out_off * elem, in + i * elem, elem);
    for (int d = rank - 1; d >= 0; --d) {
      out_off += out_strides[d];
      if (++coord[d] < x.shape().dims()[d]) break;
      coord[d] = 0;
      out_off -= out_strides[d] * x.shape().dims()[d];
    }
  }
  return Status::OK();
}

Status TileKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(auto multiples,
                       ctx->GetAttr<std::vector<int64_t>>("multiples"));
  const int rank = x.shape().rank();
  if (static_cast<int>(multiples.size()) != rank) {
    return InvalidArgument("Tile multiples rank mismatch");
  }
  std::vector<int64_t> out_dims(rank);
  for (int i = 0; i < rank; ++i) {
    out_dims[i] = x.shape().dims()[i] * multiples[i];
  }
  Shape out_shape(out_dims);
  Tensor out = ctx->AllocateOutput(0, x.dtype(), out_shape);

  std::vector<int64_t> in_strides = ComputeStrides(x.shape());
  const size_t elem = DTypeSize(x.dtype());
  const char* in = static_cast<const char*>(x.raw_data());
  char* result = static_cast<char*>(out.raw_mutable_data());
  std::vector<int64_t> coord(rank, 0);
  const int64_t count = out_shape.num_elements();
  for (int64_t i = 0; i < count; ++i) {
    int64_t in_off = 0;
    for (int d = 0; d < rank; ++d) {
      in_off += (coord[d] % x.shape().dims()[d]) * in_strides[d];
    }
    std::memcpy(result + i * elem, in + in_off * elem, elem);
    for (int d = rank - 1; d >= 0; --d) {
      if (++coord[d] < out_dims[d]) break;
      coord[d] = 0;
    }
  }
  return Status::OK();
}

Status GatherKernel(KernelContext* ctx) {
  const Tensor& params = ctx->input(0);
  const Tensor& indices = ctx->input(1);
  if (params.shape().rank() < 1) {
    return InvalidArgument("Gather params must have rank >= 1");
  }
  if (!IsInteger(indices.dtype())) {
    return InvalidArgument("Gather indices must be integer");
  }
  std::vector<int64_t> out_dims = indices.shape().dims();
  for (int i = 1; i < params.shape().rank(); ++i) {
    out_dims.push_back(params.shape().dims()[i]);
  }
  Shape out_shape(out_dims);
  Tensor out = ctx->AllocateOutput(0, params.dtype(), out_shape);

  const int64_t slice_elems =
      params.num_elements() / params.shape().dim(0);
  const size_t slice_bytes = slice_elems * DTypeSize(params.dtype());
  const char* src = static_cast<const char*>(params.raw_data());
  char* dst = static_cast<char*>(out.raw_mutable_data());
  const int64_t n = indices.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    int64_t index = indices.dtype() == DType::kInt32
                        ? indices.data<int32_t>()[i]
                        : indices.data<int64_t>()[i];
    if (index < 0 || index >= params.shape().dim(0)) {
      return OutOfRange("Gather index out of range");
    }
    std::memcpy(dst + i * slice_bytes, src + index * slice_bytes, slice_bytes);
  }
  return Status::OK();
}

Status RangeKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(double start, ctx->GetAttr<double>("start"));
  TFE_ASSIGN_OR_RETURN(double limit, ctx->GetAttr<double>("limit"));
  double delta = ctx->GetAttrOr<double>("delta", 1.0);
  DType dtype = ctx->GetAttrOr<DType>("dtype", DType::kInt64);
  if (delta == 0.0) return InvalidArgument("Range delta must be nonzero");
  double span = (limit - start) / delta;
  int64_t count = span > 0 ? static_cast<int64_t>(std::ceil(span)) : 0;
  Tensor out = ctx->AllocateOutput(0, dtype, Shape({count}));
  TFE_SWITCH_NUMERIC(dtype, T, {
    T* data = out.mutable_data<T>();
    for (int64_t i = 0; i < count; ++i) {
      data[i] = static_cast<T>(start + delta * static_cast<double>(i));
    }
  });
  return Status::OK();
}

// data [n, ...], segment_ids [n] -> [num_segments, ...] row sums.
Status UnsortedSegmentSumKernel(KernelContext* ctx) {
  const Tensor& data = ctx->input(0);
  const Tensor& ids = ctx->input(1);
  TFE_ASSIGN_OR_RETURN(int64_t segments, ctx->GetAttr<int64_t>("num_segments"));
  if (data.shape().rank() < 1 || ids.shape().rank() != 1 ||
      ids.shape().dim(0) != data.shape().dim(0)) {
    return InvalidArgument("UnsortedSegmentSum expects data [n,...], ids [n]");
  }
  if (!IsInteger(ids.dtype())) {
    return InvalidArgument("UnsortedSegmentSum ids must be integer");
  }
  std::vector<int64_t> out_dims = {segments};
  for (int i = 1; i < data.shape().rank(); ++i) {
    out_dims.push_back(data.shape().dims()[i]);
  }
  Tensor out = ctx->AllocateOutput(0, data.dtype(), Shape(out_dims));
  const int64_t rows = data.shape().dim(0);
  const int64_t row_elems = rows > 0 ? data.num_elements() / rows : 0;
  TFE_SWITCH_NUMERIC(data.dtype(), T, {
    const T* in = data.data<T>();
    T* result = out.mutable_data<T>();
    for (int64_t r = 0; r < rows; ++r) {
      int64_t segment = ids.dtype() == DType::kInt32
                            ? ids.data<int32_t>()[r]
                            : ids.data<int64_t>()[r];
      if (segment < 0 || segment >= segments) continue;  // TF drops them
      const T* src = in + r * row_elems;
      T* dst = result + segment * row_elems;
      for (int64_t i = 0; i < row_elems; ++i) dst[i] += src[i];
    }
  });
  return Status::OK();
}

}  // namespace

void RegisterShapeKernels() {
  RegisterKernel("Reshape", ReshapeKernel);
  RegisterKernel("ExpandDims", ExpandDimsKernel);
  RegisterKernel("Squeeze", SqueezeKernel);
  RegisterKernel("Transpose", TransposeKernel);
  RegisterKernel("Concat", ConcatKernel);
  RegisterKernel("Slice", SliceKernel);
  RegisterKernel("Pad", PadKernel);
  RegisterKernel("Tile", TileKernel);
  RegisterKernel("Gather", GatherKernel);
  RegisterKernel("UnsortedSegmentSum", UnsortedSegmentSumKernel);
  RegisterKernel("Range", RangeKernel);
}

}  // namespace kernels
}  // namespace tfe
