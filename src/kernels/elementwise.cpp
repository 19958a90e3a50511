// Elementwise kernels: broadcasting binary arithmetic, comparisons, unary
// math, Select, Cast, ZerosLike/OnesLike.
#include <cmath>
#include <cstring>

#include "kernels/elementwise_functors.h"
#include "kernels/fused_elementwise.h"
#include "kernels/kernel_util.h"
#include "ops/op_registry.h"
#include "support/logging.h"
#include "tensor/tensor_util.h"

namespace tfe {
namespace kernels {

std::vector<int64_t> ComputeStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.rank());
  int64_t stride = 1;
  for (int i = shape.rank() - 1; i >= 0; --i) {
    strides[i] = stride;
    stride *= shape.dims()[i];
  }
  return strides;
}

std::vector<int64_t> BroadcastStrides(const Shape& input,
                                      const Shape& output) {
  std::vector<int64_t> in_strides = ComputeStrides(input);
  std::vector<int64_t> strides(output.rank(), 0);
  for (int i = 0; i < input.rank(); ++i) {
    int out_dim = output.rank() - input.rank() + i;
    strides[out_dim] = input.dims()[i] == 1 && output.dims()[out_dim] != 1
                           ? 0
                           : in_strides[i];
  }
  return strides;
}

void RegisterKernel(const char* op_name, KernelFn fn) {
  Status status = OpRegistry::Global()->RegisterKernel(op_name, std::move(fn));
  TFE_CHECK(status.ok()) << status.ToString();
}

namespace {

// Below this many output elements the sharding overhead dominates and the
// loops stay serial (ParallelFor's min_per_shard).
constexpr int64_t kElementwiseGrain = 16 * 1024;

// Iterates the output index space, mapping each output coordinate to
// (possibly broadcast) input offsets. Shards across the intra-op pool; each
// shard writes a disjoint [begin, end) slice of `out`, so values are bitwise
// identical to the serial loop.
template <typename TIn, typename TOut, typename BinaryFn>
void BroadcastBinaryLoop(EagerContext* ectx, const TIn* a,
                         const std::vector<int64_t>& a_strides, const TIn* b,
                         const std::vector<int64_t>& b_strides, TOut* out,
                         const Shape& out_shape, BinaryFn fn) {
  const int rank = out_shape.rank();
  const int64_t count = out_shape.num_elements();
  if (rank == 0) {
    if (count == 1) out[0] = fn(a[0], b[0]);
    return;
  }
  ParallelFor(ectx, count, kElementwiseGrain, [&](int64_t begin, int64_t end) {
    // Seed the odometer at linear index `begin`.
    std::vector<int64_t> coord(rank, 0);
    int64_t a_off = 0;
    int64_t b_off = 0;
    int64_t rem = begin;
    for (int d = rank - 1; d >= 0; --d) {
      coord[d] = rem % out_shape.dims()[d];
      rem /= out_shape.dims()[d];
      a_off += coord[d] * a_strides[d];
      b_off += coord[d] * b_strides[d];
    }
    for (int64_t i = begin; i < end; ++i) {
      out[i] = fn(a[a_off], b[b_off]);
      // Odometer increment with running offsets.
      for (int d = rank - 1; d >= 0; --d) {
        a_off += a_strides[d];
        b_off += b_strides[d];
        if (++coord[d] < out_shape.dims()[d]) break;
        coord[d] = 0;
        a_off -= a_strides[d] * out_shape.dims()[d];
        b_off -= b_strides[d] * out_shape.dims()[d];
      }
    }
  });
}

// Output buffer for a binary elementwise kernel: in place over the operand
// the drain proved exclusively owned (op-at-a-time donation; see
// KernelContext::donor). Only an exact-shape donor qualifies — a
// broadcasting operand's buffer is smaller than the output, and an
// exact-shape donor's element i is read immediately before element i is
// written, so aliasing is safe (the non-donor operand cannot share the
// donor's buffer: a shared buffer fails the drain's use-count proof).
Tensor BinaryOutput(KernelContext* ctx, const Tensor& a, const Tensor& b,
                    DType out_dtype, const Shape& out_shape) {
  if (ctx->donor() == 0 || ctx->donor() == 1) {
    const Tensor& donor = ctx->donor() == 0 ? a : b;
    if (donor.defined() && !donor.is_opaque() && !donor.is_resource() &&
        donor.dtype() == out_dtype && donor.shape() == out_shape) {
      return DonateOutput(ctx, 0, out_dtype, out_shape, donor);
    }
  }
  return ctx->AllocateOutput(0, out_dtype, out_shape);
}

// F exposes `template <typename T> static T Apply(T, T)`.
template <typename F>
Status BinaryKernel(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  const Tensor& b = ctx->input(1);
  if (a.dtype() != b.dtype()) {
    return InvalidArgument("Binary op dtype mismatch: " +
                           std::string(DTypeName(a.dtype())) + " vs " +
                           DTypeName(b.dtype()));
  }
  TFE_ASSIGN_OR_RETURN(Shape out_shape, BroadcastShapes(a.shape(), b.shape()));
  Tensor out = BinaryOutput(ctx, a, b, a.dtype(), out_shape);
  auto a_strides = BroadcastStrides(a.shape(), out_shape);
  auto b_strides = BroadcastStrides(b.shape(), out_shape);
  TFE_SWITCH_NUMERIC(a.dtype(), T, {
    BroadcastBinaryLoop<T, T>(ctx->eager_context(), a.data<T>(), a_strides,
                              b.data<T>(), b_strides, out.mutable_data<T>(),
                              out_shape,
                              [](T x, T y) { return F::template Apply<T>(x, y); });
  });
  return Status::OK();
}

template <typename F>
Status CompareKernel(KernelContext* ctx) {
  const Tensor& a = ctx->input(0);
  const Tensor& b = ctx->input(1);
  if (a.dtype() != b.dtype()) {
    return InvalidArgument("Comparison dtype mismatch");
  }
  TFE_ASSIGN_OR_RETURN(Shape out_shape, BroadcastShapes(a.shape(), b.shape()));
  Tensor out = ctx->AllocateOutput(0, DType::kBool, out_shape);
  auto a_strides = BroadcastStrides(a.shape(), out_shape);
  auto b_strides = BroadcastStrides(b.shape(), out_shape);
  TFE_SWITCH_NUMERIC(a.dtype(), T, {
    BroadcastBinaryLoop<T, bool>(
        ctx->eager_context(), a.data<T>(), a_strides, b.data<T>(), b_strides,
        out.mutable_data<bool>(), out_shape,
        [](T x, T y) { return F::template Apply<T>(x, y); });
  });
  return Status::OK();
}

// Output buffer for a unary elementwise kernel: in place over the input
// when the drain proved the input buffer exclusively owned (op-at-a-time
// donation; see KernelContext::donor). The per-element loops read element i
// immediately before writing element i, so aliasing input and output is
// exact.
Tensor UnaryOutput(KernelContext* ctx, const Tensor& x) {
  if (ctx->donor() == 0 && x.defined() && !x.is_opaque() &&
      !x.is_resource()) {
    return DonateOutput(ctx, 0, x.dtype(), x.shape(), x);
  }
  return ctx->AllocateOutput(0, x.dtype(), x.shape());
}

// F exposes `template <typename T> static T Apply(T)`.
template <typename F>
Status UnaryKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  Tensor out = UnaryOutput(ctx, x);
  TFE_SWITCH_NUMERIC(x.dtype(), T, {
    const T* in = x.data<T>();
    T* result = out.mutable_data<T>();
    ParallelFor(ctx->eager_context(), x.num_elements(), kElementwiseGrain,
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    result[i] = F::template Apply<T>(in[i]);
                  }
                });
  });
  return Status::OK();
}

// Kernel K behind the float-only guard: integer inputs are rejected.
template <Status (*K)(KernelContext*)>
Status FloatOnlyKernel(KernelContext* ctx) {
  if (!IsFloating(ctx->input(0).dtype())) {
    return InvalidArgument("Kernel requires a floating-point dtype");
  }
  return K(ctx);
}

// The scalar functors live in kernels/elementwise_functors.h, shared with the
// FusedElementwise interpreter so fused and unfused execution agree bitwise.

Status SelectKernel(KernelContext* ctx) {
  const Tensor& cond = ctx->input(0);
  const Tensor& x = ctx->input(1);
  const Tensor& y = ctx->input(2);
  if (cond.dtype() != DType::kBool) {
    return InvalidArgument("Select condition must be bool");
  }
  if (x.shape() != y.shape() || x.shape() != cond.shape()) {
    return InvalidArgument("Select requires equal shapes");
  }
  Tensor out = ctx->AllocateOutput(0, x.dtype(), x.shape());
  const bool* c = cond.data<bool>();
  TFE_SWITCH_NUMERIC(x.dtype(), T, {
    const T* xs = x.data<T>();
    const T* ys = y.data<T>();
    T* result = out.mutable_data<T>();
    ParallelFor(ctx->eager_context(), x.num_elements(), kElementwiseGrain,
                [&](int64_t begin, int64_t end) {
                  for (int64_t i = begin; i < end; ++i) {
                    result[i] = c[i] ? xs[i] : ys[i];
                  }
                });
  });
  return Status::OK();
}

Status CastKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  TFE_ASSIGN_OR_RETURN(DType dst, ctx->GetAttr<DType>("dst"));
  Tensor out = ctx->AllocateOutput(0, dst, x.shape());
  const int64_t count = x.num_elements();
  if (x.dtype() == DType::kBool || dst == DType::kBool) {
    // Bool conversions go through the generic element accessors (bool masks
    // cast to float are common in accept/reject samplers like L2HMC).
    for (int64_t i = 0; i < count; ++i) {
      tensor_util::SetElementFromDouble(out, i,
                                        tensor_util::ElementAsDouble(x, i));
    }
    return Status::OK();
  }
  TFE_SWITCH_NUMERIC(x.dtype(), TIn, {
    const TIn* in = x.data<TIn>();
    TFE_SWITCH_NUMERIC(dst, TOut, {
      TOut* result = out.mutable_data<TOut>();
      ParallelFor(ctx->eager_context(), count, kElementwiseGrain,
                  [&](int64_t begin, int64_t end) {
                    for (int64_t i = begin; i < end; ++i) {
                      result[i] = static_cast<TOut>(in[i]);
                    }
                  });
    });
  });
  return Status::OK();
}

Status ZerosLikeKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  ctx->AllocateOutput(0, x.dtype(), x.shape());  // zero-initialized
  return Status::OK();
}

Status OnesLikeKernel(KernelContext* ctx) {
  const Tensor& x = ctx->input(0);
  Tensor out = ctx->AllocateOutput(0, x.dtype(), x.shape());
  TFE_SWITCH_NUMERIC(x.dtype(), T, {
    T* result = out.mutable_data<T>();
    for (int64_t i = 0; i < x.num_elements(); ++i) result[i] = T(1);
  });
  return Status::OK();
}

// Registers kernel K for a micro-op elementwise op. It is float-only when
// the op's micro-op is (MicroOpFloatOnly), so op-at-a-time and fused
// execution accept the same dtypes.
template <Status (*K)(KernelContext*)>
void RegisterElementwise(const char* op_name) {
  StatusOr<const OpDef*> op = OpRegistry::Global()->LookUp(op_name);
  TFE_CHECK(op.ok() && (*op)->fused.kind == FusedMemberKind::kCompute)
      << op_name << " is not a registered micro-op";
  RegisterKernel(op_name,
                 MicroOpFloatOnly((*op)->fused.code) ? FloatOnlyKernel<K> : K);
}

}  // namespace

void RegisterElementwiseKernels() {
  using namespace functors;  // NOLINT(build/namespaces)
  RegisterElementwise<BinaryKernel<AddF>>("Add");
  RegisterElementwise<BinaryKernel<SubF>>("Sub");
  RegisterElementwise<BinaryKernel<MulF>>("Mul");
  RegisterElementwise<BinaryKernel<DivF>>("Div");
  RegisterElementwise<BinaryKernel<MaximumF>>("Maximum");
  RegisterElementwise<BinaryKernel<MinimumF>>("Minimum");
  RegisterElementwise<BinaryKernel<SquaredDifferenceF>>("SquaredDifference");
  RegisterElementwise<BinaryKernel<PowF>>("Pow");

  RegisterKernel("Equal", CompareKernel<EqualF>);
  RegisterKernel("NotEqual", CompareKernel<NotEqualF>);
  RegisterKernel("Less", CompareKernel<LessF>);
  RegisterKernel("LessEqual", CompareKernel<LessEqualF>);
  RegisterKernel("Greater", CompareKernel<GreaterF>);
  RegisterKernel("GreaterEqual", CompareKernel<GreaterEqualF>);

  RegisterElementwise<UnaryKernel<NegF>>("Neg");
  RegisterElementwise<UnaryKernel<AbsF>>("Abs");
  RegisterElementwise<UnaryKernel<SquareF>>("Square");
  RegisterElementwise<UnaryKernel<SignF>>("Sign");
  RegisterElementwise<UnaryKernel<ReluF>>("Relu");
  RegisterElementwise<UnaryKernel<ExpF>>("Exp");
  RegisterElementwise<UnaryKernel<LogF>>("Log");
  RegisterElementwise<UnaryKernel<SqrtF>>("Sqrt");
  RegisterElementwise<UnaryKernel<RsqrtF>>("Rsqrt");
  RegisterElementwise<UnaryKernel<TanhF>>("Tanh");
  RegisterElementwise<UnaryKernel<SigmoidF>>("Sigmoid");
  RegisterElementwise<UnaryKernel<SinF>>("Sin");
  RegisterElementwise<UnaryKernel<CosF>>("Cos");
  RegisterElementwise<UnaryKernel<ReciprocalF>>("Reciprocal");
  RegisterElementwise<UnaryKernel<FloorF>>("Floor");

  RegisterKernel("Select", SelectKernel);
  RegisterKernel("Cast", CastKernel);
  RegisterKernel("ZerosLike", ZerosLikeKernel);
  RegisterKernel("OnesLike", OnesLikeKernel);
}

}  // namespace kernels
}  // namespace tfe
