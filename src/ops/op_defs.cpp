// The op catalog: every primitive operation's OpDef + shape function.
//
// Kernels live in kernels/, gradients in autodiff/gradients.cpp; all three
// are registered together by EnsureOpsRegistered() (kernels/register_all.cpp)
// so the catalog can never be partially wired.
#include <algorithm>
#include <cmath>

#include "kernels/fused_elementwise.h"
#include "ops/op_registry.h"
#include "runtime/dispatch.h"
#include "support/strings.h"

namespace tfe {
namespace {

void RegisterOrDie(OpDef def) {
  Status status = OpRegistry::Global()->Register(std::move(def));
  TFE_CHECK(status.ok()) << status.ToString();
}

// ---- generic shape helpers -------------------------------------------------

// Output spatial extent for conv/pool. `padding` is "SAME" or "VALID".
StatusOr<int64_t> WindowOutputDim(int64_t input, int64_t window,
                                  int64_t stride, const std::string& padding) {
  if (input == kUnknownDim) return kUnknownDim;
  if (stride <= 0) return InvalidArgument("stride must be positive");
  if (padding == "SAME") {
    return (input + stride - 1) / stride;
  }
  if (padding == "VALID") {
    if (window > input) {
      return InvalidArgument(
          strings::StrCat("VALID window ", window, " larger than input ",
                          input));
    }
    return (input - window) / stride + 1;
  }
  return InvalidArgument("Unknown padding: " + padding);
}

Status ReductionShape(InferenceContext* ctx, DType out_dtype) {
  if (ctx->num_inputs() != 1) return InvalidArgument("Expected one input");
  const Shape& in = ctx->input_shape(0);
  std::vector<int64_t> axes =
      ctx->GetAttrOr<std::vector<int64_t>>("axis", {});
  bool keep_dims = ctx->GetAttrOr<bool>("keep_dims", false);
  if (axes.empty()) {  // reduce all
    if (keep_dims) {
      ctx->AddOutput(out_dtype, Shape(std::vector<int64_t>(in.rank(), 1)));
    } else {
      ctx->AddOutput(out_dtype, Shape());
    }
    return Status::OK();
  }
  std::vector<bool> reduced(in.rank(), false);
  for (int64_t axis : axes) {
    if (axis < 0) axis += in.rank();
    if (axis < 0 || axis >= in.rank()) {
      return InvalidArgument(strings::StrCat("Reduction axis ", axis,
                                             " out of range for shape ",
                                             in.ToString()));
    }
    reduced[axis] = true;
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < in.rank(); ++i) {
    if (reduced[i]) {
      if (keep_dims) dims.push_back(1);
    } else {
      dims.push_back(in.dims()[i]);
    }
  }
  ctx->AddOutput(out_dtype, Shape(std::move(dims)));
  return Status::OK();
}

// ---- op-specific shape functions -------------------------------------------

Status MatMulShape(InferenceContext* ctx) {
  if (ctx->num_inputs() != 2) return InvalidArgument("MatMul needs 2 inputs");
  const Shape& a = ctx->input_shape(0);
  const Shape& b = ctx->input_shape(1);
  if (a.rank() != 2 || b.rank() != 2) {
    return InvalidArgument(strings::StrCat("MatMul requires rank-2 inputs, got ",
                                           a.ToString(), " and ", b.ToString()));
  }
  bool ta = ctx->GetAttrOr<bool>("transpose_a", false);
  bool tb = ctx->GetAttrOr<bool>("transpose_b", false);
  int64_t m = a.dims()[ta ? 1 : 0];
  int64_t ka = a.dims()[ta ? 0 : 1];
  int64_t kb = b.dims()[tb ? 1 : 0];
  int64_t n = b.dims()[tb ? 0 : 1];
  if (ka != kUnknownDim && kb != kUnknownDim && ka != kb) {
    return InvalidArgument(strings::StrCat(
        "MatMul inner dimensions mismatch: ", a.ToString(), " x ",
        b.ToString()));
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape({m, n}));
  return Status::OK();
}

Status Conv2DShape(InferenceContext* ctx) {
  // x: [n,h,w,cin]  filter: [kh,kw,cin,cout]  (NHWC, HWIO)
  const Shape& x = ctx->input_shape(0);
  const Shape& f = ctx->input_shape(1);
  if (x.rank() != 4 || f.rank() != 4) {
    return InvalidArgument("Conv2D requires rank-4 input and filter");
  }
  TFE_ASSIGN_OR_RETURN(auto strides,
                       ctx->GetAttr<std::vector<int64_t>>("strides"));
  TFE_ASSIGN_OR_RETURN(auto padding, ctx->GetAttr<std::string>("padding"));
  if (strides.size() != 2) {
    return InvalidArgument("Conv2D strides must be [sh, sw]");
  }
  if (x.dims()[3] != kUnknownDim && f.dims()[2] != kUnknownDim &&
      x.dims()[3] != f.dims()[2]) {
    return InvalidArgument(
        strings::StrCat("Conv2D channel mismatch: input ", x.ToString(),
                        " filter ", f.ToString()));
  }
  TFE_ASSIGN_OR_RETURN(int64_t oh,
                       WindowOutputDim(x.dims()[1], f.dims()[0], strides[0],
                                       padding));
  TFE_ASSIGN_OR_RETURN(int64_t ow,
                       WindowOutputDim(x.dims()[2], f.dims()[1], strides[1],
                                       padding));
  ctx->AddOutput(ctx->input_dtype(0), Shape({x.dims()[0], oh, ow, f.dims()[3]}));
  return Status::OK();
}

Status ShapeFromAttrShape(InferenceContext* ctx, const char* attr) {
  TFE_ASSIGN_OR_RETURN(Shape shape, ctx->GetAttr<Shape>(attr));
  DType dtype = ctx->GetAttrOr<DType>("dtype", DType::kFloat32);
  ctx->AddOutput(dtype, std::move(shape));
  return Status::OK();
}

Status PoolShape(InferenceContext* ctx) {
  const Shape& x = ctx->input_shape(0);
  if (x.rank() != 4) return InvalidArgument("Pooling requires rank-4 input");
  TFE_ASSIGN_OR_RETURN(auto ksize, ctx->GetAttr<std::vector<int64_t>>("ksize"));
  TFE_ASSIGN_OR_RETURN(auto strides,
                       ctx->GetAttr<std::vector<int64_t>>("strides"));
  TFE_ASSIGN_OR_RETURN(auto padding, ctx->GetAttr<std::string>("padding"));
  if (ksize.size() != 2 || strides.size() != 2) {
    return InvalidArgument("Pooling ksize/strides must be [h, w]");
  }
  TFE_ASSIGN_OR_RETURN(
      int64_t oh, WindowOutputDim(x.dims()[1], ksize[0], strides[0], padding));
  TFE_ASSIGN_OR_RETURN(
      int64_t ow, WindowOutputDim(x.dims()[2], ksize[1], strides[1], padding));
  ctx->AddOutput(ctx->input_dtype(0), Shape({x.dims()[0], oh, ow, x.dims()[3]}));
  return Status::OK();
}

Status ReshapeShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto target,
                       ctx->GetAttr<std::vector<int64_t>>("shape"));
  const Shape& in = ctx->input_shape(0);
  int64_t known_product = 1;
  int infer_index = -1;
  for (size_t i = 0; i < target.size(); ++i) {
    if (target[i] == -1) {
      if (infer_index >= 0) {
        return InvalidArgument("Reshape allows at most one -1 dimension");
      }
      infer_index = static_cast<int>(i);
    } else if (target[i] < 0) {
      return InvalidArgument("Reshape dimensions must be >= -1");
    } else {
      known_product *= target[i];
    }
  }
  if (infer_index >= 0) {
    if (!in.IsFullyDefined()) {
      target[infer_index] = kUnknownDim;
    } else {
      if (known_product == 0 || in.num_elements() % known_product != 0) {
        return InvalidArgument(
            strings::StrCat("Cannot reshape ", in.ToString(), " to ",
                            Shape(target).ToString()));
      }
      target[infer_index] = in.num_elements() / known_product;
    }
  } else if (in.IsFullyDefined() && in.num_elements() != known_product) {
    return InvalidArgument(strings::StrCat("Cannot reshape ", in.ToString(),
                                           " (", in.num_elements(),
                                           " elements) to ",
                                           Shape(target).ToString()));
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(target)));
  return Status::OK();
}

Status TransposeShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto perm, ctx->GetAttr<std::vector<int64_t>>("perm"));
  const Shape& in = ctx->input_shape(0);
  if (static_cast<int>(perm.size()) != in.rank()) {
    return InvalidArgument("Transpose perm rank mismatch");
  }
  std::vector<int64_t> dims(in.rank());
  std::vector<bool> seen(in.rank(), false);
  for (int i = 0; i < in.rank(); ++i) {
    int64_t p = perm[i];
    if (p < 0 || p >= in.rank() || seen[p]) {
      return InvalidArgument("Transpose perm is not a permutation");
    }
    seen[p] = true;
    dims[i] = in.dims()[p];
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status ConcatShape(InferenceContext* ctx) {
  if (ctx->num_inputs() < 1) return InvalidArgument("Concat needs inputs");
  TFE_ASSIGN_OR_RETURN(int64_t axis, ctx->GetAttr<int64_t>("axis"));
  Shape out = ctx->input_shape(0);
  if (axis < 0) axis += out.rank();
  if (axis < 0 || axis >= out.rank()) {
    return InvalidArgument("Concat axis out of range");
  }
  int64_t total = out.dims()[axis];
  for (int i = 1; i < ctx->num_inputs(); ++i) {
    const Shape& s = ctx->input_shape(i);
    if (s.rank() != out.rank()) {
      return InvalidArgument("Concat rank mismatch");
    }
    for (int d = 0; d < out.rank(); ++d) {
      if (d == axis) continue;
      if (s.dims()[d] != kUnknownDim && out.dims()[d] != kUnknownDim &&
          s.dims()[d] != out.dims()[d]) {
        return InvalidArgument("Concat non-axis dimension mismatch");
      }
    }
    total = (total == kUnknownDim || s.dims()[axis] == kUnknownDim)
                ? kUnknownDim
                : total + s.dims()[axis];
  }
  out.set_dim(static_cast<int>(axis), total);
  ctx->AddOutput(ctx->input_dtype(0), out);
  return Status::OK();
}

Status SliceShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto begin, ctx->GetAttr<std::vector<int64_t>>("begin"));
  TFE_ASSIGN_OR_RETURN(auto size, ctx->GetAttr<std::vector<int64_t>>("size"));
  const Shape& in = ctx->input_shape(0);
  if (static_cast<int>(begin.size()) != in.rank() ||
      static_cast<int>(size.size()) != in.rank()) {
    return InvalidArgument("Slice begin/size rank mismatch");
  }
  std::vector<int64_t> dims(in.rank());
  for (int i = 0; i < in.rank(); ++i) {
    int64_t s = size[i];
    if (s == -1) {
      s = in.dims()[i] == kUnknownDim ? kUnknownDim : in.dims()[i] - begin[i];
    }
    if (in.dims()[i] != kUnknownDim && s != kUnknownDim &&
        (begin[i] < 0 || begin[i] + s > in.dims()[i])) {
      return InvalidArgument("Slice out of bounds");
    }
    dims[i] = s;
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status PadShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto paddings,
                       ctx->GetAttr<std::vector<int64_t>>("paddings"));
  const Shape& in = ctx->input_shape(0);
  if (static_cast<int>(paddings.size()) != in.rank() * 2) {
    return InvalidArgument("Pad paddings must have 2 entries per dimension");
  }
  std::vector<int64_t> dims(in.rank());
  for (int i = 0; i < in.rank(); ++i) {
    if (paddings[2 * i] < 0 || paddings[2 * i + 1] < 0) {
      return InvalidArgument("Pad amounts must be non-negative");
    }
    dims[i] = in.dims()[i] == kUnknownDim
                  ? kUnknownDim
                  : in.dims()[i] + paddings[2 * i] + paddings[2 * i + 1];
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status TileShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto multiples,
                       ctx->GetAttr<std::vector<int64_t>>("multiples"));
  const Shape& in = ctx->input_shape(0);
  if (static_cast<int>(multiples.size()) != in.rank()) {
    return InvalidArgument("Tile multiples rank mismatch");
  }
  std::vector<int64_t> dims(in.rank());
  for (int i = 0; i < in.rank(); ++i) {
    if (multiples[i] <= 0) return InvalidArgument("Tile multiples must be > 0");
    dims[i] = in.dims()[i] == kUnknownDim ? kUnknownDim
                                          : in.dims()[i] * multiples[i];
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status ExpandDimsShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(int64_t axis, ctx->GetAttr<int64_t>("axis"));
  const Shape& in = ctx->input_shape(0);
  if (axis < 0) axis += in.rank() + 1;
  if (axis < 0 || axis > in.rank()) {
    return InvalidArgument("ExpandDims axis out of range");
  }
  std::vector<int64_t> dims = in.dims();
  dims.insert(dims.begin() + axis, 1);
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status SqueezeShape(InferenceContext* ctx) {
  std::vector<int64_t> axes = ctx->GetAttrOr<std::vector<int64_t>>("axis", {});
  const Shape& in = ctx->input_shape(0);
  std::vector<bool> drop(in.rank(), false);
  if (axes.empty()) {
    for (int i = 0; i < in.rank(); ++i) drop[i] = in.dims()[i] == 1;
  } else {
    for (int64_t axis : axes) {
      if (axis < 0) axis += in.rank();
      if (axis < 0 || axis >= in.rank()) {
        return InvalidArgument("Squeeze axis out of range");
      }
      if (in.dims()[axis] != 1 && in.dims()[axis] != kUnknownDim) {
        return InvalidArgument("Squeeze on non-1 dimension");
      }
      drop[axis] = true;
    }
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < in.rank(); ++i) {
    if (!drop[i]) dims.push_back(in.dims()[i]);
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status GatherShape(InferenceContext* ctx) {
  const Shape& params = ctx->input_shape(0);
  const Shape& indices = ctx->input_shape(1);
  if (params.rank() < 1) return InvalidArgument("Gather params rank >= 1");
  std::vector<int64_t> dims = indices.dims();
  for (int i = 1; i < params.rank(); ++i) dims.push_back(params.dims()[i]);
  ctx->AddOutput(ctx->input_dtype(0), Shape(std::move(dims)));
  return Status::OK();
}

Status ArgMaxShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(int64_t axis, ctx->GetAttr<int64_t>("axis"));
  const Shape& in = ctx->input_shape(0);
  if (axis < 0) axis += in.rank();
  if (axis < 0 || axis >= in.rank()) {
    return InvalidArgument("ArgMax axis out of range");
  }
  std::vector<int64_t> dims;
  for (int i = 0; i < in.rank(); ++i) {
    if (i != axis) dims.push_back(in.dims()[i]);
  }
  ctx->AddOutput(DType::kInt64, Shape(std::move(dims)));
  return Status::OK();
}

Status SparseXentShape(InferenceContext* ctx) {
  const Shape& logits = ctx->input_shape(0);
  const Shape& labels = ctx->input_shape(1);
  if (logits.rank() != 2 || labels.rank() != 1) {
    return InvalidArgument(
        "SparseSoftmaxCrossEntropyWithLogits: logits [b,c], labels [b]");
  }
  if (logits.dims()[0] != kUnknownDim && labels.dims()[0] != kUnknownDim &&
      logits.dims()[0] != labels.dims()[0]) {
    return InvalidArgument("logits/labels batch mismatch");
  }
  ctx->AddOutput(ctx->input_dtype(0), Shape({logits.dims()[0]}));  // loss
  ctx->AddOutput(ctx->input_dtype(0), logits);                     // backprop
  return Status::OK();
}

Status FusedBatchNormShape(InferenceContext* ctx) {
  // inputs: x [n,h,w,c], scale [c], offset [c], mean [c], variance [c]
  const Shape& x = ctx->input_shape(0);
  if (x.rank() != 4) return InvalidArgument("FusedBatchNorm needs rank-4 x");
  Shape c({x.dims()[3]});
  ctx->AddOutput(ctx->input_dtype(0), x);  // y
  ctx->AddOutput(ctx->input_dtype(0), c);  // batch_mean
  ctx->AddOutput(ctx->input_dtype(0), c);  // batch_variance
  return Status::OK();
}

Status FusedBatchNormGradShape(InferenceContext* ctx) {
  // inputs: dy, x, scale, saved_mean, saved_variance
  const Shape& x = ctx->input_shape(1);
  Shape c({x.rank() == 4 ? x.dims()[3] : kUnknownDim});
  ctx->AddOutput(ctx->input_dtype(0), x);  // dx
  ctx->AddOutput(ctx->input_dtype(0), c);  // dscale
  ctx->AddOutput(ctx->input_dtype(0), c);  // doffset
  return Status::OK();
}

Status CastShape(InferenceContext* ctx) {
  TFE_ASSIGN_OR_RETURN(DType dst, ctx->GetAttr<DType>("dst"));
  ctx->AddOutput(dst, ctx->input_shape(0));
  return Status::OK();
}

Status SelectShape(InferenceContext* ctx) {
  // cond (bool), x, y — all the same shape (no broadcast for simplicity).
  const Shape& x = ctx->input_shape(1);
  if (!ctx->input_shape(0).IsCompatibleWith(x) ||
      !ctx->input_shape(2).IsCompatibleWith(x)) {
    return InvalidArgument("Select requires equal shapes");
  }
  ctx->AddOutput(ctx->input_dtype(1), x);
  return Status::OK();
}

Status ReadVariableShape(InferenceContext* ctx) {
  // dtype/shape recorded as attrs when the read op is constructed.
  TFE_ASSIGN_OR_RETURN(DType dtype, ctx->GetAttr<DType>("dtype"));
  TFE_ASSIGN_OR_RETURN(Shape shape, ctx->GetAttr<Shape>("shape"));
  ctx->AddOutput(dtype, std::move(shape));
  return Status::OK();
}

Status NoOutputs(InferenceContext* ctx) { return Status::OK(); }

// ---- registration ----------------------------------------------------------

// Fused-run classes (kernels/fused_elementwise.h).
kernels::FusedMemberClass Compute(kernels::MicroOpCode code) {
  return {.kind = kernels::FusedMemberKind::kCompute, .code = code};
}
kernels::FusedMemberClass Layout(kernels::FusedLayout layout) {
  return {.kind = kernels::FusedMemberKind::kLayout, .layout = layout};
}

struct Registrar {
  Registrar() {
    using C = OpCostClass;
    using L = kernels::FusedLayout;
    using M = kernels::MicroOpCode;
    using R = kernels::MicroReduceKind;

    // Elementwise ops with the micro-op each contributes to a fused run (its
    // float-only rule also picks the op's kernel) and their cost class.
    struct Elementwise {
      const char* name;
      int num_inputs;
      M code;
      C cost = C::kElementwise;
    };
    for (const Elementwise& op : std::initializer_list<Elementwise>{
             {"Add", 2, M::kAdd}, {"Sub", 2, M::kSub}, {"Mul", 2, M::kMul},
             {"Div", 2, M::kDiv}, {"Maximum", 2, M::kMaximum},
             {"Minimum", 2, M::kMinimum},
             {"SquaredDifference", 2, M::kSquaredDifference},
             {"Neg", 1, M::kNeg}, {"Abs", 1, M::kAbs},
             {"Square", 1, M::kSquare}, {"Relu", 1, M::kRelu},
             {"Reciprocal", 1, M::kReciprocal},
             {"Sign", 1, M::kSign}, {"Floor", 1, M::kFloor},  // zero grads
             {"Pow", 2, M::kPow, C::kTranscendental},
             {"Exp", 1, M::kExp, C::kTranscendental},
             {"Log", 1, M::kLog, C::kTranscendental},
             {"Sqrt", 1, M::kSqrt, C::kTranscendental},
             {"Rsqrt", 1, M::kRsqrt, C::kTranscendental},
             {"Tanh", 1, M::kTanh, C::kTranscendental},
             {"Sigmoid", 1, M::kSigmoid, C::kTranscendental},
             {"Sin", 1, M::kSin, C::kTranscendental},
             {"Cos", 1, M::kCos, C::kTranscendental}}) {
      RegisterOrDie({.name = op.name,
                     .num_inputs = op.num_inputs,
                     .fused = Compute(op.code),
                     .cost = op.cost,
                     .shape_fn = op.num_inputs == 2
                                     ? shape_fn::BroadcastBinary
                                     : shape_fn::UnchangedShape});
    }

    auto compare = [](const char* name) {
      RegisterOrDie({.name = name,
                     .num_inputs = 2,
                     .differentiable = false,
                     .shape_fn = [](InferenceContext* ctx) {
                       TFE_RETURN_IF_ERROR(shape_fn::BroadcastBinary(ctx));
                       ctx->SetOutputDType(0, DType::kBool);
                       return Status::OK();
                     }});
    };
    for (const char* name : {"Equal", "NotEqual", "Less", "LessEqual",
                             "Greater", "GreaterEqual"}) {
      compare(name);
    }

    auto elementwise_unary = [](const char* name, C cost = C::kElementwise) {
      RegisterOrDie({.name = name,
                     .num_inputs = 1,
                     .cost = cost,
                     .shape_fn = shape_fn::UnchangedShape});
    };
    elementwise_unary("ZerosLike");
    elementwise_unary("OnesLike");
    elementwise_unary("Identity");
    elementwise_unary("StopGradient");
    elementwise_unary("Softmax", C::kSoftmax);
    elementwise_unary("LogSoftmax", C::kSoftmax);

    RegisterOrDie({.name = "Select", .num_inputs = 3, .shape_fn = SelectShape});
    RegisterOrDie({.name = "Cast", .num_inputs = 1, .fused = Compute(M::kCast),
                   .shape_fn = CastShape});

    RegisterOrDie({.name = "MatMul", .num_inputs = 2, .cost = C::kMatMul,
                   .shape_fn = MatMulShape});
    RegisterOrDie({.name = "Conv2D", .num_inputs = 2, .cost = C::kConv2D,
                   .shape_fn = Conv2DShape});
    RegisterOrDie({.name = "Conv2DBackpropInput",
                   .num_inputs = 2,  // filter, dy (input shape from attr)
                   .cost = C::kConv2DBackpropInput,
                   .shape_fn =
                       [](InferenceContext* ctx) {
                         return ShapeFromAttrShape(ctx, "input_shape");
                       }});
    RegisterOrDie({.name = "Conv2DBackpropFilter",
                   .num_inputs = 2,  // x, dy (filter shape from attr)
                   .cost = C::kConv2DBackpropFilter,
                   .shape_fn =
                       [](InferenceContext* ctx) {
                         return ShapeFromAttrShape(ctx, "filter_shape");
                       }});

    for (const char* name : {"MaxPool", "AvgPool"}) {
      RegisterOrDie({.name = name, .num_inputs = 1, .cost = C::kPool,
                     .shape_fn = PoolShape});
    }
    RegisterOrDie({.name = "MaxPoolGrad",
                   .num_inputs = 3,  // x, y, dy
                   .cost = C::kPool,
                   .shape_fn = shape_fn::UnchangedShape});
    RegisterOrDie({.name = "AvgPoolGrad",
                   .num_inputs = 1,  // dy (input shape from attr)
                   .cost = C::kPool,
                   .shape_fn =
                       [](InferenceContext* ctx) {
                         return ShapeFromAttrShape(ctx, "input_shape");
                       }});

    RegisterOrDie({.name = "FusedBatchNorm", .num_inputs = 5,
                   .cost = C::kBatchNorm, .shape_fn = FusedBatchNormShape});
    RegisterOrDie({.name = "FusedBatchNormGrad", .num_inputs = 5,
                   .cost = C::kBatchNorm, .shape_fn = FusedBatchNormGradShape});

    for (const auto& [name, reduce] :
         {std::pair{"Sum", R::kSum}, std::pair{"Mean", R::kMean},
          std::pair{"Max", R::kMax}, std::pair{"Min", R::kMin}}) {
      RegisterOrDie(
          {.name = name,
           .num_inputs = 1,
           .fused = {.kind = kernels::FusedMemberKind::kReduce,
                     .reduce = reduce},
           .shape_fn = [](InferenceContext* ctx) {
             return ReductionShape(ctx, ctx->input_dtype(0));
           }});
    }
    RegisterOrDie({.name = "ArgMax",
                   .num_inputs = 1,
                   .differentiable = false,
                   .shape_fn = ArgMaxShape});
    RegisterOrDie({.name = "SparseSoftmaxCrossEntropyWithLogits",
                   .num_inputs = 2,
                   .cost = C::kSoftmax,
                   .shape_fn = SparseXentShape});

    RegisterOrDie({.name = "Reshape", .num_inputs = 1,
                   .fused = Layout(L::kReshape), .shape_fn = ReshapeShape});
    RegisterOrDie({.name = "Transpose", .num_inputs = 1,
                   .fused = Layout(L::kTranspose), .shape_fn = TransposeShape});
    RegisterOrDie({.name = "Concat",
                   .num_inputs = OpDef::kVariadic,
                   .shape_fn = ConcatShape});
    RegisterOrDie({.name = "Slice", .num_inputs = 1, .shape_fn = SliceShape});
    RegisterOrDie({.name = "Pad", .num_inputs = 1, .shape_fn = PadShape});
    RegisterOrDie({.name = "Tile", .num_inputs = 1, .shape_fn = TileShape});
    RegisterOrDie({.name = "ExpandDims", .num_inputs = 1,
                   .fused = Layout(L::kExpandDims),
                   .shape_fn = ExpandDimsShape});
    RegisterOrDie({.name = "Squeeze", .num_inputs = 1,
                   .fused = Layout(L::kSqueeze), .shape_fn = SqueezeShape});
    RegisterOrDie({.name = "Gather", .num_inputs = 2, .shape_fn = GatherShape});
    RegisterOrDie({.name = "UnsortedSegmentSum",
                   .num_inputs = 2,  // data, segment_ids
                   .shape_fn = [](InferenceContext* ctx) {
                     TFE_ASSIGN_OR_RETURN(
                         int64_t segments,
                         ctx->GetAttr<int64_t>("num_segments"));
                     const Shape& data = ctx->input_shape(0);
                     if (data.rank() < 1) {
                       return InvalidArgument(
                           "UnsortedSegmentSum data rank >= 1");
                     }
                     std::vector<int64_t> dims = {segments};
                     for (int i = 1; i < data.rank(); ++i) {
                       dims.push_back(data.dims()[i]);
                     }
                     ctx->AddOutput(ctx->input_dtype(0),
                                    Shape(std::move(dims)));
                     return Status::OK();
                   }});

    // Random ops: stateful when seed == 0 (fresh randomness each execution —
    // exactly why tracing them, unlike tracing np.random.randn, preserves
    // semantics; paper §4.1).
    for (const char* name : {"RandomNormal", "RandomUniform"}) {
      RegisterOrDie({.name = name,
                     .num_inputs = 0,
                     .is_stateful = true,
                     .differentiable = false,
                     .pure_when_seeded = true,
                     .cost = C::kTranscendental,
                     .shape_fn = [](InferenceContext* ctx) {
                       return ShapeFromAttrShape(ctx, "shape");
                     }});
    }

    // Range: [start, limit) with step delta, from attrs.
    RegisterOrDie({.name = "Range",
                   .num_inputs = 0,
                   .differentiable = false,
                   .shape_fn = [](InferenceContext* ctx) {
                     TFE_ASSIGN_OR_RETURN(double start,
                                          ctx->GetAttr<double>("start"));
                     TFE_ASSIGN_OR_RETURN(double limit,
                                          ctx->GetAttr<double>("limit"));
                     double delta = ctx->GetAttrOr<double>("delta", 1.0);
                     if (delta == 0.0) {
                       return InvalidArgument("Range delta must be nonzero");
                     }
                     double span = (limit - start) / delta;
                     int64_t count = span > 0
                                         ? static_cast<int64_t>(
                                               std::ceil(span))
                                         : 0;
                     ctx->AddOutput(
                         ctx->GetAttrOr<DType>("dtype", DType::kInt64),
                         Shape({count}));
                     return Status::OK();
                   }});

    // Graph-construction pseudo-ops.
    RegisterOrDie({.name = "Arg",
                   .num_inputs = 0,
                   .differentiable = false,
                   .binding = OpDef::Binding::kArg,
                   .shape_fn = [](InferenceContext* ctx) {
                     return ShapeFromAttrShape(ctx, "shape");
                   }});
    RegisterOrDie({.name = "Const",
                   .num_inputs = 0,
                   .differentiable = false,
                   .binding = OpDef::Binding::kConst,
                   // Shape comes from the node's constant payload; the
                   // tracer fills outputs directly, so this is unused.
                   .shape_fn = NoOutputs});

    // Variable (resource) ops — stateful by definition (paper §4.3).
    RegisterOrDie({.name = "ReadVariableOp",
                   .num_inputs = 1,
                   .is_stateful = true,
                   .always_executes = true,
                   .variable_op = true,
                   .read_only = true,
                   .shape_fn = ReadVariableShape});
    for (const char* name :
         {"AssignVariableOp", "AssignAddVariableOp", "AssignSubVariableOp"}) {
      RegisterOrDie({.name = name,
                     .num_inputs = 2,
                     .is_stateful = true,
                     .differentiable = false,
                     .always_executes = true,
                     .variable_op = true,
                     .shape_fn = NoOutputs});
    }

    // Checkpoint ops (paper §4.3: save/restore operations).
    RegisterOrDie({.name = "SaveTensor",
                   .num_inputs = 1,
                   .is_stateful = true,
                   .differentiable = false,
                   .always_executes = true,
                   .shape_fn = NoOutputs});
    RegisterOrDie({.name = "RestoreTensor",
                   .num_inputs = 0,
                   .is_stateful = true,
                   .differentiable = false,
                   .always_executes = true,
                   .shape_fn = [](InferenceContext* ctx) {
                     TFE_ASSIGN_OR_RETURN(DType dtype,
                                          ctx->GetAttr<DType>("dtype"));
                     TFE_ASSIGN_OR_RETURN(Shape shape,
                                          ctx->GetAttr<Shape>("shape"));
                     ctx->AddOutput(dtype, std::move(shape));
                     return Status::OK();
                   }});

    // Graph-function invocation (paper §4.1: "graph functions are themselves
    // executed by an operation that takes tensors as inputs and a function
    // name as an attribute"). Output dtypes/shapes are resolved against the
    // function library at trace time, so the shape_fn is a stub here.
    RegisterOrDie({.name = "Call",
                   .num_inputs = OpDef::kVariadic,
                   .is_stateful = true,
                   .always_executes = true,
                   .function_call = true,
                   .shape_fn = NoOutputs,
                   .trace_outputs = [](EagerContext* ctx,
                                       const std::vector<Tensor>&,
                                       const AttrMap& attrs) {
                     return FunctionOpOutputTypes(ctx, "Call", attrs,
                                                  "function");
                   }});

    // Imperative escape hatch (paper §4.7). Output signature is carried in
    // attrs (num_outputs + out_dtype_<i>/out_shape_<i>) since the callback
    // is a black box.
    RegisterOrDie({.name = "HostFunc",
                   .num_inputs = OpDef::kVariadic,
                   .is_stateful = true,
                   .always_executes = true,
                   .host_callback = true,
                   .shape_fn = [](InferenceContext* ctx) {
                     int64_t count = ctx->GetAttrOr<int64_t>("num_outputs", 0);
                     for (int64_t i = 0; i < count; ++i) {
                       TFE_ASSIGN_OR_RETURN(
                           DType dtype,
                           ctx->GetAttr<DType>(
                               strings::StrCat("out_dtype_", i)));
                       TFE_ASSIGN_OR_RETURN(
                           Shape shape,
                           ctx->GetAttr<Shape>(
                               strings::StrCat("out_shape_", i)));
                       ctx->AddOutput(dtype, std::move(shape));
                     }
                     return Status::OK();
                   }});

    RegisterOrDie({.name = "NoOp",
                   .num_inputs = 0,
                   .is_stateful = true,
                   .differentiable = false,
                   .always_executes = true,
                   .read_only = true,
                   .shape_fn = NoOutputs});

    // A fused run of elementwise/layout/reduction ops interpreting a
    // compiled micro-op program (kernels/fused_elementwise.h). Produced only
    // by the op-queue drain and the FuseElementwise graph pass, which hand
    // the kernel its program and the simulated path its output types — never
    // by tracing. Dispatching or tracing it fails here: there is no program
    // to infer from. Autodiff sees the original per-op graph, so no gradient
    // exists.
    RegisterOrDie({.name = "FusedElementwise",
                   .num_inputs = OpDef::kVariadic,
                   .differentiable = false,
                   .shape_fn = [](InferenceContext*) {
                     return InvalidArgument(
                         "FusedElementwise runs only a program the runtime "
                         "compiled; it cannot be dispatched or traced");
                   }});
  }
};

}  // namespace

void RegisterAllOpDefs() { static Registrar registrar; }

}  // namespace tfe
