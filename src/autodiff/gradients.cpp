// Gradient functions for every differentiable primitive op.
//
// Each gradient computes with public ops, so it runs eagerly when the tape
// is queried eagerly and is recorded as graph nodes when queried inside a
// trace (paper §4.2). Registered by RegisterAllGradients().
#include "api/ops_api.h"
#include "autodiff/tape.h"
#include "ops/op_registry.h"
#include "runtime/dispatch.h"
#include "support/logging.h"

namespace tfe {
namespace {

using ops::operator+;
using ops::operator-;
using ops::operator*;
using ops::operator/;

void RegisterGrad(const char* op_name, GradFn fn) {
  Status status =
      OpRegistry::Global()->RegisterGradient(op_name, std::move(fn));
  TFE_CHECK(status.ok()) << status.ToString();
}

// Sums `grad` down to `shape` (undoing broadcasting): sum the leading extra
// axes, then sum (keeping dims) every axis where the input had extent 1.
Tensor ReduceGradToShape(const Tensor& grad, const Shape& shape) {
  if (grad.shape() == shape) return grad;
  Tensor result = grad;
  int extra = result.shape().rank() - shape.rank();
  if (extra > 0) {
    std::vector<int64_t> leading(extra);
    for (int i = 0; i < extra; ++i) leading[i] = i;
    result = ops::reduce_sum(result, leading, /*keep_dims=*/false);
  }
  std::vector<int64_t> ones_axes;
  for (int i = 0; i < shape.rank(); ++i) {
    if (shape.dims()[i] == 1 && result.shape().dims()[i] != 1) {
      ones_axes.push_back(i);
    }
  }
  if (!ones_axes.empty()) {
    result = ops::reduce_sum(result, ones_axes, /*keep_dims=*/true);
  }
  return result;
}

// Broadcasts a (possibly keep_dims-reduced) gradient back over the shape it
// was reduced from: restore the rank with 1s at the reduced axes, then rely
// on broadcasting against ones_like(x).
Tensor ExpandReducedGrad(const Tensor& grad, const TapeEntry& entry) {
  const Tensor& x = entry.inputs[0];
  std::vector<int64_t> axes;
  bool keep_dims = false;
  {
    auto it = entry.attrs.find("axis");
    if (it != entry.attrs.end() && it->second.Is<std::vector<int64_t>>()) {
      axes = it->second.Get<std::vector<int64_t>>();
    }
    auto kd = entry.attrs.find("keep_dims");
    if (kd != entry.attrs.end() && kd->second.Is<bool>()) {
      keep_dims = kd->second.Get<bool>();
    }
  }
  Tensor g = grad;
  if (!keep_dims) {
    std::vector<bool> reduced(x.shape().rank(), axes.empty());
    for (int64_t axis : axes) {
      if (axis < 0) axis += x.shape().rank();
      reduced[axis] = true;
    }
    std::vector<int64_t> with_ones;
    for (int i = 0; i < x.shape().rank(); ++i) {
      with_ones.push_back(reduced[i] ? 1 : x.shape().dims()[i]);
    }
    g = ops::reshape(g, with_ones);
  }
  return g * ops::ones_like(x);
}

int64_t ReducedElementCount(const TapeEntry& entry) {
  const Shape& in = entry.inputs[0].shape();
  std::vector<int64_t> axes;
  auto it = entry.attrs.find("axis");
  if (it != entry.attrs.end() && it->second.Is<std::vector<int64_t>>()) {
    axes = it->second.Get<std::vector<int64_t>>();
  }
  if (axes.empty()) return in.num_elements();
  int64_t count = 1;
  for (int64_t axis : axes) {
    if (axis < 0) axis += in.rank();
    count *= in.dims()[axis];
  }
  return count;
}

// A scalar constant of `like`'s dtype (broadcasts against it). Trace-aware:
// becomes a Const node inside a graph-building context.
Tensor CastedScalar(double value, const Tensor& like) {
  return ops::fill(like.dtype(), Shape(), value);
}

std::vector<int64_t> AttrVec(const TapeEntry& entry, const char* name) {
  auto it = entry.attrs.find(name);
  TFE_CHECK(it != entry.attrs.end() && it->second.Is<std::vector<int64_t>>());
  return it->second.Get<std::vector<int64_t>>();
}

std::string AttrString(const TapeEntry& entry, const char* name) {
  auto it = entry.attrs.find(name);
  TFE_CHECK(it != entry.attrs.end() && it->second.Is<std::string>());
  return it->second.Get<std::string>();
}

}  // namespace

// Gradients for composite ops (Call, HostFunc): autodiff/function_grad.cpp.
void RegisterFunctionGradients();

void RegisterAllGradients() {
  // ---- broadcasting binary ---------------------------------------------------
  RegisterGrad("Add", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ReduceGradToShape(g[0], e.inputs[0].shape()),
                               ReduceGradToShape(g[0], e.inputs[1].shape())};
  });
  RegisterGrad("Sub", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{
        ReduceGradToShape(g[0], e.inputs[0].shape()),
        ReduceGradToShape(ops::neg(g[0]), e.inputs[1].shape())};
  });
  RegisterGrad("Mul", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{
        ReduceGradToShape(g[0] * e.inputs[1], e.inputs[0].shape()),
        ReduceGradToShape(g[0] * e.inputs[0], e.inputs[1].shape())};
  });
  RegisterGrad("Div", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& a = e.inputs[0];
    const Tensor& b = e.inputs[1];
    Tensor da = g[0] / b;
    Tensor db = ops::neg(g[0] * a / (b * b));
    return std::vector<Tensor>{ReduceGradToShape(da, a.shape()),
                               ReduceGradToShape(db, b.shape())};
  });
  RegisterGrad("Pow", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& a = e.inputs[0];
    const Tensor& b = e.inputs[1];
    const Tensor& y = e.outputs[0];
    Tensor da = g[0] * b * ops::pow(a, b - ops::ones_like(b));
    // Guard log(a) for a <= 0 as TF does.
    Tensor tiny = CastedScalar(1e-30, a);
    Tensor safe_log = ops::select(ops::greater(a, ops::zeros_like(a)),
                                  ops::log(ops::maximum(a, tiny * ops::ones_like(a))),
                                  ops::zeros_like(a));
    Tensor db = g[0] * y * safe_log;
    return std::vector<Tensor>{ReduceGradToShape(da, a.shape()),
                               ReduceGradToShape(db, b.shape())};
  });
  RegisterGrad("Maximum", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& a = e.inputs[0];
    const Tensor& b = e.inputs[1];
    Tensor mask = ops::cast(ops::greater_equal(a * ops::ones_like(b),
                                               b * ops::ones_like(a)),
                            a.dtype());
    Tensor da = g[0] * mask;
    Tensor db = g[0] * (ops::ones_like(mask) - mask);
    return std::vector<Tensor>{ReduceGradToShape(da, a.shape()),
                               ReduceGradToShape(db, b.shape())};
  });
  RegisterGrad("Minimum", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& a = e.inputs[0];
    const Tensor& b = e.inputs[1];
    Tensor mask = ops::cast(ops::less_equal(a * ops::ones_like(b),
                                            b * ops::ones_like(a)),
                            a.dtype());
    Tensor da = g[0] * mask;
    Tensor db = g[0] * (ops::ones_like(mask) - mask);
    return std::vector<Tensor>{ReduceGradToShape(da, a.shape()),
                               ReduceGradToShape(db, b.shape())};
  });
  RegisterGrad("SquaredDifference",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& a = e.inputs[0];
    const Tensor& b = e.inputs[1];
    Tensor two = CastedScalar(2.0, a);
    Tensor da = g[0] * two * (a - b);
    return std::vector<Tensor>{ReduceGradToShape(da, a.shape()),
                               ReduceGradToShape(ops::neg(da), b.shape())};
  });

  // ---- unary -------------------------------------------------------------------
  RegisterGrad("Neg", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ops::neg(g[0])};
  });
  RegisterGrad("Abs", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{g[0] * ops::sign(e.inputs[0])};
  });
  RegisterGrad("Exp", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{g[0] * e.outputs[0]};
  });
  RegisterGrad("Log", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{g[0] / e.inputs[0]};
  });
  RegisterGrad("Sqrt", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    Tensor half = CastedScalar(0.5, e.outputs[0]);
    return std::vector<Tensor>{g[0] * half / e.outputs[0]};
  });
  RegisterGrad("Rsqrt", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& y = e.outputs[0];
    Tensor coefficient = CastedScalar(-0.5, y);
    return std::vector<Tensor>{g[0] * coefficient * y * y * y};
  });
  RegisterGrad("Square", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    Tensor two = CastedScalar(2.0, e.inputs[0]);
    return std::vector<Tensor>{g[0] * two * e.inputs[0]};
  });
  RegisterGrad("Tanh", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& y = e.outputs[0];
    return std::vector<Tensor>{g[0] * (ops::ones_like(y) - y * y)};
  });
  RegisterGrad("Sigmoid", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& y = e.outputs[0];
    return std::vector<Tensor>{g[0] * y * (ops::ones_like(y) - y)};
  });
  RegisterGrad("Relu", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    Tensor mask = ops::cast(
        ops::greater(e.inputs[0], ops::zeros_like(e.inputs[0])),
        e.inputs[0].dtype());
    return std::vector<Tensor>{g[0] * mask};
  });
  RegisterGrad("Sin", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{g[0] * ops::cos(e.inputs[0])};
  });
  RegisterGrad("Cos", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ops::neg(g[0] * ops::sin(e.inputs[0]))};
  });
  RegisterGrad("Reciprocal",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& y = e.outputs[0];
    return std::vector<Tensor>{ops::neg(g[0] * y * y)};
  });
  RegisterGrad("Sign", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ops::zeros_like(e.inputs[0])};
  });
  RegisterGrad("Floor", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ops::zeros_like(e.inputs[0])};
  });
  RegisterGrad("Identity", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{g[0]};
  });
  RegisterGrad("StopGradient",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{Tensor()};  // gradient blocked, by design
  });
  RegisterGrad("ZerosLike", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{Tensor()};
  });
  RegisterGrad("OnesLike", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{Tensor()};
  });
  RegisterGrad("Cast", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    DType src = e.inputs[0].dtype();
    if (!IsFloating(src)) return std::vector<Tensor>{Tensor()};
    return std::vector<Tensor>{ops::cast(g[0], src)};
  });
  RegisterGrad("Select", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& cond = e.inputs[0];
    Tensor zeros = ops::zeros_like(g[0]);
    return std::vector<Tensor>{Tensor(), ops::select(cond, g[0], zeros),
                               ops::select(cond, zeros, g[0])};
  });

  // ---- matmul / conv / pool / norm ----------------------------------------------
  RegisterGrad("MatMul", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    bool ta = false, tb = false;
    if (auto it = e.attrs.find("transpose_a");
        it != e.attrs.end() && it->second.Is<bool>()) {
      ta = it->second.Get<bool>();
    }
    if (auto it = e.attrs.find("transpose_b");
        it != e.attrs.end() && it->second.Is<bool>()) {
      tb = it->second.Get<bool>();
    }
    const Tensor& a = e.inputs[0];
    const Tensor& b = e.inputs[1];
    Tensor da, db;
    if (!ta && !tb) {
      da = ops::matmul(g[0], b, false, true);
      db = ops::matmul(a, g[0], true, false);
    } else if (!ta && tb) {
      da = ops::matmul(g[0], b, false, false);
      db = ops::matmul(g[0], a, true, false);
    } else if (ta && !tb) {
      da = ops::matmul(b, g[0], false, true);
      db = ops::matmul(a, g[0], false, false);
    } else {
      da = ops::matmul(b, g[0], true, true);
      db = ops::matmul(g[0], a, true, true);
    }
    return std::vector<Tensor>{da, db};
  });

  RegisterGrad("Conv2D", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& x = e.inputs[0];
    const Tensor& filter = e.inputs[1];
    AttrMap input_attrs;
    input_attrs["strides"] = AttrValue(AttrVec(e, "strides"));
    input_attrs["padding"] = AttrValue(AttrString(e, "padding"));
    input_attrs["input_shape"] = AttrValue(x.shape());
    TFE_ASSIGN_OR_RETURN(Tensor dx,
                         DispatchSingle({.op_name = "Conv2DBackpropInput",
                                         .inputs = {filter, g[0]},
                                         .attrs = input_attrs,
                                         .device = e.device}));
    AttrMap filter_attrs;
    filter_attrs["strides"] = AttrValue(AttrVec(e, "strides"));
    filter_attrs["padding"] = AttrValue(AttrString(e, "padding"));
    filter_attrs["filter_shape"] = AttrValue(filter.shape());
    TFE_ASSIGN_OR_RETURN(Tensor df,
                         DispatchSingle({.op_name = "Conv2DBackpropFilter",
                                         .inputs = {x, g[0]},
                                         .attrs = filter_attrs,
                                         .device = e.device}));
    return std::vector<Tensor>{dx, df};
  });

  RegisterGrad("MaxPool", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    AttrMap attrs;
    attrs["ksize"] = AttrValue(AttrVec(e, "ksize"));
    attrs["strides"] = AttrValue(AttrVec(e, "strides"));
    attrs["padding"] = AttrValue(AttrString(e, "padding"));
    TFE_ASSIGN_OR_RETURN(
        Tensor dx, DispatchSingle({.op_name = "MaxPoolGrad",
                                   .inputs = {e.inputs[0], e.outputs[0], g[0]},
                                   .attrs = attrs,
                                   .device = e.device}));
    return std::vector<Tensor>{dx};
  });
  RegisterGrad("AvgPool", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    AttrMap attrs;
    attrs["ksize"] = AttrValue(AttrVec(e, "ksize"));
    attrs["strides"] = AttrValue(AttrVec(e, "strides"));
    attrs["padding"] = AttrValue(AttrString(e, "padding"));
    attrs["input_shape"] = AttrValue(e.inputs[0].shape());
    TFE_ASSIGN_OR_RETURN(Tensor dx, DispatchSingle({.op_name = "AvgPoolGrad",
                                                    .inputs = {g[0]},
                                                    .attrs = attrs,
                                                    .device = e.device}));
    return std::vector<Tensor>{dx};
  });

  RegisterGrad("FusedBatchNorm",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    AttrMap attrs;
    if (auto it = e.attrs.find("epsilon");
        it != e.attrs.end() && it->second.Is<double>()) {
      attrs["epsilon"] = it->second;
    }
    TFE_ASSIGN_OR_RETURN(
        std::vector<Tensor> grads,
        Dispatch({.op_name = "FusedBatchNormGrad",
                  .inputs = {g[0], e.inputs[0], e.inputs[1], e.outputs[1],
                             e.outputs[2]},
                  .attrs = attrs,
                  .device = e.device}));
    // dx, dscale, doffset; no gradient for the moving statistics.
    return std::vector<Tensor>{grads[0], grads[1], grads[2], Tensor(),
                               Tensor()};
  });

  // ---- softmax family -----------------------------------------------------------
  RegisterGrad("Softmax", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& y = e.outputs[0];
    int64_t last = y.shape().rank() - 1;
    Tensor inner = ops::reduce_sum(g[0] * y, {last}, /*keep_dims=*/true);
    return std::vector<Tensor>{(g[0] - inner) * y};
  });
  RegisterGrad("LogSoftmax",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& y = e.outputs[0];
    int64_t last = y.shape().rank() - 1;
    Tensor softmax = ops::exp(y);
    Tensor summed = ops::reduce_sum(g[0], {last}, /*keep_dims=*/true);
    return std::vector<Tensor>{g[0] - softmax * summed};
  });
  RegisterGrad("SparseSoftmaxCrossEntropyWithLogits",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    // outputs: loss [b], backprop [b,c]; route d(loss) through the cached
    // backprop. Gradients flowing into the backprop output are unsupported
    // (as in TF).
    Tensor dlogits = ops::expand_dims(g[0], 1) * e.outputs[1];
    return std::vector<Tensor>{dlogits, Tensor()};
  });

  // ---- reductions ------------------------------------------------------------------
  RegisterGrad("Sum", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ExpandReducedGrad(g[0], e)};
  });
  RegisterGrad("Mean", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    Tensor expanded = ExpandReducedGrad(g[0], e);
    Tensor count =
        CastedScalar(static_cast<double>(ReducedElementCount(e)), expanded);
    return std::vector<Tensor>{expanded / count};
  });
  for (const char* op : {"Max", "Min"}) {
    RegisterGrad(op, [](const TapeEntry& e, const std::vector<Tensor>& g)
                     -> StatusOr<std::vector<Tensor>> {
      // Distribute the gradient evenly across all extremal positions.
      const Tensor& x = e.inputs[0];
      Tensor y_b = ExpandReducedGrad(e.outputs[0], e);  // broadcast, not sum
      Tensor g_b = ExpandReducedGrad(g[0], e);
      Tensor indicator = ops::cast(ops::equal(x, y_b), x.dtype());
      std::vector<int64_t> axes;
      if (auto it = e.attrs.find("axis");
          it != e.attrs.end() && it->second.Is<std::vector<int64_t>>()) {
        axes = it->second.Get<std::vector<int64_t>>();
      }
      bool keep = false;
      if (auto kd = e.attrs.find("keep_dims");
          kd != e.attrs.end() && kd->second.Is<bool>()) {
        keep = kd->second.Get<bool>();
      }
      Tensor num_b =
          ExpandReducedGrad(ops::reduce_sum(indicator, axes, keep), e);
      return std::vector<Tensor>{indicator * g_b / num_b};
    });
  }

  // ---- shape ops -------------------------------------------------------------------
  RegisterGrad("Reshape", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{
        ops::reshape(g[0], e.inputs[0].shape().dims())};
  });
  RegisterGrad("ExpandDims",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{
        ops::reshape(g[0], e.inputs[0].shape().dims())};
  });
  RegisterGrad("Squeeze", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{
        ops::reshape(g[0], e.inputs[0].shape().dims())};
  });
  RegisterGrad("Transpose",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    std::vector<int64_t> perm = AttrVec(e, "perm");
    std::vector<int64_t> inverse(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
    return std::vector<Tensor>{ops::transpose(g[0], inverse)};
  });
  RegisterGrad("Concat", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    int64_t axis = 0;
    if (auto it = e.attrs.find("axis");
        it != e.attrs.end() && it->second.Is<int64_t>()) {
      axis = it->second.Get<int64_t>();
    }
    if (axis < 0) axis += e.inputs[0].shape().rank();
    std::vector<Tensor> grads;
    grads.reserve(e.inputs.size());
    int64_t offset = 0;
    for (const Tensor& input : e.inputs) {
      std::vector<int64_t> begin(input.shape().rank(), 0);
      begin[axis] = offset;
      grads.push_back(ops::slice(g[0], begin, input.shape().dims()));
      offset += input.shape().dim(static_cast<int>(axis));
    }
    return grads;
  });
  RegisterGrad("Slice", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    std::vector<int64_t> begin = AttrVec(e, "begin");
    const Shape& in = e.inputs[0].shape();
    const Shape& out = e.outputs[0].shape();
    std::vector<int64_t> paddings(in.rank() * 2);
    for (int i = 0; i < in.rank(); ++i) {
      paddings[2 * i] = begin[i];
      paddings[2 * i + 1] = in.dims()[i] - begin[i] - out.dims()[i];
    }
    return std::vector<Tensor>{ops::pad(g[0], paddings)};
  });
  RegisterGrad("Pad", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    std::vector<int64_t> paddings = AttrVec(e, "paddings");
    const Shape& in = e.inputs[0].shape();
    std::vector<int64_t> begin(in.rank());
    for (int i = 0; i < in.rank(); ++i) begin[i] = paddings[2 * i];
    return std::vector<Tensor>{ops::slice(g[0], begin, in.dims())};
  });
  RegisterGrad("Tile", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    std::vector<int64_t> multiples = AttrVec(e, "multiples");
    const Shape& in = e.inputs[0].shape();
    // Reshape to [m0, d0, m1, d1, ...] and sum the multiple axes.
    std::vector<int64_t> split_dims;
    std::vector<int64_t> sum_axes;
    for (int i = 0; i < in.rank(); ++i) {
      sum_axes.push_back(static_cast<int64_t>(split_dims.size()));
      split_dims.push_back(multiples[i]);
      split_dims.push_back(in.dims()[i]);
    }
    Tensor reshaped = ops::reshape(g[0], split_dims);
    return std::vector<Tensor>{ops::reduce_sum(reshaped, sum_axes)};
  });
  RegisterGrad("Gather", [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    const Tensor& params = e.inputs[0];
    const Tensor& indices = e.inputs[1];
    // Flatten the index dimensions of the gradient back to rows.
    std::vector<int64_t> row_shape = {-1};
    for (int i = 1; i < params.shape().rank(); ++i) {
      row_shape.push_back(params.shape().dims()[i]);
    }
    Tensor flat_grad = ops::reshape(g[0], row_shape);
    Tensor flat_indices = ops::reshape(
        indices, {indices.shape().IsScalar() ? 1 : -1});
    AttrMap attrs;
    attrs["num_segments"] = AttrValue(params.shape().dim(0));
    TFE_ASSIGN_OR_RETURN(
        Tensor dparams,
        DispatchSingle({.op_name = "UnsortedSegmentSum",
                        .inputs = {flat_grad, flat_indices},
                        .attrs = std::move(attrs),
                        .device = e.device}));
    return std::vector<Tensor>{dparams, Tensor()};
  });
  RegisterGrad("UnsortedSegmentSum",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{ops::gather(g[0], e.inputs[1]), Tensor()};
  });

  // ---- state -----------------------------------------------------------------------
  // Reading a variable is the identity onto its storage: the value gradient
  // accumulates on the resource handle, which is how tapes express
  // d(target)/d(variable) (paper §4.3).
  RegisterGrad("ReadVariableOp",
               [](const TapeEntry& e, const std::vector<Tensor>& g)
                   -> StatusOr<std::vector<Tensor>> {
    return std::vector<Tensor>{g[0]};
  });

  RegisterFunctionGradients();
}

}  // namespace tfe
