// Shape inference.
//
// Every op definition carries a shape function. It serves three masters:
//  1. tracing — symbolic tensors need dtypes/shapes before anything runs
//     (paper §4.1: in a graph-building context "operations return symbolic
//     representations of values to be computed");
//  2. simulation-only devices — output buffers are allocated from inferred
//     shapes when kernels are not executed;
//  3. validation — eager execution checks kernel outputs against inference
//     (exercised by the property tests).
#ifndef TFE_OPS_SHAPE_INFERENCE_H_
#define TFE_OPS_SHAPE_INFERENCE_H_

#include <functional>
#include <string>
#include <vector>

#include "ops/attr_value.h"
#include "support/status.h"
#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace tfe {

// Dtype + (possibly partial) shape of one op input or output.
struct TypeAndShape {
  DType dtype = DType::kInvalid;
  Shape shape;
};

class InferenceContext {
 public:
  InferenceContext(std::vector<TypeAndShape> inputs, const AttrMap* attrs)
      : inputs_(std::move(inputs)), attrs_(attrs) {}

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  DType input_dtype(int i) const { return inputs_.at(i).dtype; }
  const Shape& input_shape(int i) const { return inputs_.at(i).shape; }

  // Attr access. Missing attrs produce InvalidArgument.
  template <typename T>
  StatusOr<T> GetAttr(const std::string& name) const {
    auto it = attrs_->find(name);
    if (it == attrs_->end()) {
      return InvalidArgument("Missing attr '" + name + "'");
    }
    if (!it->second.Is<T>()) {
      return InvalidArgument("Attr '" + name + "' has unexpected type");
    }
    return it->second.Get<T>();
  }

  template <typename T>
  T GetAttrOr(const std::string& name, T fallback) const {
    auto it = attrs_->find(name);
    if (it == attrs_->end() || !it->second.Is<T>()) return fallback;
    return it->second.Get<T>();
  }

  void AddOutput(DType dtype, Shape shape) {
    outputs_.push_back({dtype, std::move(shape)});
  }

  // Rewrites the dtype of an already-added output (e.g. comparison ops
  // reuse the broadcast shape logic but emit bool).
  void SetOutputDType(int i, DType dtype) { outputs_.at(i).dtype = dtype; }

  const std::vector<TypeAndShape>& outputs() const { return outputs_; }

 private:
  std::vector<TypeAndShape> inputs_;
  const AttrMap* attrs_;
  std::vector<TypeAndShape> outputs_;
};

using ShapeInferenceFn = std::function<Status(InferenceContext*)>;

// Common shape functions, shared across op definitions.
namespace shape_fn {

// All outputs identical to input 0.
Status UnchangedShape(InferenceContext* ctx);
// Broadcasting binary op: output = broadcast(input0, input1), dtype of
// input 0.
Status BroadcastBinary(InferenceContext* ctx);
// Scalar output of the given dtype attr (or input 0 dtype).
Status ScalarOfInputDType(InferenceContext* ctx);

}  // namespace shape_fn

}  // namespace tfe

#endif  // TFE_OPS_SHAPE_INFERENCE_H_
