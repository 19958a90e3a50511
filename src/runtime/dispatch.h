// Multi-stage dispatch: the single entry point through which every primitive
// operation flows (paper §4.1 / DESIGN.md §5).
//
//   if a trace is active  -> record a node, return symbolic tensors (staging)
//   otherwise             -> execute the kernel now, return concrete tensors
//
// and in both cases the op is offered to the active gradient tapes — which
// is what makes the tape machinery stage-agnostic (§4.2: "gradient
// computation is itself expressed as a function which executes primitive
// operations, so it is possible to stage it or not").
#ifndef TFE_RUNTIME_DISPATCH_H_
#define TFE_RUNTIME_DISPATCH_H_

#include <string>
#include <vector>

#include "ops/attr_value.h"
#include "ops/shape_inference.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

class EagerContext;

struct OpCall {
  std::string op_name;
  std::vector<Tensor> inputs;
  AttrMap attrs;
  // Requested device name; empty defers to the DeviceScope / placement.
  std::string device;
  // Runtime to execute under; nullptr = EagerContext::Global().
  EagerContext* ctx = nullptr;
};

StatusOr<std::vector<Tensor>> Dispatch(OpCall call);

// Convenience for single-output ops; fails if the op has != 1 output.
StatusOr<Tensor> DispatchSingle(OpCall call);

// The traced output types of a function-valued `op_name` node (its
// OpDef::trace_outputs): those it declares through "num_declared_outputs"
// and "out_dtype_<i>"/"out_shape_<i>" attrs — how a recursive body records
// a Call to itself before the callee registers, and how WhileGrad types its
// gradients — else the outputs of the function its string attr
// `function_attr` names. A null `function_attr` requires declared types.
StatusOr<std::vector<TypeAndShape>> FunctionOpOutputTypes(
    EagerContext* ctx, const std::string& op_name, const AttrMap& attrs,
    const char* function_attr);

}  // namespace tfe

#endif  // TFE_RUNTIME_DISPATCH_H_
