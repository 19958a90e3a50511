// Operation definitions: everything the runtime knows about one primitive.
//
// An OpDef is the stage-agnostic description of a primitive operation — its
// shape function, traits, kernel and gradient in one registry entry. Both
// the imperative dispatcher and the tracer consult the same registry, which
// is what gives TensorFlow Eager its "single set of primitive operations"
// shared across execution modes (paper §1, contribution 1).
//
// Everything the runtime needs to know about what an op *is* is a trait
// here, set where the op is registered; no module outside registration and
// serialization compares op names (the lint.op_names_confined ctest).
#ifndef TFE_OPS_OP_DEF_H_
#define TFE_OPS_OP_DEF_H_

#include <functional>
#include <string>
#include <vector>

#include "device/cost_model.h"
#include "kernels/fused_elementwise.h"
#include "ops/attr_value.h"
#include "ops/shape_inference.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

class EagerContext;
class KernelContext;
struct Node;
struct TapeEntry;

// A kernel: the op's implementation (paper §4 terminology). All kernels in
// this reproduction compute on host memory; the simulated accelerators reuse
// the CPU math (device placement still matters — it drives transfers, cost
// accounting, and kernel-availability-based placement, as in the paper §4.4).
// A kernel reads its caller's request from attrs and what the runtime proved
// (a fused run's program, a donor input) from KernelContext (ops/kernel.h).
using KernelFn = std::function<Status(KernelContext*)>;

// A gradient function receives the recorded forward entry and the gradients
// flowing into its outputs, and returns gradients for each input (undefined
// where no gradient flows). Gradient functions compute with primitive ops
// through Dispatch(), so they run eagerly or staged depending on the ambient
// context (paper §4.2).
using GradFn = std::function<StatusOr<std::vector<Tensor>>(
    const TapeEntry& entry, const std::vector<Tensor>& grad_outputs)>;

struct OpDef {
  std::string name;

  // Number of tensor inputs; kVariadic means determined at call time.
  static constexpr int kVariadic = -1;
  int num_inputs = 0;

  // Stateful ops (variable reads/writes, random with stateful seed,
  // host_func, save/restore) are never pruned, folded, or CSE'd, matching
  // the paper §5: "non-stateful operations that are not reachable from the
  // outputs of a function are pruned".
  bool is_stateful = false;

  // Whether a gradient function may be registered; tapes raise an error when
  // asked to differentiate through a non-differentiable op.
  bool differentiable = true;

  // Must really execute even on timing-only simulated devices: function
  // calls drive the executor, host funcs run imperative callbacks, and state
  // ops maintain variable/checkpoint contents. Such ops stay on the
  // synchronous path in async mode (variable ops excepted), and none but a
  // function call may be dispatched to a remote device.
  bool always_executes = false;

  // Reads or writes a variable: runs on the variable's device (paper §4.4)
  // and is sequenced through that device's queue in async mode.
  bool variable_op = false;

  // Stateful but changes no state (ReadVariableOp, NoOp): batch-safe in
  // serving. A read-only variable op is a read, which tapes watch (§4.3).
  bool read_only = false;

  // Stateful only through a seed-0 draw (the random ops).
  bool pure_when_seeded = false;

  // Arg and Const nodes are bound to a call argument or a constant payload,
  // not computed by a kernel.
  enum class Binding { kNone, kArg, kConst };
  Binding binding = Binding::kNone;

  // The Call op (paper §4.1): runs the graph function its "function" attr
  // names.
  bool function_call = false;

  // Runs an imperative host callback (paper §4.7); executed eagerly, the
  // tape records the callback's ops instead of this op.
  bool host_callback = false;

  // Role in a fused elementwise run; kNone when the op never fuses.
  kernels::FusedMemberClass fused;

  // How a simulated device prices one execution.
  OpCostClass cost = OpCostClass::kElementwise;

  ShapeInferenceFn shape_fn;

  // Traced output types of a function-valued op, which shape_fn cannot
  // infer (Call, Cond, While, WhileGrad); empty for every other op.
  std::function<StatusOr<std::vector<TypeAndShape>>(
      EagerContext* ctx, const std::vector<Tensor>& inputs,
      const AttrMap& attrs)>
      trace_outputs;

  // How a forward variant (autodiff/function_grad.h) rewrites a node of
  // this op so the node also outputs what its gradient reads. Empty for ops
  // whose gradient needs only the node's inputs and outputs; While sets it
  // to record its forward stack.
  std::function<Status(EagerContext* ctx, Node& node)> forward_rewrite;

  // Attached after the definition by OpRegistry::RegisterKernel and
  // RegisterGradient; empty when the op has none.
  KernelFn kernel;
  GradFn gradient;
};

}  // namespace tfe

#endif  // TFE_OPS_OP_DEF_H_
