#include "runtime/dispatch.h"

#include "autodiff/tape.h"
#include "ops/op_registry.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "staging/trace_context.h"
#include "support/strings.h"

namespace tfe {

StatusOr<std::vector<TypeAndShape>> FunctionOpOutputTypes(
    EagerContext* ctx, const std::string& op_name, const AttrMap& attrs,
    const char* function_attr) {
  std::vector<TypeAndShape> types;
  auto n = attrs.find("num_declared_outputs");
  if (n != attrs.end() && n->second.Is<int64_t>()) {
    for (int64_t i = 0; i < n->second.Get<int64_t>(); ++i) {
      auto dt = attrs.find(strings::StrCat("out_dtype_", i));
      auto sh = attrs.find(strings::StrCat("out_shape_", i));
      if (dt == attrs.end() || !dt->second.Is<DType>() || sh == attrs.end() ||
          !sh->second.Is<Shape>()) {
        return InvalidArgument(op_name +
                               " is missing a declared output dtype/shape");
      }
      types.push_back({dt->second.Get<DType>(), sh->second.Get<Shape>()});
    }
    return types;
  }
  if (function_attr == nullptr) {
    return InvalidArgument(op_name + " requires declared output types");
  }
  auto name_it = attrs.find(function_attr);
  if (name_it == attrs.end() || !name_it->second.Is<std::string>()) {
    return InvalidArgument(op_name + " op requires a '" +
                           std::string(function_attr) + "' attr");
  }
  TFE_ASSIGN_OR_RETURN(
      std::shared_ptr<GraphFunction> callee,
      ctx->functions().Find(name_it->second.Get<std::string>()));
  for (int i = 0; i < callee->num_outputs(); ++i) {
    types.push_back(callee->output_type(i));
  }
  return types;
}

StatusOr<std::vector<Tensor>> Dispatch(OpCall call) {
  static profiler::Counter* dispatch_ops =
      profiler::Metrics().GetCounter("dispatch.ops");
  dispatch_ops->Increment();
  profiler::Scope dispatch_span(profiler::EventKind::kDispatch, call.op_name);

  EagerContext* ctx = call.ctx != nullptr ? call.ctx : EagerContext::Global();
  TraceContext* trace = TraceContext::Current();
  TFE_ASSIGN_OR_RETURN(const OpDef* op,
                       OpRegistry::Global()->LookUp(call.op_name));

  std::vector<Tensor> outputs;
  if (trace != nullptr) {
    // Staging: record the op; non-primitive work (shape inference) happens
    // now, kernels at graph-execution time. Function-valued ops take their
    // output signature from their callees, not a shape function.
    std::vector<TypeAndShape> pre_inferred;
    if (op->trace_outputs) {
      TFE_ASSIGN_OR_RETURN(pre_inferred,
                           op->trace_outputs(ctx, call.inputs, call.attrs));
    }
    // Tracing executes the host-language function: recording an op costs a
    // host dispatch just like running it eagerly would (the reason staged
    // loops beat per-iteration re-tracing — one trace, many executions).
    ctx->AdvanceHostNs(ctx->host_profile().per_op_dispatch_ns);
    TFE_ASSIGN_OR_RETURN(outputs,
                         trace->RecordOp(call.op_name, call.inputs, call.attrs,
                                         call.device,
                                         std::move(pre_inferred)));
  } else {
    TFE_ASSIGN_OR_RETURN(outputs, ctx->RunPrimitive(*op, call.inputs,
                                                    call.attrs, call.device));
  }

  // Offer to the gradient tapes. One exception: an *eagerly executed*
  // host callback runs its ops through this dispatcher, so they were
  // already recorded; recording the callback op itself would double-count
  // (paper §4.7: "when executing in imperative mode, wrapping a Python
  // function in a py_func has essentially no effect").
  //
  // Buffer donation leans on this call happening at *dispatch* time: an
  // active tape's TapeEntry keeps whole input/output Tensors (not ids), so
  // by the time the op-queue drain weighs donating a buffer, anything the
  // tape will ever need already holds extra state/handle references and
  // fails the drain's exclusivity counts. Recording must never be deferred
  // past enqueue, and TapeEntry must never be weakened to id-only, or
  // fused runs would overwrite buffers the backward pass still reads.
  if (!(trace == nullptr && op->host_callback)) {
    GradientTape::RecordOperation(*op, call.attrs, call.inputs, outputs,
                                  call.device);
  }
  return outputs;
}

StatusOr<Tensor> DispatchSingle(OpCall call) {
  std::string op_name = call.op_name;
  TFE_ASSIGN_OR_RETURN(std::vector<Tensor> outputs, Dispatch(std::move(call)));
  if (outputs.size() != 1) {
    return Internal(strings::StrCat("Op ", op_name, " produced ",
                                    outputs.size(),
                                    " outputs; expected exactly 1"));
  }
  return outputs[0];
}

}  // namespace tfe
