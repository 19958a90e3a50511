#include "runtime/dispatch.h"

#include "autodiff/tape.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "staging/trace_context.h"
#include "support/strings.h"

namespace tfe {

StatusOr<std::vector<Tensor>> Dispatch(OpCall call) {
  static profiler::Counter* dispatch_ops =
      profiler::Metrics().GetCounter("dispatch.ops");
  dispatch_ops->Increment();
  profiler::Scope dispatch_span(profiler::EventKind::kDispatch, call.op_name);

  EagerContext* ctx = call.ctx != nullptr ? call.ctx : EagerContext::Global();
  TraceContext* trace = TraceContext::Current();

  std::vector<Tensor> outputs;
  if (trace != nullptr) {
    // Staging: record the op; non-primitive work (shape inference) happens
    // now, kernels at graph-execution time. The Call op's output signature
    // comes from the callee graph function, not a shape function.
    std::vector<TypeAndShape> pre_inferred;
    auto function_outputs = [&](const char* attr) -> Status {
      auto name_it = call.attrs.find(attr);
      if (name_it == call.attrs.end() || !name_it->second.Is<std::string>()) {
        return InvalidArgument(call.op_name + " op requires a '" +
                               std::string(attr) + "' attr");
      }
      TFE_ASSIGN_OR_RETURN(
          std::shared_ptr<GraphFunction> callee,
          ctx->functions().Find(name_it->second.Get<std::string>()));
      for (int i = 0; i < callee->num_outputs(); ++i) {
        pre_inferred.push_back(callee->output_type(i));
      }
      return Status::OK();
    };
    // Ops carrying an explicit declared signature (num_declared_outputs +
    // out_dtype_i/out_shape_i attrs) bypass the library lookup — this is how
    // a recursive function's body records a Call to itself before the callee
    // finishes registering, and how WhileGrad declares its var + capture
    // gradient outputs.
    auto declared_outputs = [&]() -> StatusOr<bool> {
      auto n = call.attrs.find("num_declared_outputs");
      if (n == call.attrs.end() || !n->second.Is<int64_t>()) return false;
      for (int64_t i = 0; i < n->second.Get<int64_t>(); ++i) {
        auto dt = call.attrs.find(strings::StrCat("out_dtype_", i));
        auto sh = call.attrs.find(strings::StrCat("out_shape_", i));
        if (dt == call.attrs.end() || !dt->second.Is<DType>() ||
            sh == call.attrs.end() || !sh->second.Is<Shape>()) {
          return InvalidArgument(call.op_name +
                                 " is missing a declared output dtype/shape");
        }
        pre_inferred.push_back(
            {dt->second.Get<DType>(), sh->second.Get<Shape>()});
      }
      return true;
    };
    if (call.op_name == "Call") {
      TFE_ASSIGN_OR_RETURN(bool declared, declared_outputs());
      if (!declared) TFE_RETURN_IF_ERROR(function_outputs("function"));
    } else if (call.op_name == "WhileGrad") {
      TFE_ASSIGN_OR_RETURN(bool declared, declared_outputs());
      if (!declared) {
        return InvalidArgument("WhileGrad requires declared output types");
      }
    } else if (call.op_name == "Cond") {
      // Branch output signatures agree (validated at construction).
      TFE_RETURN_IF_ERROR(function_outputs("then_function"));
    } else if (call.op_name == "While") {
      // Loop-invariant: outputs have the loop variables' types, then a
      // stacked While's forward stack.
      auto vars_it = call.attrs.find("num_vars");
      if (vars_it == call.attrs.end() || !vars_it->second.Is<int64_t>()) {
        return InvalidArgument("While op requires a 'num_vars' attr");
      }
      for (int64_t i = 0; i < vars_it->second.Get<int64_t>(); ++i) {
        pre_inferred.push_back(
            {call.inputs.at(i).dtype(), call.inputs.at(i).shape()});
      }
      if (call.attrs.count("body_forward") > 0) {
        pre_inferred.push_back({DType::kResource, Shape()});
      }
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
    TFE_ASSIGN_OR_RETURN(outputs, ctx->RunPrimitive(call.op_name, call.inputs,
                                                    call.attrs, call.device));
  }

  // Offer to the gradient tapes. One exception: an *eagerly executed*
  // HostFunc runs its callback through this dispatcher, so the callback's
  // primitive ops were already recorded; recording the HostFunc itself would
  // double-count (paper §4.7: "when executing in imperative mode, wrapping a
  // Python function in a py_func has essentially no effect").
  //
  // Buffer donation leans on this call happening at *dispatch* time: an
  // active tape's TapeEntry keeps whole input/output Tensors (not ids), so
  // by the time the op-queue drain weighs donating a buffer, anything the
  // tape will ever need already holds extra state/handle references and
  // fails the drain's exclusivity counts. Recording must never be deferred
  // past enqueue, and TapeEntry must never be weakened to id-only, or
  // fused runs would overwrite buffers the backward pass still reads.
  if (!(trace == nullptr && call.op_name == "HostFunc")) {
    GradientTape::RecordOperation(call.op_name, call.attrs, call.inputs,
                                  outputs, call.device);
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
