#include "staging/control_flow.h"

#include <algorithm>
#include <iterator>

#include "api/ops_api.h"
#include "autodiff/function_grad.h"
#include "autodiff/tape.h"
#include "executor/executor.h"
#include "kernels/kernel_util.h"
#include "ops/op_registry.h"
#include "profiler/profiler.h"
#include "runtime/dispatch.h"
#include "runtime/eager_context.h"
#include "support/strings.h"
#include "tensor/tensor_util.h"

namespace tfe {

namespace {

// Validates that two concrete branches agree on output dtypes (shapes may
// differ in dims but must be compatible) and returns the merged types.
StatusOr<std::vector<TypeAndShape>> MergeOutputTypes(
    const GraphFunction& a, const GraphFunction& b) {
  if (a.num_outputs() != b.num_outputs()) {
    return InvalidArgument(
        strings::StrCat("cond branches produce different output counts: ",
                        a.num_outputs(), " vs ", b.num_outputs()));
  }
  std::vector<TypeAndShape> merged;
  for (int i = 0; i < a.num_outputs(); ++i) {
    TypeAndShape ta = a.output_type(i);
    TypeAndShape tb = b.output_type(i);
    if (ta.dtype != tb.dtype) {
      return InvalidArgument("cond branches disagree on output dtype");
    }
    if (ta.shape == tb.shape) {
      merged.push_back(ta);
    } else if (ta.shape.rank() == tb.shape.rank()) {
      std::vector<int64_t> dims(ta.shape.rank());
      for (int d = 0; d < ta.shape.rank(); ++d) {
        dims[d] = ta.shape.dims()[d] == tb.shape.dims()[d]
                      ? ta.shape.dims()[d]
                      : kUnknownDim;
      }
      merged.push_back({ta.dtype, Shape(std::move(dims))});
    } else {
      return InvalidArgument("cond branches disagree on output rank");
    }
  }
  return merged;
}

StatusOr<bool> ScalarPred(const Tensor& pred) {
  if (!pred.defined() || pred.is_symbolic()) {
    return Internal("Control-flow predicate is not concrete");
  }
  if (pred.is_opaque()) {
    return FailedPrecondition(
        "Value-dependent control flow cannot run on a timing-only simulated "
        "device (the predicate has no materialized value)");
  }
  if (pred.dtype() != DType::kBool || pred.num_elements() != 1) {
    return InvalidArgument("Control-flow predicate must be a scalar bool");
  }
  return pred.data<bool>()[0];
}

// Resolves `name` and runs it on `inputs` (explicit + that function's
// captures).
StatusOr<Executor::Result> RunBranch(EagerContext* ctx,
                                     const std::string& name,
                                     std::vector<Tensor> inputs,
                                     Device* device, uint64_t start_ns,
                                     bool compiled, uint64_t rng_stream_base) {
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> fn,
                       ctx->functions().Find(name));
  return Executor(ctx).Run(*fn, inputs, device, start_ns, compiled,
                           rng_stream_base);
}

Status CondKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto then_name, ctx->GetAttr<std::string>("then_function"));
  TFE_ASSIGN_OR_RETURN(auto else_name, ctx->GetAttr<std::string>("else_function"));
  TFE_ASSIGN_OR_RETURN(int64_t num_args, ctx->GetAttr<int64_t>("num_args"));
  int64_t then_caps = ctx->GetAttrOr<int64_t>("then_captures", 0);
  TFE_ASSIGN_OR_RETURN(bool pred, ScalarPred(ctx->input(0)));

  // Input layout: [pred, args..., then_captures..., else_captures...].
  std::vector<Tensor> inputs(ctx->inputs().begin() + 1,
                             ctx->inputs().begin() + 1 + num_args);
  if (pred) {
    for (int64_t i = 0; i < then_caps; ++i) {
      inputs.push_back(ctx->input(static_cast<int>(1 + num_args + i)));
    }
  } else {
    for (int i = static_cast<int>(1 + num_args + then_caps);
         i < ctx->num_inputs(); ++i) {
      inputs.push_back(ctx->input(i));
    }
  }
  TFE_ASSIGN_OR_RETURN(
      Executor::Result result,
      RunBranch(ctx->eager_context(), pred ? then_name : else_name,
                std::move(inputs), ctx->device(), ctx->start_ns(),
                ctx->compiled(), ctx->rng_stream()));
  for (size_t i = 0; i < result.outputs.size(); ++i) {
    ctx->SetOutput(static_cast<int>(i), result.outputs[i]);
  }
  ctx->set_completion_ns(result.finish_ns);
  return Status::OK();
}

// A While's forward stack: for each iteration, the loop variables that
// entered the body, then the intermediates the loop backward reads. The
// While kernel fills it; WhileGrad only reads it, so one stack serves every
// gradient a persistent tape takes. Its size is bounded by
// maximum_iterations.
class LoopStack : public ResourceBase {
 public:
  std::string TypeName() const override { return "LoopStack"; }

  std::vector<std::vector<Tensor>> frames;
};

// Drives one While loop over resolved cond and body functions: runs
// cond, then body, until cond yields false. Iteration k runs cond on 2k+1
// and body on 2k+2 in the space spread from this node's stream, so random
// ops draw fresh values each iteration, deterministically. With a `stack`,
// the body is the loop forward (function_grad.h): it returns the loop
// variables, then the intermediates the loop backward reads, and each
// iteration pushes one frame. On success `vars` holds the final loop
// variables, `now_ns` the loop's finish time, and the result is the number
// of completed iterations.
StatusOr<int64_t> RunWhileLoop(
    KernelContext* ctx, const GraphFunction& cond_run,
    const GraphFunction& body_run, const std::vector<Tensor>& cond_captures,
    const std::vector<Tensor>& body_captures, int64_t max_iterations,
    std::vector<Tensor>* vars, uint64_t* now_ns, LoopStack* stack) {
  EagerContext* ectx = ctx->eager_context();
  const size_t num_vars = vars->size();
  const uint64_t rng_root = random::SplitMix64(ctx->rng_stream());
  for (int64_t iteration = 0;; ++iteration) {
    if (iteration >= max_iterations) {
      return FailedPrecondition("While exceeded maximum_iterations");
    }
    const uint64_t iter_base = rng_root + 2 * static_cast<uint64_t>(iteration);
    std::vector<Tensor> cond_inputs = *vars;
    cond_inputs.insert(cond_inputs.end(), cond_captures.begin(),
                       cond_captures.end());
    TFE_ASSIGN_OR_RETURN(
        Executor::Result cond_result,
        Executor(ectx).Run(cond_run, cond_inputs, ctx->device(), *now_ns,
                           ctx->compiled(), iter_base + 1));
    *now_ns = cond_result.finish_ns;
    if (cond_result.outputs.size() != 1) {
      return InvalidArgument("While condition must produce one output");
    }
    TFE_ASSIGN_OR_RETURN(bool keep_going, ScalarPred(cond_result.outputs[0]));
    if (!keep_going) return iteration;

    std::vector<Tensor> body_inputs = *vars;
    body_inputs.insert(body_inputs.end(), body_captures.begin(),
                       body_captures.end());
    TFE_ASSIGN_OR_RETURN(
        Executor::Result body_result,
        Executor(ectx).Run(body_run, body_inputs, ctx->device(), *now_ns,
                           ctx->compiled(), iter_base + 2));
    *now_ns = body_result.finish_ns;
    std::vector<Tensor>& outputs = body_result.outputs;
    if (stack == nullptr ? outputs.size() != num_vars
                         : outputs.size() < num_vars) {
      return InvalidArgument("While body must return the loop variables");
    }
    if (stack != nullptr) {
      std::vector<Tensor> frame = std::move(*vars);
      frame.insert(frame.end(),
                   std::make_move_iterator(outputs.begin() + num_vars),
                   std::make_move_iterator(outputs.end()));
      stack->frames.push_back(std::move(frame));
      outputs.resize(num_vars);
    }
    *vars = std::move(outputs);
  }
}

// Input layout: [vars..., cond_captures..., body_captures...]. Outputs: the
// final loop variables, then, when the While has a `body_forward` (the
// stacked form WhileGrad differentiates), its LoopStack.
Status WhileKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto cond_name, ctx->GetAttr<std::string>("cond_function"));
  TFE_ASSIGN_OR_RETURN(auto body_name, ctx->GetAttr<std::string>("body_function"));
  TFE_ASSIGN_OR_RETURN(int64_t num_vars, ctx->GetAttr<int64_t>("num_vars"));
  int64_t cond_caps = ctx->GetAttrOr<int64_t>("cond_captures", 0);
  int64_t max_iterations =
      ctx->GetAttrOr<int64_t>("maximum_iterations", 1'000'000);
  const std::string forward_name =
      ctx->GetAttrOr<std::string>("body_forward", "");

  std::vector<Tensor> vars(ctx->inputs().begin(),
                           ctx->inputs().begin() + num_vars);
  std::vector<Tensor> cond_captures(
      ctx->inputs().begin() + num_vars,
      ctx->inputs().begin() + num_vars + cond_caps);
  std::vector<Tensor> body_captures(
      ctx->inputs().begin() + num_vars + cond_caps, ctx->inputs().end());

  static profiler::Counter* iterations_counter =
      profiler::Metrics().GetCounter("loop.iterations");
  static profiler::Counter* body_hit_counter =
      profiler::Metrics().GetCounter("loop.body_cache_hit");
  static const uint32_t loop_name_id = profiler::Intern("staged_loop");

  uint64_t now_ns = ctx->start_ns();
  EagerContext* ectx = ctx->eager_context();
  // Iteration fast path: resolve both functions once, outside the loop —
  // each iteration is then a single executor run over the function's cached
  // plan, built on the loop's first iteration. Freed loop-state buffers
  // return to the device arena's size-class freelists, so the next
  // iteration's identically-shaped state reuses the same blocks.
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> cond_fn,
                       ectx->functions().Find(cond_name));
  TFE_ASSIGN_OR_RETURN(
      std::shared_ptr<GraphFunction> body_fn,
      ectx->functions().Find(forward_name.empty() ? body_name : forward_name));
  const bool body_plan_cached =
      Executor(ectx).HasPlan(*body_fn, ctx->device());

  std::shared_ptr<LoopStack> stack =
      forward_name.empty() ? nullptr : std::make_shared<LoopStack>();
  TFE_ASSIGN_OR_RETURN(
      int64_t completed,
      RunWhileLoop(ctx, *cond_fn, *body_fn, cond_captures, body_captures,
                   max_iterations, &vars, &now_ns, stack.get()));
  iterations_counter->Increment(static_cast<uint64_t>(completed));
  // Every iteration is a body-cache hit except the first iteration of the
  // loop run that built the body's plan.
  body_hit_counter->Increment(
      static_cast<uint64_t>(completed - (!body_plan_cached && completed > 0)));
  profiler::RecordInstant(profiler::EventKind::kLoop, loop_name_id,
                          completed);
  for (int64_t i = 0; i < num_vars; ++i) {
    ctx->SetOutput(static_cast<int>(i), vars[i]);
  }
  if (stack != nullptr) {
    ctx->SetOutput(static_cast<int>(num_vars),
                   Tensor::MakeResource(std::move(stack), ctx->device()));
  }
  ctx->set_completion_ns(now_ns);
  return Status::OK();
}

// The gradient of Cond is a Cond over the branches' staged backward
// computations: grad-branch(pred=true) rematerializes the then-branch's
// intermediates via its forward variant and runs its backward function,
// producing gradients aligned with the *full* Cond input list (zeros for
// the other branch's captures).
StatusOr<std::string> BuildCondGradBranch(
    EagerContext* ctx, const std::string& branch_name, int64_t num_args,
    int64_t my_capture_offset, int64_t my_capture_count,
    int64_t total_inputs, const std::vector<TypeAndShape>& input_types,
    const std::vector<TypeAndShape>& grad_types) {
  std::string cache_name = branch_name + "__cond_grad";
  if (ctx->functions().Contains(cache_name)) return cache_name;

  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> branch,
                       ctx->functions().Find(branch_name));
  for (const Capture& capture : branch->captures()) {
    if (capture.tensor.is_resource()) {
      return Unimplemented(
          "Gradients of cond branches that capture variables are not "
          "supported");
    }
  }
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> forward,
                       BuildForwardFunction(ctx, branch));
  TFE_ASSIGN_OR_RETURN(
      BackwardFunction backward,
      GetOrBuildBackwardFunction(ctx, forward, forward->num_outputs()));

  auto grad_fn = std::make_shared<GraphFunction>(cache_name);
  {
    TraceContext trace(grad_fn, ctx);
    // Parameters: every Cond data input (both branches' captures), then the
    // output gradients.
    std::vector<Tensor> params;
    for (const TypeAndShape& type : input_types) {
      TFE_ASSIGN_OR_RETURN(Tensor param,
                           trace.AddParameter(type.dtype, type.shape));
      params.push_back(param);
    }
    std::vector<Tensor> grad_params;
    for (const TypeAndShape& type : grad_types) {
      TFE_ASSIGN_OR_RETURN(Tensor param,
                           trace.AddParameter(type.dtype, type.shape));
      grad_params.push_back(param);
    }

    // This branch's inputs: the shared explicit args + its own captures.
    std::vector<Tensor> branch_inputs(params.begin(),
                                      params.begin() + num_args);
    for (int64_t i = 0; i < my_capture_count; ++i) {
      branch_inputs.push_back(params[my_capture_offset + i]);
    }

    // Rematerialize the forward variant's intermediates.
    AttrMap call_attrs;
    call_attrs["function"] = AttrValue(forward->name());
    call_attrs["num_original_outputs"] =
        AttrValue(static_cast<int64_t>(branch->num_outputs()));
    TFE_ASSIGN_OR_RETURN(std::vector<Tensor> full_outputs,
                         Dispatch({.op_name = "Call", .inputs = branch_inputs,
                                   .attrs = std::move(call_attrs)}));

    // Backward call: [args..., intermediates..., grads for ALL fwd outputs].
    std::vector<Tensor> backward_inputs = branch_inputs;
    for (size_t i = branch->outputs().size(); i < full_outputs.size(); ++i) {
      backward_inputs.push_back(full_outputs[i]);
    }
    for (int i = 0; i < forward->num_outputs(); ++i) {
      if (i < static_cast<int>(grad_params.size())) {
        backward_inputs.push_back(grad_params[i]);
      } else {
        backward_inputs.push_back(ops::zeros_like(full_outputs[i]));
      }
    }
    AttrMap bwd_attrs;
    bwd_attrs["function"] = AttrValue(backward.function->name());
    TFE_ASSIGN_OR_RETURN(
        std::vector<Tensor> grad_values,
        Dispatch({.op_name = "Call", .inputs = std::move(backward_inputs),
                  .attrs = std::move(bwd_attrs)}));

    // Outputs: one gradient per Cond data input; zeros where this branch
    // contributes nothing.
    std::vector<Tensor> result(total_inputs);
    for (size_t j = 0; j < grad_values.size(); ++j) {
      int arg_index = backward.grad_arg_indices[j];
      int64_t slot = arg_index < num_args
                         ? arg_index
                         : my_capture_offset + (arg_index - num_args);
      result[slot] = grad_values[j];
    }
    for (int64_t i = 0; i < total_inputs; ++i) {
      if (!result[i].defined()) result[i] = ops::zeros_like(params[i]);
    }
    for (Tensor& out : result) {
      grad_fn->outputs().push_back({out.node_id(), out.output_index()});
    }
  }
  TFE_RETURN_IF_ERROR(ctx->functions().Register(grad_fn));
  return cache_name;
}

StatusOr<std::vector<Tensor>> CondGradImpl(const TapeEntry& e,
                                           const std::vector<Tensor>& g) {
  EagerContext* ctx = EagerContext::Global();
  auto attr_str = [&](const char* name) {
    return e.attrs.at(name).Get<std::string>();
  };
  int64_t num_args = e.attrs.at("num_args").Get<int64_t>();
  int64_t then_caps = e.attrs.count("then_captures")
                          ? e.attrs.at("then_captures").Get<int64_t>()
                          : 0;
  const int64_t total_inputs = static_cast<int64_t>(e.inputs.size()) - 1;

  std::vector<TypeAndShape> input_types;
  for (size_t i = 1; i < e.inputs.size(); ++i) {
    if (e.inputs[i].is_resource()) {
      return Unimplemented(
          "Gradients of cond over resource inputs are not supported");
    }
    input_types.push_back({e.inputs[i].dtype(), e.inputs[i].shape()});
  }
  std::vector<TypeAndShape> grad_types;
  std::vector<Tensor> grads = g;
  for (size_t i = 0; i < e.outputs.size(); ++i) {
    if (!grads[i].defined()) grads[i] = ops::zeros_like(e.outputs[i]);
    grad_types.push_back({grads[i].dtype(), grads[i].shape()});
  }

  TFE_ASSIGN_OR_RETURN(
      std::string then_grad,
      BuildCondGradBranch(ctx, attr_str("then_function"), num_args,
                          /*my_capture_offset=*/num_args, then_caps,
                          total_inputs, input_types, grad_types));
  TFE_ASSIGN_OR_RETURN(
      std::string else_grad,
      BuildCondGradBranch(ctx, attr_str("else_function"), num_args,
                          /*my_capture_offset=*/num_args + then_caps,
                          total_inputs - num_args - then_caps, total_inputs,
                          input_types, grad_types));

  AttrMap attrs;
  attrs["then_function"] = AttrValue(then_grad);
  attrs["else_function"] = AttrValue(else_grad);
  attrs["num_args"] =
      AttrValue(static_cast<int64_t>(total_inputs + grads.size()));
  attrs["then_captures"] = AttrValue(static_cast<int64_t>(0));
  std::vector<Tensor> inputs = {e.inputs[0]};  // same predicate
  inputs.insert(inputs.end(), e.inputs.begin() + 1, e.inputs.end());
  inputs.insert(inputs.end(), grads.begin(), grads.end());
  TFE_ASSIGN_OR_RETURN(std::vector<Tensor> input_grads,
                       Dispatch({.op_name = "Cond",
                                 .inputs = std::move(inputs),
                                 .attrs = std::move(attrs),
                                 .device = e.device}));
  std::vector<Tensor> result(e.inputs.size());
  for (size_t i = 0; i < input_grads.size(); ++i) {
    result[i + 1] = input_grads[i];
  }
  return result;  // no gradient for the predicate
}

// ---------------------------------------------------------------------------
// While gradient: a forward stack read in reverse (DESIGN §16).
//
// Paper §4.2 differentiates a staged function through a forward variant
// that returns its intermediates and a staged backward that reads them; a
// While applies that per iteration:
//   forward:   a While with a `body_forward` attr runs the body's loop
//              forward (function_grad.h) instead of the body. Each
//              iteration pushes the loop variables that entered the body
//              and the intermediates the loop backward reads onto a
//              LoopStack, which the While outputs after the loop variables.
//              Memory bound: iterations × that frame, <= maximum_iterations;
//              captures are not stacked.
//   backward:  WhileGrad runs the loop backward for i = N-1..0 on frame i,
//              chaining the var gradients and threading capture gradients
//              through zero-seeded accumulators. It runs no forward work
//              and leaves the stack as it found it.
// The accumulator threading keeps the whole sweep a single flat left-fold in
// reverse execution order — the same association the eager tape produces for
// an unrolled loop — which is what makes While gradients bitwise-equal to
// unrolled-loop tape gradients. The backward reads the forward's own values,
// random draws included.

// Input layout: [vars..., cond_captures..., body_captures..., stack,
// output grads...]. Outputs: var gradients, then one accumulated gradient
// per capture the loop backward threads.
Status WhileGradKernel(KernelContext* ctx) {
  TFE_ASSIGN_OR_RETURN(auto bwd_name,
                       ctx->GetAttr<std::string>("body_backward"));
  TFE_ASSIGN_OR_RETURN(int64_t num_vars, ctx->GetAttr<int64_t>("num_vars"));
  int64_t cond_caps = ctx->GetAttrOr<int64_t>("cond_captures", 0);
  int64_t max_iterations =
      ctx->GetAttrOr<int64_t>("maximum_iterations", 1'000'000);
  TFE_ASSIGN_OR_RETURN(
      auto grad_arg_indices,
      ctx->GetAttr<std::vector<int64_t>>("grad_arg_indices"));
  TFE_ASSIGN_OR_RETURN(
      auto grad_output_indices,
      ctx->GetAttr<std::vector<int64_t>>("grad_output_indices"));

  const int64_t num_grad_in = static_cast<int64_t>(grad_output_indices.size());
  const int64_t stack_input = ctx->num_inputs() - num_grad_in - 1;
  const int64_t num_body_caps = stack_input - num_vars - cond_caps;
  if (num_body_caps < 0) {
    return InvalidArgument("WhileGrad input count mismatch");
  }
  const Tensor& handle = ctx->input(static_cast<int>(stack_input));
  const auto* stack =
      handle.is_resource()
          ? dynamic_cast<const LoopStack*>(handle.resource().get())
          : nullptr;
  if (stack == nullptr) {
    return InvalidArgument(strings::StrCat(
        "WhileGrad input ", stack_input, " is not a While forward stack"));
  }
  std::vector<Tensor> body_captures(
      ctx->inputs().begin() + num_vars + cond_caps,
      ctx->inputs().begin() + stack_input);
  int64_t num_accs = 0;
  for (int64_t arg : grad_arg_indices) num_accs += (arg >= num_vars) ? 1 : 0;

  EagerContext* ectx = ctx->eager_context();
  Device* device = ctx->device();
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> bwd_fn,
                       ectx->functions().Find(bwd_name));

  // The loop backward takes [vars..., body captures..., intermediates...,
  // var grads..., accumulators...]; a frame supplies the vars and the
  // intermediates.
  const int64_t frame_size =
      bwd_fn->num_args() - num_body_caps - num_grad_in - num_accs;
  if (frame_size < num_vars) {
    return InvalidArgument(strings::StrCat(
        "WhileGrad's loop backward ", bwd_name, " does not match its inputs"));
  }
  const int64_t n_iters = static_cast<int64_t>(stack->frames.size());
  if (n_iters > max_iterations) {
    return InvalidArgument(strings::StrCat(
        "While forward stack holds ", n_iters,
        " iterations, more than maximum_iterations (", max_iterations, ")"));
  }
  for (const std::vector<Tensor>& frame : stack->frames) {
    if (static_cast<int64_t>(frame.size()) != frame_size) {
      return InvalidArgument(strings::StrCat(
          "While forward stack frames hold ", frame.size(),
          " tensors; the loop backward ", bwd_name, " reads ", frame_size));
    }
  }

  static profiler::Counter* grad_iterations_counter =
      profiler::Metrics().GetCounter("loop.grad_iterations");
  static const uint32_t grad_name_id = profiler::Intern("staged_loop_grad");

  // Incoming gradients for the loop outputs (zeros where the tape had none).
  std::vector<Tensor> grad_vars(num_vars);
  for (int64_t k = 0; k < num_grad_in; ++k) {
    grad_vars[grad_output_indices[k]] =
        ctx->input(static_cast<int>(stack_input + 1 + k));
  }
  for (int64_t v = 0; v < num_vars; ++v) {
    if (!grad_vars[v].defined()) {
      const Tensor& var = ctx->input(static_cast<int>(v));
      grad_vars[v] = tensor_util::Zeros(var.dtype(), var.shape());
    }
  }

  // Zero-initialized capture accumulators, typed by the declared outputs.
  std::vector<Tensor> accs;
  for (int64_t k = 0; k < num_accs; ++k) {
    const int64_t slot = num_vars + k;
    TFE_ASSIGN_OR_RETURN(
        DType dt, ctx->GetAttr<DType>(strings::StrCat("out_dtype_", slot)));
    TFE_ASSIGN_OR_RETURN(
        Shape sh, ctx->GetAttr<Shape>(strings::StrCat("out_shape_", slot)));
    for (int64_t dim : sh.dims()) {
      if (dim == kUnknownDim) {
        return Unimplemented(
            "While capture gradients with dynamic shapes are not supported");
      }
    }
    accs.push_back(tensor_util::Zeros(dt, sh));
  }

  // Reverse sweep: run the loop backward on each frame, chain var
  // gradients, thread capture accumulators.
  uint64_t now_ns = ctx->start_ns();
  const uint64_t rng_root = random::SplitMix64(ctx->rng_stream());
  for (int64_t i = n_iters - 1; i >= 0; --i) {
    const std::vector<Tensor>& frame = stack->frames[i];
    std::vector<Tensor> bwd_inputs(frame.begin(), frame.begin() + num_vars);
    bwd_inputs.reserve(bwd_fn->num_args());
    bwd_inputs.insert(bwd_inputs.end(), body_captures.begin(),
                      body_captures.end());
    bwd_inputs.insert(bwd_inputs.end(), frame.begin() + num_vars, frame.end());
    for (int64_t idx : grad_output_indices) {
      bwd_inputs.push_back(std::move(grad_vars[idx]));
    }
    bwd_inputs.insert(bwd_inputs.end(), std::make_move_iterator(accs.begin()),
                      std::make_move_iterator(accs.end()));
    TFE_ASSIGN_OR_RETURN(
        Executor::Result bwd_result,
        Executor(ectx).Run(*bwd_fn, bwd_inputs, device, now_ns,
                           ctx->compiled(),
                           rng_root + 2 * static_cast<uint64_t>(i) + 3));
    now_ns = bwd_result.finish_ns;
    if (bwd_result.outputs.size() != grad_arg_indices.size()) {
      return Internal("While loop-backward output arity mismatch");
    }

    std::vector<Tensor> next_grad_vars(num_vars);
    size_t acc_pos = 0;
    for (size_t j = 0; j < grad_arg_indices.size(); ++j) {
      if (grad_arg_indices[j] < num_vars) {
        next_grad_vars[grad_arg_indices[j]] = bwd_result.outputs[j];
      } else {
        accs[acc_pos++] = bwd_result.outputs[j];
      }
    }
    for (int64_t v = 0; v < num_vars; ++v) {
      if (!next_grad_vars[v].defined()) {
        next_grad_vars[v] =
            tensor_util::Zeros(frame[v].dtype(), frame[v].shape());
      }
    }
    grad_vars = std::move(next_grad_vars);
    grad_iterations_counter->Increment();
  }
  profiler::RecordInstant(profiler::EventKind::kLoop, grad_name_id,
                          n_iters);

  for (int64_t v = 0; v < num_vars; ++v) {
    ctx->SetOutput(static_cast<int>(v), grad_vars[v]);
  }
  for (int64_t k = 0; k < num_accs; ++k) {
    ctx->SetOutput(static_cast<int>(num_vars + k), accs[k]);
  }
  ctx->set_completion_ns(now_ns);
  return Status::OK();
}

// The loop backward of a While over `body_name`, with its loop forward.
StatusOr<BackwardFunction> LoopBackward(EagerContext* ctx,
                                        const std::string& body_name,
                                        int64_t num_vars) {
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> body,
                       ctx->functions().Find(body_name));
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> body_fwd,
                       BuildForwardFunction(ctx, body));
  return GetOrBuildLoopBackwardFunction(ctx, body_fwd,
                                        static_cast<int>(num_vars));
}

// Puts a While's attrs into the stacked form: a `body_forward` naming the
// body's loop forward, so the While also outputs a LoopStack.
Status AddForwardStack(EagerContext* ctx, AttrMap& attrs) {
  TFE_ASSIGN_OR_RETURN(auto body_name,
                       GetAttr<std::string>(attrs, "body_function"));
  TFE_ASSIGN_OR_RETURN(int64_t num_vars, GetAttr<int64_t>(attrs, "num_vars"));
  TFE_ASSIGN_OR_RETURN(BackwardFunction loop,
                       LoopBackward(ctx, body_name, num_vars));
  attrs["body_forward"] = AttrValue(loop.loop_forward->name());
  return Status::OK();
}

// While's OpDef::forward_rewrite: a forward variant keeps each loop's stack.
// Loops over resource variables have no gradient and stay as they are.
Status StackWhileNode(EagerContext* ctx, Node& node) {
  if (node.attrs.count("body_forward") > 0) return Status::OK();
  TFE_ASSIGN_OR_RETURN(int64_t num_vars,
                       GetAttr<int64_t>(node.attrs, "num_vars"));
  for (int64_t i = 0; i < num_vars && i < node.num_outputs(); ++i) {
    if (node.outputs[i].dtype == DType::kResource) return Status::OK();
  }
  TFE_RETURN_IF_ERROR(AddForwardStack(ctx, node.attrs));
  node.outputs.push_back({DType::kResource, Shape()});
  return Status::OK();
}

StatusOr<std::vector<Tensor>> WhileGradImpl(const TapeEntry& e,
                                            const std::vector<Tensor>& g) {
  EagerContext* ctx = EagerContext::Global();
  int64_t num_vars = e.attrs.at("num_vars").Get<int64_t>();
  int64_t cond_caps = e.attrs.count("cond_captures")
                          ? e.attrs.at("cond_captures").Get<int64_t>()
                          : 0;
  int64_t max_iterations =
      e.attrs.count("maximum_iterations")
          ? e.attrs.at("maximum_iterations").Get<int64_t>()
          : 1'000'000;
  std::string body_name = e.attrs.at("body_function").Get<std::string>();

  for (int64_t i = 0; i < num_vars; ++i) {
    if (e.inputs[i].is_resource()) {
      return Unimplemented(
          "Gradients of While over resource loop variables are not "
          "supported (captured variables are fine)");
    }
  }
  auto forward_it = e.attrs.find("body_forward");
  if (forward_it == e.attrs.end() ||
      static_cast<int64_t>(e.outputs.size()) != num_vars + 1) {
    return FailedPrecondition(
        "This While ran without a forward stack, so it has no gradient: "
        "ops::while_loop records one when a tape watches the loop's "
        "inputs, and so does a staged function called under a tape");
  }
  TFE_ASSIGN_OR_RETURN(BackwardFunction loop_backward,
                       LoopBackward(ctx, body_name, num_vars));
  const std::string& stacked_by = forward_it->second.Get<std::string>();
  if (loop_backward.loop_forward->name() != stacked_by) {
    return FailedPrecondition(strings::StrCat(
        "While's forward stack was recorded by ", stacked_by,
        ", but the gradient of its body reads frames of ",
        loop_backward.loop_forward->name()));
  }

  // WhileGrad inputs: every While input, the stack, then the incoming
  // output gradients for the loop vars the backward consumes.
  std::vector<Tensor> inputs = e.inputs;
  inputs.push_back(e.outputs[num_vars]);
  for (int idx : loop_backward.grad_output_indices) {
    Tensor grad = (idx < static_cast<int>(g.size()) && g[idx].defined())
                      ? g[idx]
                      : ops::zeros_like(e.outputs[idx]);
    inputs.push_back(grad);
  }

  AttrMap attrs;
  attrs["body_backward"] = AttrValue(loop_backward.function->name());
  attrs["num_vars"] = AttrValue(num_vars);
  attrs["cond_captures"] = AttrValue(cond_caps);
  attrs["maximum_iterations"] = AttrValue(max_iterations);
  attrs["grad_arg_indices"] =
      AttrValue(std::vector<int64_t>(loop_backward.grad_arg_indices.begin(),
                                     loop_backward.grad_arg_indices.end()));
  attrs["grad_output_indices"] = AttrValue(
      std::vector<int64_t>(loop_backward.grad_output_indices.begin(),
                           loop_backward.grad_output_indices.end()));
  // Declared outputs: var gradients (typed like the loop vars), then one
  // accumulator per capture that receives a gradient.
  const int64_t num_outputs =
      num_vars +
      static_cast<int64_t>(loop_backward.accumulated_arg_indices.size());
  attrs["num_declared_outputs"] = AttrValue(num_outputs);
  for (int64_t i = 0; i < num_vars; ++i) {
    attrs[strings::StrCat("out_dtype_", i)] = AttrValue(e.inputs[i].dtype());
    attrs[strings::StrCat("out_shape_", i)] = AttrValue(e.inputs[i].shape());
  }
  for (size_t k = 0; k < loop_backward.accumulator_types.size(); ++k) {
    const int64_t slot = num_vars + static_cast<int64_t>(k);
    attrs[strings::StrCat("out_dtype_", slot)] =
        AttrValue(loop_backward.accumulator_types[k].dtype);
    attrs[strings::StrCat("out_shape_", slot)] =
        AttrValue(loop_backward.accumulator_types[k].shape);
  }

  TFE_ASSIGN_OR_RETURN(
      std::vector<Tensor> out,
      Dispatch({.op_name = "WhileGrad", .inputs = std::move(inputs),
                .attrs = std::move(attrs), .device = e.device}));

  std::vector<Tensor> result(e.inputs.size());
  for (int64_t i = 0; i < num_vars; ++i) result[i] = out[i];
  for (size_t k = 0; k < loop_backward.accumulated_arg_indices.size(); ++k) {
    // Body arg index -> While input slot (after vars and cond captures).
    int arg = loop_backward.accumulated_arg_indices[k];
    result[num_vars + cond_caps + (arg - num_vars)] =
        out[num_vars + static_cast<int64_t>(k)];
  }
  return result;  // cond captures receive no gradient
}

}  // namespace

namespace ops {

std::vector<Tensor> cond(const Tensor& pred, Function& true_fn,
                         Function& false_fn, const std::vector<Tensor>& args) {
  if (TraceContext::Current() == nullptr) {
    // Eager: ordinary host control flow over function calls (which is why
    // imperative code rarely needs this combinator at all).
    auto value = ScalarPred(pred);
    value.status().ThrowIfError();
    return *value ? true_fn(args) : false_fn(args);
  }
  EagerContext* ctx = EagerContext::Global();
  auto then_fn = true_fn.GetConcreteFunction(args);
  then_fn.status().ThrowIfError();
  auto else_fn = false_fn.GetConcreteFunction(args);
  else_fn.status().ThrowIfError();
  auto merged = MergeOutputTypes(**then_fn, **else_fn);
  merged.status().ThrowIfError();

  std::vector<Tensor> inputs = {pred};
  inputs.insert(inputs.end(), args.begin(), args.end());
  for (const Capture& capture : (*then_fn)->captures()) {
    inputs.push_back(capture.tensor);
  }
  for (const Capture& capture : (*else_fn)->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["then_function"] = AttrValue((*then_fn)->name());
  attrs["else_function"] = AttrValue((*else_fn)->name());
  attrs["num_args"] = AttrValue(static_cast<int64_t>(args.size()));
  attrs["then_captures"] =
      AttrValue(static_cast<int64_t>((*then_fn)->captures().size()));
  (void)ctx;
  auto result = Dispatch({.op_name = "Cond", .inputs = std::move(inputs),
                          .attrs = std::move(attrs)});
  result.status().ThrowIfError();
  return std::move(result).value();
}

std::vector<Tensor> while_loop(Function& cond_fn, Function& body_fn,
                               const std::vector<Tensor>& init_vars,
                               int64_t maximum_iterations) {
  if (TraceContext::Current() == nullptr) {
    std::vector<Tensor> vars = init_vars;
    for (int64_t i = 0; i < maximum_iterations; ++i) {
      Tensor keep_going = cond_fn(vars).at(0);
      auto value = ScalarPred(keep_going);
      value.status().ThrowIfError();
      if (!*value) return vars;
      vars = body_fn(vars);
    }
    throw RuntimeError(ErrorCode::kFailedPrecondition,
                       "while_loop exceeded maximum_iterations");
  }
  EagerContext* ctx = EagerContext::Global();
  auto cond_concrete = cond_fn.GetConcreteFunction(init_vars);
  cond_concrete.status().ThrowIfError();
  auto body_concrete = body_fn.GetConcreteFunction(init_vars);
  body_concrete.status().ThrowIfError();
  if ((*body_concrete)->num_outputs() !=
      static_cast<int>(init_vars.size())) {
    throw RuntimeError(ErrorCode::kInvalidArgument,
                       "while_loop body must return the loop variables");
  }

  std::vector<Tensor> inputs = init_vars;
  for (const Capture& capture : (*cond_concrete)->captures()) {
    inputs.push_back(capture.tensor);
  }
  for (const Capture& capture : (*body_concrete)->captures()) {
    inputs.push_back(capture.tensor);
  }
  AttrMap attrs;
  attrs["cond_function"] = AttrValue((*cond_concrete)->name());
  attrs["body_function"] = AttrValue((*body_concrete)->name());
  attrs["num_vars"] = AttrValue(static_cast<int64_t>(init_vars.size()));
  attrs["cond_captures"] =
      AttrValue(static_cast<int64_t>((*cond_concrete)->captures().size()));
  attrs["maximum_iterations"] = AttrValue(maximum_iterations);
  // As Function::Invoke calls a function's forward variant: a loop the
  // tape will differentiate keeps its forward stack (loops over resource
  // variables have no gradient).
  if (GradientTape::WouldRecord(inputs) &&
      std::none_of(init_vars.begin(), init_vars.end(),
                   [](const Tensor& var) { return var.is_resource(); })) {
    AddForwardStack(ctx, attrs).ThrowIfError();
  }
  auto result = Dispatch({.op_name = "While", .inputs = std::move(inputs),
                          .attrs = std::move(attrs)});
  result.status().ThrowIfError();
  std::vector<Tensor> outputs = std::move(result).value();
  outputs.resize(init_vars.size());  // the tape keeps the stack
  return outputs;
}

std::vector<Tensor> call(const std::string& function_name,
                         const std::vector<Tensor>& args,
                         const std::vector<TypeAndShape>& output_types) {
  EagerContext* ctx = EagerContext::Global();
  std::vector<Tensor> inputs = args;
  // A registered callee may carry value captures; mirror Function's calling
  // convention and append them. An unregistered callee (the recursive
  // self-call case — the function is still being traced) must be
  // capture-free, which DefineRecursiveFunction enforces.
  if (ctx->functions().Contains(function_name)) {
    auto fn = ctx->functions().Find(function_name);
    fn.status().ThrowIfError();
    for (const Capture& capture : (*fn)->captures()) {
      inputs.push_back(capture.tensor);
    }
  }
  AttrMap attrs;
  attrs["function"] = AttrValue(function_name);
  attrs["num_original_outputs"] =
      AttrValue(static_cast<int64_t>(output_types.size()));
  attrs["num_declared_outputs"] =
      AttrValue(static_cast<int64_t>(output_types.size()));
  for (size_t i = 0; i < output_types.size(); ++i) {
    attrs[strings::StrCat("out_dtype_", i)] = AttrValue(output_types[i].dtype);
    attrs[strings::StrCat("out_shape_", i)] = AttrValue(output_types[i].shape);
  }
  auto result = Dispatch({.op_name = "Call", .inputs = std::move(inputs),
                          .attrs = std::move(attrs)});
  result.status().ThrowIfError();
  return std::move(result).value();
}

}  // namespace ops

StatusOr<std::shared_ptr<GraphFunction>> DefineRecursiveFunction(
    const std::string& name, const std::vector<TypeAndShape>& arg_types,
    const std::vector<TypeAndShape>& output_types,
    const std::function<StatusOr<std::vector<Tensor>>(
        const std::vector<Tensor>&)>& body) {
  EagerContext* ctx = EagerContext::Global();
  if (ctx->functions().Contains(name)) {
    return InvalidArgument("A graph function named '" + name +
                           "' already exists");
  }
  auto fn = std::make_shared<GraphFunction>(name);
  {
    TraceContext trace(fn, ctx);
    std::vector<Tensor> params;
    for (const TypeAndShape& type : arg_types) {
      TFE_ASSIGN_OR_RETURN(Tensor param,
                           trace.AddParameter(type.dtype, type.shape));
      params.push_back(param);
    }
    TFE_ASSIGN_OR_RETURN(std::vector<Tensor> outputs, body(params));
    if (outputs.size() != output_types.size()) {
      return InvalidArgument(
          strings::StrCat("Recursive function '", name, "' returned ",
                          outputs.size(), " outputs; declared ",
                          output_types.size()));
    }
    for (size_t i = 0; i < outputs.size(); ++i) {
      Tensor out = outputs[i];
      if (!out.is_symbolic() || out.graph() != &fn->graph()) {
        TFE_ASSIGN_OR_RETURN(out, trace.Capture(out));
      }
      if (out.dtype() != output_types[i].dtype) {
        return InvalidArgument("Recursive function '" + name +
                               "' output dtype does not match its "
                               "declared signature");
      }
      fn->outputs().push_back({out.node_id(), out.output_index()});
    }
  }
  // Self-calls dispatch with the declared signature only — captures would
  // never be appended at the recursive call sites, so forbid them. Build
  // constants with ops (fill/zeros) inside the body instead of capturing
  // eager tensors.
  if (!fn->captures().empty()) {
    return InvalidArgument(
        "Recursive function '" + name +
        "' captures tensors; pass them as explicit arguments");
  }
  TFE_RETURN_IF_ERROR(FinishTrace(ctx, fn));
  return fn;
}

void RegisterControlFlowOps() {
  {
    OpDef def;
    def.name = "Cond";
    def.num_inputs = OpDef::kVariadic;
    def.is_stateful = true;  // branches may contain stateful ops
    def.differentiable = true;
    def.always_executes = true;
    def.shape_fn = [](InferenceContext*) { return Status::OK(); };
    // Branch output signatures agree (validated at construction).
    def.trace_outputs = [](EagerContext* ctx, const std::vector<Tensor>&,
                           const AttrMap& attrs) {
      return FunctionOpOutputTypes(ctx, "Cond", attrs, "then_function");
    };
    TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  }
  {
    OpDef def;
    def.name = "While";
    def.num_inputs = OpDef::kVariadic;
    def.is_stateful = true;
    def.differentiable = true;
    def.always_executes = true;
    def.shape_fn = [](InferenceContext*) { return Status::OK(); };
    // Loop-invariant: outputs have the loop variables' types, then a
    // stacked While's forward stack.
    def.trace_outputs =
        [](EagerContext*, const std::vector<Tensor>& inputs,
           const AttrMap& attrs) -> StatusOr<std::vector<TypeAndShape>> {
      auto vars_it = attrs.find("num_vars");
      if (vars_it == attrs.end() || !vars_it->second.Is<int64_t>()) {
        return InvalidArgument("While op requires a 'num_vars' attr");
      }
      std::vector<TypeAndShape> types;
      for (int64_t i = 0; i < vars_it->second.Get<int64_t>(); ++i) {
        types.push_back({inputs.at(i).dtype(), inputs.at(i).shape()});
      }
      if (attrs.count("body_forward") > 0) {
        types.push_back({DType::kResource, Shape()});
      }
      return types;
    };
    def.forward_rewrite = StackWhileNode;
    TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  }
  {
    OpDef def;
    def.name = "WhileGrad";
    def.num_inputs = OpDef::kVariadic;
    def.is_stateful = true;
    def.differentiable = true;
    def.shape_fn = [](InferenceContext*) { return Status::OK(); };
    def.trace_outputs = [](EagerContext* ctx, const std::vector<Tensor>&,
                           const AttrMap& attrs) {
      return FunctionOpOutputTypes(ctx, "WhileGrad", attrs, nullptr);
    };
    TFE_CHECK(OpRegistry::Global()->Register(std::move(def)).ok());
  }
  kernels::RegisterKernel("Cond", CondKernel);
  kernels::RegisterKernel("While", WhileKernel);
  kernels::RegisterKernel("WhileGrad", WhileGradKernel);
  TFE_CHECK(OpRegistry::Global()->RegisterGradient("Cond", CondGradImpl).ok());
  TFE_CHECK(
      OpRegistry::Global()->RegisterGradient("While", WhileGradImpl).ok());
  // Second-order While gradients are a loud Unimplemented error, never a
  // silent zero.
  TFE_CHECK(OpRegistry::Global()
                ->RegisterGradient(
                    "WhileGrad",
                    [](const TapeEntry&, const std::vector<Tensor>&)
                        -> StatusOr<std::vector<Tensor>> {
                      return Unimplemented(
                          "second-order gradients through While are not "
                          "supported");
                    })
                .ok());
}

}  // namespace tfe
