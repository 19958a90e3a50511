#include "autodiff/function_grad.h"

#include <map>

#include "api/ops_api.h"
#include "autodiff/tape.h"
#include "graph/passes.h"
#include "ops/op_registry.h"
#include "runtime/dispatch.h"
#include "runtime/eager_context.h"
#include "staging/trace_context.h"
#include "support/strings.h"

namespace tfe {

namespace {

constexpr char kForwardSuffix[] = "__fwd";

// All value-producing endpoints of non-Arg/non-Const nodes, in node order —
// the canonical "intermediates" list shared by the forward variant and the
// backward builder.
std::vector<Endpoint> IntermediateEndpoints(const GraphFunction& function) {
  std::vector<Endpoint> endpoints;
  const Graph& graph = function.graph();
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.is_bound()) continue;
    for (int j = 0; j < node.num_outputs(); ++j) {
      endpoints.push_back({id, j});
    }
  }
  return endpoints;
}

// Sweeps the backward of `forward` into a new, unoptimized and unregistered
// graph function (see FinishBackward). When `seed_accumulators` is
// non-null, the backward gets one extra trailing parameter per (arg index,
// type) entry, pre-seeded into the sweep's gradient map at that arg's
// endpoint — the loop-body accumulator threading described in
// function_grad.h.
StatusOr<BackwardFunction> BuildBackward(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& forward,
    int num_original_outputs,
    const std::vector<std::pair<int, TypeAndShape>>* seed_accumulators =
        nullptr) {
  const Graph& graph = forward->graph();
  auto backward_fn = std::make_shared<GraphFunction>(ctx->functions().UniqueName(
      forward->name() +
      (seed_accumulators == nullptr ? "__grad" : "__loop_grad")));
  BackwardFunction entry;

  TraceContext trace(backward_fn, ctx);

  // Symbols in the backward graph for every forward endpoint.
  std::vector<std::vector<Tensor>> value_of(graph.num_nodes());
  for (int id = 0; id < graph.num_nodes(); ++id) {
    value_of[id].resize(graph.node(id).num_outputs());
  }

  // Parameters: forward args, then intermediates, then output gradients.
  for (int arg_node : forward->arg_nodes()) {
    const TypeAndShape& type = graph.node(arg_node).outputs[0];
    if (type.dtype == DType::kResource) {
      // Resource parameters of the backward function are placeholders bound
      // at call time to the same handles the forward call received.
      TFE_ASSIGN_OR_RETURN(value_of[arg_node][0],
                           trace.AddParameter(DType::kResource, Shape()));
    } else {
      TFE_ASSIGN_OR_RETURN(value_of[arg_node][0],
                           trace.AddParameter(type.dtype, type.shape));
    }
  }
  std::vector<Endpoint> intermediates = IntermediateEndpoints(*forward);
  for (const Endpoint& e : intermediates) {
    const TypeAndShape& type = graph.endpoint_type(e);
    TFE_ASSIGN_OR_RETURN(value_of[e.node_id][e.index],
                         trace.AddParameter(type.dtype, type.shape));
  }
  // Gradients arrive for the non-resource original outputs only.
  std::map<int, Tensor> output_grads;  // original-output index -> grad param
  for (int r = 0; r < num_original_outputs; ++r) {
    const TypeAndShape& type = graph.endpoint_type(forward->outputs()[r]);
    if (type.dtype == DType::kResource) continue;
    TFE_ASSIGN_OR_RETURN(Tensor param,
                         trace.AddParameter(type.dtype, type.shape));
    output_grads.emplace(r, param);
    entry.grad_output_indices.push_back(r);
  }
  std::vector<std::pair<int, Tensor>> accumulator_params;  // arg idx -> param
  if (seed_accumulators != nullptr) {
    for (const auto& [arg_index, type] : *seed_accumulators) {
      TFE_ASSIGN_OR_RETURN(Tensor param,
                           trace.AddParameter(type.dtype, type.shape));
      accumulator_params.emplace_back(arg_index, param);
    }
  }

  // Constants materialize directly in the backward graph.
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    if (node.def->binding == OpDef::Binding::kConst) {
      TFE_ASSIGN_OR_RETURN(value_of[id][0],
                           trace.AddConstant(node.constant_value));
    }
  }

  // Reverse-mode sweep over the forward graph's structure, keyed by
  // endpoint. Gradient functions execute ops through the dispatcher, which
  // records them into this trace.
  std::map<std::pair<int, int>, Tensor> grads;
  auto accumulate = [&](const Endpoint& e, const Tensor& grad) -> Status {
    auto key = std::make_pair(e.node_id, e.index);
    auto it = grads.find(key);
    if (it == grads.end()) {
      grads.emplace(key, grad);
    } else {
      it->second = ops::add(it->second, grad);
    }
    return Status::OK();
  };
  for (const auto& [index, param] : output_grads) {
    TFE_RETURN_IF_ERROR(accumulate(forward->outputs()[index], param));
  }
  // Accumulators are the FIRST value at their arg's endpoint, so the sweep's
  // emplace-then-add behavior folds every later contribution onto them.
  for (const auto& [arg_index, param] : accumulator_params) {
    TFE_RETURN_IF_ERROR(
        accumulate({forward->arg_nodes()[arg_index], 0}, param));
  }

  for (int id = graph.num_nodes() - 1; id >= 0; --id) {
    const Node& node = graph.node(id);
    if (node.is_bound()) continue;

    std::vector<Tensor> grad_outputs(node.num_outputs());
    bool any_grad = false;
    for (int j = 0; j < node.num_outputs(); ++j) {
      auto it = grads.find({id, j});
      if (it != grads.end()) {
        grad_outputs[j] = it->second;
        any_grad = true;
      }
    }
    if (!any_grad) continue;

    if (!node.def->gradient) {
      if (!node.def->differentiable) continue;
      return Unimplemented("No gradient for op " + node.def->name +
                           " inside staged function " + forward->name());
    }
    for (int j = 0; j < node.num_outputs(); ++j) {
      if (!grad_outputs[j].defined() &&
          node.outputs[j].dtype != DType::kResource) {
        grad_outputs[j] = ops::zeros_like(value_of[id][j]);
      }
    }
    TapeEntry synthetic;
    synthetic.op = node.def;
    synthetic.attrs = node.attrs;
    synthetic.device = node.requested_device;
    for (const Endpoint& e : node.inputs) {
      synthetic.inputs.push_back(value_of[e.node_id][e.index]);
    }
    for (int j = 0; j < node.num_outputs(); ++j) {
      synthetic.outputs.push_back(value_of[id][j]);
    }
    TFE_ASSIGN_OR_RETURN(std::vector<Tensor> grad_inputs,
                         node.def->gradient(synthetic, grad_outputs));
    if (grad_inputs.size() != node.inputs.size()) {
      return Internal("Gradient arity mismatch for " + node.def->name);
    }
    for (size_t j = 0; j < grad_inputs.size(); ++j) {
      if (!grad_inputs[j].defined()) continue;
      TFE_RETURN_IF_ERROR(accumulate(node.inputs[j], grad_inputs[j]));
    }
  }

  // Outputs: the gradient for each forward arg that received one.
  for (int i = 0; i < forward->num_args(); ++i) {
    int arg_node = forward->arg_nodes()[i];
    auto it = grads.find({arg_node, 0});
    if (it == grads.end()) continue;
    Tensor grad = it->second;
    if (!grad.is_symbolic() || grad.graph() != &backward_fn->graph()) {
      TFE_ASSIGN_OR_RETURN(grad, trace.Capture(grad));
    }
    backward_fn->outputs().push_back({grad.node_id(), grad.output_index()});
    entry.grad_arg_indices.push_back(i);
  }
  entry.function = backward_fn;
  return entry;
}

// Optimizes and registers a swept backward. When `read_intermediates` is
// non-null, the backward keeps only the intermediate parameters it reads and
// lists their positions in IntermediateEndpoints order there.
Status FinishBackward(EagerContext* ctx, const GraphFunction& forward,
                      const BackwardFunction& entry,
                      std::vector<int>* read_intermediates = nullptr) {
  TFE_RETURN_IF_ERROR(passes::Optimize(*entry.function));
  if (read_intermediates != nullptr) {
    const int first = forward.num_args();
    const int count = static_cast<int>(IntermediateEndpoints(forward).size());
    TFE_ASSIGN_OR_RETURN(*read_intermediates,
                         passes::DropUnreadParameters(*entry.function, first,
                                                      first + count));
  }
  return ctx->functions().Register(entry.function);
}

}  // namespace

StatusOr<std::shared_ptr<GraphFunction>> BuildForwardFunction(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& function) {
  std::string name = function->name() + kForwardSuffix;
  if (ctx->functions().Contains(name)) {
    return ctx->functions().Find(name);
  }
  // Differentiate the program as written: clone from the pristine
  // pre-optimization snapshot when the tracer attached one, so the backward
  // sweep accumulates gradients in the same association as the eager tape
  // (CSE in the optimized graph would regroup contributions and perturb the
  // last ulp). Functions built directly from graphs (deserialized bundles)
  // have no snapshot and differentiate their own graph.
  const GraphFunction& src = function->autodiff_source() != nullptr
                                 ? *function->autodiff_source()
                                 : *function;
  auto forward = std::make_shared<GraphFunction>(name);
  TFE_RETURN_IF_ERROR(CloneGraphFunctionInto(src, *forward));
  // Nodes whose gradient reads more than their inputs and outputs (a
  // While's forward stack) output it here, as one more intermediate.
  Graph& graph = forward->graph();
  for (int id = 0; id < graph.num_nodes(); ++id) {
    Node& node = graph.node(id);
    if (node.def->forward_rewrite) {
      TFE_RETURN_IF_ERROR(node.def->forward_rewrite(ctx, node));
    }
  }
  for (const Endpoint& e : IntermediateEndpoints(*forward)) {
    forward->outputs().push_back(e);
  }
  TFE_RETURN_IF_ERROR(ctx->functions().Register(forward));
  return forward;
}

StatusOr<BackwardFunction> GetOrBuildBackwardFunction(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& forward,
    int num_original_outputs) {
  TFE_ASSIGN_OR_RETURN(
      std::shared_ptr<const BackwardFunction> backward,
      forward->GetOrBuildBackward(
          std::to_string(num_original_outputs),
          [&]() -> StatusOr<std::shared_ptr<const BackwardFunction>> {
            TFE_ASSIGN_OR_RETURN(
                BackwardFunction built,
                BuildBackward(ctx, forward, num_original_outputs));
            TFE_RETURN_IF_ERROR(FinishBackward(ctx, *forward, built));
            return std::make_shared<const BackwardFunction>(std::move(built));
          }));
  return *backward;
}

StatusOr<BackwardFunction> GetOrBuildLoopBackwardFunction(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& forward,
    int num_vars) {
  auto build = [&]() -> StatusOr<std::shared_ptr<const BackwardFunction>> {
    // Pass 1: the standard backward reveals which captures receive
    // gradients at all, and with what dtype/shape — that set defines the
    // accumulators. Only its output types are read, so it is neither
    // optimized nor registered.
    TFE_ASSIGN_OR_RETURN(BackwardFunction probe,
                         BuildBackward(ctx, forward, num_vars));
    std::vector<std::pair<int, TypeAndShape>> seeds;
    for (size_t j = 0; j < probe.grad_arg_indices.size(); ++j) {
      int arg_index = probe.grad_arg_indices[j];
      if (arg_index < num_vars) continue;
      const Endpoint& out = probe.function->outputs()[j];
      seeds.emplace_back(arg_index,
                         probe.function->graph().endpoint_type(out));
    }

    // Pass 2: rebuild with those accumulators threaded through the sweep,
    // taking only the intermediates the sweep reads.
    std::vector<int> read;
    TFE_ASSIGN_OR_RETURN(BackwardFunction entry,
                         BuildBackward(ctx, forward, num_vars, &seeds));
    TFE_RETURN_IF_ERROR(FinishBackward(ctx, *forward, entry, &read));
    for (const auto& [arg_index, type] : seeds) {
      bool present = false;
      for (int i : entry.grad_arg_indices) present |= (i == arg_index);
      if (!present) {
        return Internal("Loop backward lost a threaded capture accumulator");
      }
      entry.accumulated_arg_indices.push_back(arg_index);
      entry.accumulator_types.push_back(type);
    }

    // The forward the loop runs returns the loop variables and just those
    // intermediates, so each iteration keeps no more than the backward
    // reads. It is optimized like any traced graph: its values match the
    // body's, and the backward above was built from `forward` as written.
    const std::vector<Endpoint> intermediates = IntermediateEndpoints(*forward);
    auto loop_forward = std::make_shared<GraphFunction>(
        ctx->functions().UniqueName(forward->name() + "__loop"));
    TFE_RETURN_IF_ERROR(CloneGraphFunctionInto(*forward, *loop_forward));
    loop_forward->outputs().resize(num_vars);
    for (int k : read) loop_forward->outputs().push_back(intermediates[k]);
    TFE_RETURN_IF_ERROR(passes::Optimize(*loop_forward));
    TFE_RETURN_IF_ERROR(ctx->functions().Register(loop_forward));
    entry.loop_forward = std::move(loop_forward);
    return std::make_shared<const BackwardFunction>(std::move(entry));
  };
  TFE_ASSIGN_OR_RETURN(
      std::shared_ptr<const BackwardFunction> backward,
      forward->GetOrBuildBackward("loop#" + std::to_string(num_vars), build));
  return *backward;
}

namespace {

StatusOr<std::vector<Tensor>> CallGradImpl(const TapeEntry& e,
                                           const std::vector<Tensor>& g) {
  EagerContext* ctx = EagerContext::Global();
  auto name_it = e.attrs.find("function");
  if (name_it == e.attrs.end() || !name_it->second.Is<std::string>()) {
    return Internal("Call entry missing function attr");
  }
  std::string callee = name_it->second.Get<std::string>();
  int64_t num_original = static_cast<int64_t>(e.outputs.size());
  if (auto it = e.attrs.find("num_original_outputs");
      it != e.attrs.end() && it->second.Is<int64_t>()) {
    num_original = it->second.Get<int64_t>();
  }

  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> callee_fn,
                       ctx->functions().Find(callee));

  // Resolve the forward variant and the recorded intermediates. If the tape
  // recorded a forward-variant call, its extra outputs are the
  // intermediates; otherwise (a plain Call node met during symbolic
  // backprop of an enclosing function) re-execute the forward variant to
  // rematerialize them.
  std::shared_ptr<GraphFunction> forward = callee_fn;
  std::vector<Tensor> full_outputs = e.outputs;
  if (static_cast<int64_t>(e.outputs.size()) == num_original &&
      !strings::EndsWith(callee, kForwardSuffix)) {
    TFE_ASSIGN_OR_RETURN(forward, BuildForwardFunction(ctx, callee_fn));
    AttrMap attrs;
    attrs["function"] = AttrValue(forward->name());
    attrs["num_original_outputs"] = AttrValue(num_original);
    TFE_ASSIGN_OR_RETURN(full_outputs,
                         Dispatch({.op_name = "Call", .inputs = e.inputs,
                                   .attrs = std::move(attrs),
                                   .device = e.device}));
  }

  // The backward function accepts gradients for EVERY callee output — in
  // higher-order differentiation, gradients flow into the forward variant's
  // intermediate outputs too, not only the user-visible ones.
  const int num_grad_outputs = forward->num_outputs();
  TFE_ASSIGN_OR_RETURN(BackwardFunction backward,
                       GetOrBuildBackwardFunction(ctx, forward,
                                                  num_grad_outputs));

  // Assemble the backward call: [args..., intermediates..., output grads...].
  std::vector<Tensor> inputs = e.inputs;
  for (size_t i = num_original; i < full_outputs.size(); ++i) {
    inputs.push_back(full_outputs[i]);
  }
  for (int index : backward.grad_output_indices) {
    Tensor grad = index < static_cast<int>(g.size()) ? g[index] : Tensor();
    if (!grad.defined()) {
      grad = ops::zeros_like(full_outputs[index]);
    }
    inputs.push_back(grad);
  }

  AttrMap attrs;
  attrs["function"] = AttrValue(backward.function->name());
  attrs["num_original_outputs"] =
      AttrValue(static_cast<int64_t>(backward.function->num_outputs()));
  TFE_ASSIGN_OR_RETURN(std::vector<Tensor> grad_values,
                       Dispatch({.op_name = "Call", .inputs = std::move(inputs),
                                 .attrs = std::move(attrs),
                                 .device = e.device}));
  if (grad_values.size() != backward.grad_arg_indices.size()) {
    return Internal("Backward function output arity mismatch");
  }
  std::vector<Tensor> result(e.inputs.size());
  for (size_t j = 0; j < grad_values.size(); ++j) {
    result[backward.grad_arg_indices[j]] = grad_values[j];
  }
  return result;
}

StatusOr<std::vector<Tensor>> HostFuncGradImpl(const TapeEntry& e,
                                               const std::vector<Tensor>& g) {
  auto func_it = e.attrs.find("func");
  if (func_it == e.attrs.end() ||
      !func_it->second.Is<std::shared_ptr<HostFunc>>()) {
    return Internal("HostFunc entry missing callback attr");
  }
  auto forward = func_it->second.Get<std::shared_ptr<HostFunc>>();
  const size_t num_inputs = e.inputs.size();
  const size_t num_outputs = e.outputs.size();

  // The backward pass is itself a host callback: it re-runs the forward
  // callback under a (persistent) tape and differentiates — the mechanism
  // the paper describes for py_func ("executes its Python function under a
  // gradient tape and as such it is differentiable", §4.7).
  auto backward = std::make_shared<HostFunc>();
  backward->name = forward->name + "_grad";
  backward->fn = [forward, num_inputs, num_outputs](
                     const std::vector<Tensor>& all)
      -> StatusOr<std::vector<Tensor>> {
    std::vector<Tensor> inputs(all.begin(), all.begin() + num_inputs);
    std::vector<Tensor> grads(all.begin() + num_inputs, all.end());
    GradientTape tape(/*persistent=*/true);
    for (const Tensor& input : inputs) tape.watch(input);
    TFE_ASSIGN_OR_RETURN(std::vector<Tensor> outputs, forward->fn(inputs));
    tape.StopRecording();
    std::vector<Tensor> result(num_inputs);
    for (size_t j = 0; j < outputs.size() && j < grads.size(); ++j) {
      if (!grads[j].defined()) continue;
      TFE_ASSIGN_OR_RETURN(std::vector<Tensor> partial,
                           tape.gradient(outputs[j], inputs, {grads[j]}));
      for (size_t i = 0; i < num_inputs; ++i) {
        if (!partial[i].defined()) continue;
        result[i] = result[i].defined() ? ops::add(result[i], partial[i])
                                        : partial[i];
      }
    }
    for (size_t i = 0; i < num_inputs; ++i) {
      if (!result[i].defined()) result[i] = ops::zeros_like(inputs[i]);
    }
    return result;
  };

  AttrMap attrs;
  attrs["func"] = AttrValue(backward);
  attrs["num_outputs"] = AttrValue(static_cast<int64_t>(num_inputs));
  for (size_t i = 0; i < num_inputs; ++i) {
    attrs[strings::StrCat("out_dtype_", i)] = AttrValue(e.inputs[i].dtype());
    attrs[strings::StrCat("out_shape_", i)] = AttrValue(e.inputs[i].shape());
  }
  std::vector<Tensor> inputs = e.inputs;
  for (size_t j = 0; j < num_outputs; ++j) {
    inputs.push_back(g[j].defined() ? g[j] : ops::zeros_like(e.outputs[j]));
  }
  TFE_ASSIGN_OR_RETURN(std::vector<Tensor> grads,
                       Dispatch({.op_name = "HostFunc",
                                 .inputs = std::move(inputs),
                                 .attrs = std::move(attrs),
                                 .device = e.device}));
  return grads;
}

}  // namespace

void RegisterFunctionGradients() {
  TFE_CHECK(OpRegistry::Global()->RegisterGradient("Call", CallGradImpl).ok());
  TFE_CHECK(OpRegistry::Global()
                ->RegisterGradient("HostFunc", HostFuncGradImpl)
                .ok());
}

}  // namespace tfe
