#include "staging/function.h"

#include "autodiff/function_grad.h"
#include "autodiff/tape.h"
#include "graph/passes.h"
#include "profiler/profiler.h"
#include "runtime/dispatch.h"
#include "runtime/eager_context.h"
#include "staging/signature.h"
#include "support/strings.h"

namespace tfe {

Function::Function(Callable fn, std::string name, EagerContext* ctx)
    : fn_(std::move(fn)), name_(std::move(name)), ctx_(ctx) {}

Function::Function(TensorCallable fn, std::string name, EagerContext* ctx)
    : fn_([inner = std::move(fn)](const std::vector<Tensor>& args,
                                  const AttrMap&) { return inner(args); }),
      name_(std::move(name)),
      ctx_(ctx) {}

void Function::SetInputSignature(std::vector<TypeAndShape> signature) {
  std::lock_guard<std::mutex> lock(mu_);
  TFE_CHECK(cache_.empty())
      << "SetInputSignature must be called before the first invocation";
  input_signature_ = std::move(signature);
}

int Function::num_traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_count_;
}

StatusOr<std::shared_ptr<GraphFunction>> Function::GetConcreteFunction(
    const std::vector<Tensor>& args, const AttrMap& non_tensor_args) {
  return GetOrTrace(args, non_tensor_args);
}

StatusOr<std::shared_ptr<GraphFunction>> Function::GetOrTrace(
    const std::vector<Tensor>& args, const AttrMap& non_tensor_args) {
  std::string key;
  {
    std::lock_guard<std::mutex> lock(mu_);
    StatusOr<std::string> key_or =
        input_signature_.has_value()
            ? ComputeExplicitSignature(*input_signature_, args,
                                       non_tensor_args, DeviceScope::Current())
            : ComputeSignature(args, non_tensor_args, DeviceScope::Current());
    if (!key_or.ok()) return key_or.status();
    key = std::move(key_or).value();
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      static profiler::Counter* hits =
          profiler::Metrics().GetCounter("staging.cache_hits");
      hits->Increment();
      if (profiler::enabled()) {
        profiler::RecordInstant(profiler::EventKind::kTraceCacheHit,
                                profiler::Intern(name_));
      }
      return it->second;
    }
  }
  static profiler::Counter* misses =
      profiler::Metrics().GetCounter("staging.cache_misses");
  misses->Increment();
  if (profiler::enabled()) {
    profiler::RecordInstant(profiler::EventKind::kTraceCacheMiss,
                            profiler::Intern(name_));
  }

  // Cache miss: trace outside the lock (tracing can recursively invoke other
  // functions). First trace may create state; the state-creation contract
  // (paper §4.6) then requires a second, creation-free trace that records
  // the steady-state behavior.
  TFE_ASSIGN_OR_RETURN(
      std::shared_ptr<GraphFunction> traced,
      Trace(args, non_tensor_args, /*allow_variable_creation=*/true));

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(key, traced);
  return it->second;
}

StatusOr<std::shared_ptr<GraphFunction>> Function::Trace(
    const std::vector<Tensor>& args, const AttrMap& non_tensor_args,
    bool allow_variable_creation) {
  EagerContext* ctx = ctx_ != nullptr ? ctx_ : EagerContext::Global();
  ctx->stats().traces.fetch_add(1, std::memory_order_relaxed);
  profiler::Scope trace_span(profiler::EventKind::kTraceStage, name_);

  auto graph_fn = std::make_shared<GraphFunction>(
      ctx->functions().UniqueName(name_));

  bool created_variables = false;
  {
    TraceContext trace(graph_fn, ctx);
    {
      std::lock_guard<std::mutex> lock(mu_);
      trace.set_allow_variable_creation(allow_variable_creation &&
                                        !variables_created_once_);
    }

    // Placeholder parameters: from the explicit signature when present,
    // otherwise specialized to the concrete argument types. Two passes keep
    // the parameter-list invariant `[explicit args..., captures...]`:
    // non-resource args become explicit parameters first, then resource
    // args join the capture list (a variable passed explicitly behaves the
    // same as one closed over — bound by reference to its storage).
    std::vector<Tensor> parameters(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      if (args[i].is_resource()) continue;
      DType dtype = args[i].dtype();
      Shape shape = args[i].shape();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (input_signature_.has_value()) {
          dtype = (*input_signature_)[i].dtype;
          shape = (*input_signature_)[i].shape;
        }
      }
      TFE_ASSIGN_OR_RETURN(parameters[i], trace.AddParameter(dtype, shape));
    }
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].is_resource()) continue;
      TFE_ASSIGN_OR_RETURN(parameters[i], trace.Capture(args[i]));
    }

    std::vector<Tensor> returns = fn_(parameters, non_tensor_args);

    for (Tensor& ret : returns) {
      if (!ret.defined()) {
        return InvalidArgument("Traced function returned an undefined tensor");
      }
      if (!ret.is_symbolic() || ret.graph() != &graph_fn->graph()) {
        // Returning an eager value (or an outer symbol) from a traced
        // function: capture it so it becomes a pass-through output.
        TFE_ASSIGN_OR_RETURN(ret, trace.Capture(ret));
      }
      graph_fn->outputs().push_back({ret.node_id(), ret.output_index()});
    }
    created_variables = trace.variables_created();
  }

  if (created_variables) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      variables_created_once_ = true;
    }
    // Re-trace: state now exists, so this trace records the steady-state
    // computation. Any further creation attempt fails inside Variable.
    return Trace(args, non_tensor_args, /*allow_variable_creation=*/false);
  }

  TFE_RETURN_IF_ERROR(FinishTrace(ctx, graph_fn));
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++trace_count_;
  }
  return graph_fn;
}

StatusOr<std::vector<Tensor>> Function::Invoke(
    const std::vector<Tensor>& args, const AttrMap& non_tensor_args) {
  EagerContext* ctx = ctx_ != nullptr ? ctx_ : EagerContext::Global();
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> graph_fn,
                       GetOrTrace(args, non_tensor_args));

  // Assemble call inputs: explicit arguments + lexically captured values
  // ("silently passed to the graph function at call-time", §4.6). Resource
  // parameters were turned into captures at trace time, so explicit resource
  // args are skipped here and flow through the capture list instead.
  std::vector<Tensor> call_inputs;
  call_inputs.reserve(graph_fn->num_args());
  for (const Tensor& arg : args) {
    if (!arg.is_resource()) call_inputs.push_back(arg);
  }
  for (const Capture& capture : graph_fn->captures()) {
    call_inputs.push_back(capture.tensor);
  }

  // Calling a function that uses variables counts as accessing them: watch
  // every resource input on the active tapes (paper §4.3) before deciding
  // whether a differentiable forward variant is needed.
  for (const Tensor& input : call_inputs) {
    if (input.defined() && input.is_resource()) {
      GradientTape::WatchResourceOnAllTapes(input);
    }
  }

  std::string callee = graph_fn->name();
  int num_original_outputs = graph_fn->num_outputs();
  if (GradientTape::WouldRecord(call_inputs)) {
    // Paper §4.2: "The first time a graph function is called when a tape is
    // both active and watching one of its inputs, we build a 'forward'
    // version of this function that returns any intermediate values needed
    // for the backward step."
    TFE_ASSIGN_OR_RETURN(std::shared_ptr<GraphFunction> forward,
                         BuildForwardFunction(ctx, graph_fn));
    callee = forward->name();
  }

  AttrMap attrs;
  attrs["function"] = AttrValue(callee);
  attrs["num_original_outputs"] =
      AttrValue(static_cast<int64_t>(num_original_outputs));
  TFE_ASSIGN_OR_RETURN(
      std::vector<Tensor> outputs,
      Dispatch({.op_name = "Call", .inputs = std::move(call_inputs),
                .attrs = std::move(attrs), .ctx = ctx}));
  outputs.resize(num_original_outputs);
  return outputs;
}

std::vector<Tensor> Function::operator()(const std::vector<Tensor>& args,
                                         const AttrMap& non_tensor_args) {
  auto result = Invoke(args, non_tensor_args);
  result.status().ThrowIfError();
  return std::move(result).value();
}

Status FinishTrace(EagerContext* ctx,
                   const std::shared_ptr<GraphFunction>& fn) {
  auto pristine = std::make_shared<GraphFunction>(fn->name() + "__as_written");
  TFE_RETURN_IF_ERROR(CloneGraphFunctionInto(*fn, *pristine));
  TFE_RETURN_IF_ERROR(passes::Optimize(*fn));
  fn->set_autodiff_source(std::move(pristine));
  return ctx->functions().Register(fn);
}

Function function(Function::TensorCallable fn, std::string name) {
  return Function(std::move(fn), std::move(name));
}

Function function(Function::Callable fn, std::string name) {
  return Function(std::move(fn), std::move(name));
}

}  // namespace tfe
