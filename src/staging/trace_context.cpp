#include "staging/trace_context.h"

#include "ops/op_registry.h"
#include "runtime/eager_context.h"
#include "support/strings.h"
#include "tensor/tensor_handle.h"

namespace tfe {

namespace {
thread_local std::vector<TraceContext*> g_trace_stack;
thread_local int g_init_scope_depth = 0;
}  // namespace

TraceContext::TraceContext(std::shared_ptr<GraphFunction> function,
                           EagerContext* ctx)
    : function_(std::move(function)), ctx_(ctx) {
  TFE_CHECK(function_ != nullptr);
  TFE_CHECK(ctx_ != nullptr);
  g_trace_stack.push_back(this);
}

TraceContext::~TraceContext() {
  TFE_CHECK(!g_trace_stack.empty() && g_trace_stack.back() == this)
      << "TraceContext destroyed out of stack order";
  g_trace_stack.pop_back();
}

TraceContext* TraceContext::Current() {
  if (g_init_scope_depth > 0 || g_trace_stack.empty()) return nullptr;
  return g_trace_stack.back();
}

int TraceContext::Depth() {
  if (g_init_scope_depth > 0) return 0;
  return static_cast<int>(g_trace_stack.size());
}

StatusOr<Tensor> TraceContext::AddParameter(DType dtype, Shape shape) {
  Graph& graph = function_->graph();
  int index = function_->num_args();
  TFE_ASSIGN_OR_RETURN(Node * node, graph.AddArg(index, dtype, shape));
  function_->arg_nodes().push_back(node->id);
  return graph.MakeSymbolic({node->id, 0});
}

StatusOr<Tensor> TraceContext::AddConstant(const Tensor& value) {
  // Embedding a value freezes it into the graph — a sync point for async
  // eager dispatch (the trace boundary of paper §5).
  TFE_RETURN_IF_ERROR(value.Materialize());
  TFE_ASSIGN_OR_RETURN(Node * node, function_->graph().AddConst(value));
  return function_->graph().MakeSymbolic({node->id, 0});
}

StatusOr<Tensor> TraceContext::Capture(const Tensor& external) {
  // Captured eager tensors only contribute dtype/shape at trace time (values
  // flow in at call time), so pending handles capture without blocking — but
  // a poisoned one must surface its deferred error at this trace boundary.
  {
    const auto& handle = external.pending_handle();
    if (handle != nullptr && handle->resolved()) {
      TFE_RETURN_IF_ERROR(handle->status());
    }
  }
  auto it = capture_index_.find(external.id());
  if (it != capture_index_.end()) {
    return function_->graph().MakeSymbolic(it->second);
  }
  if (external.is_symbolic() && external.graph() == &function_->graph()) {
    return external;  // already ours
  }
  if (external.is_symbolic()) {
    // Must come from an *enclosing* active trace; otherwise the user leaked
    // a symbol out of its graph-building context.
    bool enclosing = false;
    for (TraceContext* trace : g_trace_stack) {
      if (trace != this && &trace->function().graph() == external.graph()) {
        enclosing = true;
        break;
      }
    }
    if (!enclosing) {
      return InvalidArgument(
          "Symbolic tensor used outside its graph-building context");
    }
  }
  TFE_ASSIGN_OR_RETURN(Tensor arg,
                       AddParameter(external.dtype(), external.shape()));
  function_->captures().push_back(tfe::Capture{external});
  capture_index_.emplace(external.id(), Endpoint{arg.node_id(), 0});
  return arg;
}

StatusOr<std::vector<Tensor>> TraceContext::RecordOp(
    const std::string& op_name, const std::vector<Tensor>& inputs,
    AttrMap attrs, const std::string& requested_device,
    std::vector<TypeAndShape> pre_inferred) {
  Graph& graph = function_->graph();
  std::vector<Endpoint> endpoints;
  endpoints.reserve(inputs.size());
  for (const Tensor& input : inputs) {
    if (!input.defined()) {
      return InvalidArgument(strings::StrCat("Undefined tensor passed to ",
                                             op_name, " during tracing"));
    }
    TFE_ASSIGN_OR_RETURN(Tensor symbol, Capture(input));
    endpoints.push_back({symbol.node_id(), symbol.output_index()});
  }
  // The device requested at trace time is baked into the node; ops placed
  // explicitly inside a function override the call-time device (§4.4).
  std::string device = requested_device;
  if (device.empty()) device = DeviceScope::Current();
  TFE_ASSIGN_OR_RETURN(Node * node,
                       graph.AddNode(op_name, std::move(endpoints),
                                     std::move(attrs), std::move(pre_inferred),
                                     device));
  if (node->is_stateful()) {
    if (last_stateful_node_ >= 0) {
      graph.AddControlEdge(last_stateful_node_, node->id);
    }
    last_stateful_node_ = node->id;
  }
  std::vector<Tensor> outputs;
  outputs.reserve(node->num_outputs());
  for (int i = 0; i < node->num_outputs(); ++i) {
    outputs.push_back(graph.MakeSymbolic({node->id, i}));
  }
  return outputs;
}

InitScope::InitScope() { ++g_init_scope_depth; }
InitScope::~InitScope() { --g_init_scope_depth; }

}  // namespace tfe
