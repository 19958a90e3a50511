// TraceContext: a graph-building context (paper §4.1, §4.6).
//
// While a TraceContext is active on the current thread, the dispatcher
// records operations as graph nodes instead of executing them. Traces nest
// (tracing `outer` may trigger tracing `inner`); closed-over eager tensors,
// variables, and enclosing-trace symbols become *captured inputs*, silently
// appended to the function's parameter list (§4.6, "Lexical closure").
#ifndef TFE_STAGING_TRACE_CONTEXT_H_
#define TFE_STAGING_TRACE_CONTEXT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph_function.h"
#include "support/status.h"

namespace tfe {

class EagerContext;

class TraceContext {
 public:
  // Pushes this context onto the thread-local trace stack.
  TraceContext(std::shared_ptr<GraphFunction> function, EagerContext* ctx);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  // The innermost active trace, or nullptr when executing eagerly or inside
  // an init_scope (paper §4.7: init_scope "pauses the trace and jumps into
  // the imperative context").
  static TraceContext* Current();
  // Stack depth ignoring init_scope suppression; tapes use this to scope
  // recording to their own stage.
  static int Depth();

  GraphFunction& function() { return *function_; }
  EagerContext* eager_context() { return ctx_; }

  // Adds an explicit function parameter and returns its symbolic tensor.
  StatusOr<Tensor> AddParameter(DType dtype, Shape shape);

  // Records one operation as a graph node; returns its symbolic outputs.
  // `pre_inferred` overrides shape inference for stub-shape ops (Call, ...).
  StatusOr<std::vector<Tensor>> RecordOp(
      const std::string& op_name, const std::vector<Tensor>& inputs,
      AttrMap attrs, const std::string& requested_device,
      std::vector<TypeAndShape> pre_inferred = {});

  // Embeds a concrete tensor as a graph constant.
  StatusOr<Tensor> AddConstant(const Tensor& value);

  // Maps an external tensor — a concrete eager tensor, a variable's resource
  // handle, or a symbol of an *enclosing* trace — to a captured parameter of
  // this function (deduplicated per external tensor).
  StatusOr<Tensor> Capture(const Tensor& external);

  // --- State-creation contract bookkeeping (paper §4.6) ---------------------
  void NoteVariableCreated() { variables_created_ = true; }
  bool variables_created() const { return variables_created_; }
  void set_allow_variable_creation(bool allow) {
    allow_variable_creation_ = allow;
  }
  bool allow_variable_creation() const { return allow_variable_creation_; }

 private:
  std::shared_ptr<GraphFunction> function_;
  EagerContext* ctx_;
  // external tensor id -> endpoint of the capture's Arg node.
  std::unordered_map<int64_t, Endpoint> capture_index_;
  // Control-dependency chain preserving program order of stateful ops.
  int last_stateful_node_ = -1;
  bool variables_created_ = false;
  bool allow_variable_creation_ = true;
};

// Escape hatch (paper §4.7): while alive, tracing is suppressed and
// operations execute imperatively, even under an active TraceContext.
class InitScope {
 public:
  InitScope();
  ~InitScope();

  InitScope(const InitScope&) = delete;
  InitScope& operator=(const InitScope&) = delete;
};

}  // namespace tfe

#endif  // TFE_STAGING_TRACE_CONTEXT_H_
