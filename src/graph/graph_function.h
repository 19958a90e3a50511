// GraphFunction: a dataflow graph with named inputs and outputs — the unit
// of staging, compilation, composition, and serialization (paper §4.1, §4.6,
// §5).
#ifndef TFE_GRAPH_GRAPH_FUNCTION_H_
#define TFE_GRAPH_GRAPH_FUNCTION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace tfe {

struct BackwardFunction;  // autodiff/function_grad.h

// A value the trace closed over. Lexical captures are "silently passed to
// the graph function at call-time, without programmer intervention" (§4.6):
// eager tensors are captured by value, variables by reference (their
// resource handle), and — during nested tracing — symbolic tensors of the
// enclosing graph are forwarded to the inner function's call node.
struct Capture {
  Tensor tensor;  // concrete tensor, resource handle, or outer-graph symbol
};

class GraphFunction {
 public:
  explicit GraphFunction(std::string name) : name_(std::move(name)) {}

  GraphFunction(const GraphFunction&) = delete;
  GraphFunction& operator=(const GraphFunction&) = delete;

  const std::string& name() const { return name_; }
  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }

  // Arg nodes in parameter order. The first num_explicit_args() parameters
  // are the user-visible ones; the rest receive captures.
  std::vector<int>& arg_nodes() { return arg_nodes_; }
  const std::vector<int>& arg_nodes() const { return arg_nodes_; }

  std::vector<Endpoint>& outputs() { return outputs_; }
  const std::vector<Endpoint>& outputs() const { return outputs_; }

  std::vector<Capture>& captures() { return captures_; }
  const std::vector<Capture>& captures() const { return captures_; }

  int num_args() const { return static_cast<int>(arg_nodes_.size()); }
  int num_explicit_args() const {
    return num_args() - static_cast<int>(captures_.size());
  }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  TypeAndShape output_type(int i) const {
    return graph_.endpoint_type(outputs_.at(i));
  }
  TypeAndShape arg_type(int i) const {
    return graph_.node(arg_nodes_.at(i)).outputs.at(0);
  }

  // True if any node in the body is stateful; stateful calls are never
  // pruned or folded.
  bool IsStateful() const;

  // True if the function can be serialized (no HostFunc attrs — paper §4.7:
  // "graphs with py_funcs are not in general serializable").
  bool IsSerializable() const;

  std::string DebugString() const;

  // Returns the cached execution-only rewrite of this function, building it
  // with `build` on first call; a null result ("no rewrite applies") is
  // cached too. Execution variants (e.g. the elementwise-fused clone made by
  // the Call kernel) are run directly by the caller and stay invisible to
  // autodiff, serialization, and the function library, which all see the
  // original graph.
  std::shared_ptr<GraphFunction> GetOrBuildExecutionVariant(
      const std::function<std::shared_ptr<GraphFunction>()>& build);

  // Pristine pre-optimization snapshot of the trace, attached by the tracer
  // before graph passes run. Autodiff builds forward/backward variants from
  // this graph — never the optimized one — so gradient accumulation keeps
  // the program-as-written association and stays bitwise-equal to the eager
  // tape (CSE would otherwise regroup contributions: (g1+g2)*k instead of
  // g1*k + g2*k). Null for functions built directly from graphs (e.g.
  // deserialized bundles), in which case the function's own graph is the
  // autodiff source.
  void set_autodiff_source(std::shared_ptr<const GraphFunction> source) {
    autodiff_source_ = std::move(source);
  }
  const std::shared_ptr<const GraphFunction>& autodiff_source() const {
    return autodiff_source_;
  }

  // Cached backward functions autodiff derived from this (forward) function,
  // under a key the caller chooses. They share this function's lifetime, so
  // a fresh context's function of the same name never resolves another
  // context's backward. `build` runs outside the lock — it traces, and may
  // differentiate nested calls — so a racing build may be discarded in
  // favour of the first one cached.
  StatusOr<std::shared_ptr<const BackwardFunction>> GetOrBuildBackward(
      const std::string& key,
      const std::function<StatusOr<std::shared_ptr<const BackwardFunction>>()>&
          build);

 private:
  std::string name_;
  Graph graph_;
  std::vector<int> arg_nodes_;
  std::vector<Endpoint> outputs_;
  std::vector<Capture> captures_;

  std::mutex variant_mu_;
  bool variant_ready_ = false;
  std::shared_ptr<GraphFunction> execution_variant_;
  std::shared_ptr<const GraphFunction> autodiff_source_;

  std::mutex backward_mu_;
  std::map<std::string, std::shared_ptr<const BackwardFunction>> backwards_;
};

// Structural copy of `source` — nodes (ids preserved), arg nodes, captures,
// and outputs — into `target`, which must be freshly constructed. Shared by
// the forward-variant builder in autodiff and the execution-variant rewrites.
Status CloneGraphFunctionInto(const GraphFunction& source,
                              GraphFunction& target);

// A name -> function map. Each EagerContext owns one; nested function calls
// resolve their callee here at execution time.
class FunctionLibrary {
 public:
  Status Register(std::shared_ptr<GraphFunction> function);
  StatusOr<std::shared_ptr<GraphFunction>> Find(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> ListFunctions() const;

  // Returns "<prefix>_<n>" unique within this library.
  std::string UniqueName(const std::string& prefix);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<GraphFunction>> functions_;
  int next_id_ = 0;
};

}  // namespace tfe

#endif  // TFE_GRAPH_GRAPH_FUNCTION_H_
