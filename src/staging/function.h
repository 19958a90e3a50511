// `function`: the staging decorator (paper §4.1, §4.6).
//
// Function wraps a host-language callable and behaves as "an opt-in JIT
// compiler": invoking it computes the input signature, traces the callable
// into a GraphFunction on a cache miss, and then executes a single Call
// operation through the multi-stage dispatcher. Because the call is itself
// an operation, staged functions compose, run on devices, and appear on
// gradient tapes exactly like primitives.
#ifndef TFE_STAGING_FUNCTION_H_
#define TFE_STAGING_FUNCTION_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph_function.h"
#include "ops/shape_inference.h"
#include "staging/trace_context.h"
#include "support/status.h"

namespace tfe {

class EagerContext;

class Function {
 public:
  // The traced callable: tensor arguments plus non-tensor arguments.
  // Non-tensor arguments parameterize the computation and are specialized
  // on *by value* (paper §4.6, Listing 6 — the `training=True/False`
  // example).
  using Callable = std::function<std::vector<Tensor>(
      const std::vector<Tensor>&, const AttrMap&)>;
  // Convenience form for callables that ignore non-tensor arguments.
  using TensorCallable =
      std::function<std::vector<Tensor>(const std::vector<Tensor>&)>;

  Function(Callable fn, std::string name = "fn", EagerContext* ctx = nullptr);
  Function(TensorCallable fn, std::string name = "fn",
           EagerContext* ctx = nullptr);

  // Restricts this function to a single trace with the given (possibly
  // partial) shapes (paper §4.6: "the user also has the option of
  // specifying an input signature").
  void SetInputSignature(std::vector<TypeAndShape> signature);

  // Invokes the staged computation (tracing first if needed). Throws
  // tfe::RuntimeError on failure.
  std::vector<Tensor> operator()(const std::vector<Tensor>& args,
                                 const AttrMap& non_tensor_args = {});

  // Traces (if needed) and returns the concrete graph function for these
  // arguments without executing it.
  StatusOr<std::shared_ptr<GraphFunction>> GetConcreteFunction(
      const std::vector<Tensor>& args, const AttrMap& non_tensor_args = {});

  // Number of traces performed so far (polymorphism introspection).
  int num_traces() const;

  const std::string& name() const { return name_; }

 private:
  StatusOr<std::shared_ptr<GraphFunction>> GetOrTrace(
      const std::vector<Tensor>& args, const AttrMap& non_tensor_args);
  StatusOr<std::shared_ptr<GraphFunction>> Trace(
      const std::vector<Tensor>& args, const AttrMap& non_tensor_args,
      bool allow_variable_creation);
  StatusOr<std::vector<Tensor>> Invoke(const std::vector<Tensor>& args,
                                       const AttrMap& non_tensor_args);

  Callable fn_;
  std::string name_;
  EagerContext* ctx_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<GraphFunction>> cache_;
  std::optional<std::vector<TypeAndShape>> input_signature_;
  int trace_count_ = 0;
  bool variables_created_once_ = false;
};

// The last steps of every trace: snapshots the graph as written, runs
// passes::Optimize on `fn`, and registers `fn` in `ctx`'s function library.
// Autodiff differentiates the snapshot, never the optimized graph, so staged
// gradients accumulate in the program's written order and stay bitwise
// equal to the eager tape (see GraphFunction::set_autodiff_source).
Status FinishTrace(EagerContext* ctx, const std::shared_ptr<GraphFunction>& fn);

// Factory mirroring the paper's decorator spelling:
//   auto f = tfe::function([](...) { ... });
Function function(Function::TensorCallable fn, std::string name = "fn");
Function function(Function::Callable fn, std::string name = "fn");

}  // namespace tfe

#endif  // TFE_STAGING_FUNCTION_H_
