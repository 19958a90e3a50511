// Staged control flow: the tf.cond / tf.while_loop analogs (paper §4.1).
//
// Tracing bakes host-language branches into the graph and fully unrolls
// host loops; when control flow must depend on *tensor values* inside a
// staged computation, these combinators stage it as dedicated operations
// whose branch/body computations are graph functions:
//
//   * cond(pred, true_fn, false_fn, args)   — one branch runs per execution
//   * while_loop(cond_fn, body_fn, vars)    — iterates body while cond holds
//
// Eagerly they reduce to ordinary host control flow over function calls
// (which is why eager code rarely needs them — the paper's point). Inside a
// trace they record Cond / While nodes. Both are differentiable: cond()'s
// gradient is a Cond over the branches' staged backward functions. A While
// that a tape will differentiate keeps a forward stack (paper §4.2's
// forward variant, per iteration): each iteration runs the body's loop
// forward, which also returns the intermediates the body's staged backward
// reads, and pushes them with the loop variables that entered the body.
// while_loop()'s gradient runs that backward once per iteration in
// reverse, reading the stack; the forward loop is never replayed. The stack
// is the gradient's memory bound: iterations × (loop variables + read
// intermediates), capped by `maximum_iterations` — captures are not stacked
// (their gradients are threaded through accumulators).
#ifndef TFE_STAGING_CONTROL_FLOW_H_
#define TFE_STAGING_CONTROL_FLOW_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "staging/function.h"

namespace tfe {
namespace ops {

// `pred` is a scalar bool tensor. Both branches are invoked with `args` and
// must produce matching output dtypes/shapes. Throws on failure.
std::vector<Tensor> cond(const Tensor& pred, Function& true_fn,
                         Function& false_fn, const std::vector<Tensor>& args);

// Iterates `body_fn` on the loop variables while `cond_fn` (returning a
// scalar bool) holds. `body_fn` must map the loop-variable types to
// themselves. Returns the final loop variables.
std::vector<Tensor> while_loop(Function& cond_fn, Function& body_fn,
                               const std::vector<Tensor>& init_vars,
                               int64_t maximum_iterations = 1'000'000);

// Calls graph function `function_name` by *declared* signature: the callee
// does not have to exist yet, which is what lets a function body call itself
// (or a mutually-recursive sibling) while it is still being traced. Eagerly
// the callee must be registered by call time; execution depth is capped at
// 64 nested calls (kMaxCallDepth, kernels/call_op.cpp) and overflow poisons
// the outputs with a deferred FailedPrecondition. Throws on failure.
std::vector<Tensor> call(const std::string& function_name,
                         const std::vector<Tensor>& args,
                         const std::vector<TypeAndShape>& output_types);

}  // namespace ops

// Traces `body` (which may recurse via ops::call on `name` or on other
// recursive functions) into a graph function registered under exactly
// `name`, validating that the traced outputs match `output_types`.
StatusOr<std::shared_ptr<GraphFunction>> DefineRecursiveFunction(
    const std::string& name, const std::vector<TypeAndShape>& arg_types,
    const std::vector<TypeAndShape>& output_types,
    const std::function<StatusOr<std::vector<Tensor>>(
        const std::vector<Tensor>&)>& body);

// Registers Cond/While/WhileGrad ops, kernels and the Cond + While
// gradients (called by EnsureOpsRegistered).
void RegisterControlFlowOps();

}  // namespace tfe

#endif  // TFE_STAGING_CONTROL_FLOW_H_
