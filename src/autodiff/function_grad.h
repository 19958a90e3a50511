// Differentiating staged functions (paper §4.2).
//
// When a graph function is first called under a watching tape, we build a
// *forward variant* that additionally returns every intermediate value the
// backward pass could need, and — when the tape is queried — a *backward
// graph function* produced by running reverse-mode AD over the forward
// graph's structure. Both are ordinary graph functions executed by Call ops,
// so "if a computation was staged in the forward pass, its corresponding
// backward pass will also be staged", the backward pass is itself
// differentiable (higher order), and there is "no meaningful change in the
// amount of computation or memory needed in the backward pass by staging or
// unstaging".
#ifndef TFE_AUTODIFF_FUNCTION_GRAD_H_
#define TFE_AUTODIFF_FUNCTION_GRAD_H_

#include <memory>
#include <vector>

#include "graph/graph_function.h"
#include "support/status.h"

namespace tfe {

class EagerContext;

// Returns (building and registering on first use) the forward variant of
// `function`: same graph, outputs extended with all intermediate node
// outputs, named "<name>__fwd". Nodes whose op has an
// OpDef::forward_rewrite are rewritten first, so each While in the variant
// outputs its forward stack as one more intermediate.
StatusOr<std::shared_ptr<GraphFunction>> BuildForwardFunction(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& function);

// A backward function and its parameter layout,
//   [forward args..., intermediates..., grads for grad_output_indices...,
//    one accumulator per accumulated_arg_indices entry].
// A loop-body backward takes only the intermediates it reads: those
// loop_forward returns. Cached on the forward function it was derived from
// (see GraphFunction::GetOrBuildBackward).
struct BackwardFunction {
  std::shared_ptr<GraphFunction> function;
  // function's outputs correspond to gradients for these forward-arg
  // positions (args without incoming gradients are omitted; every
  // accumulated arg is present — it carries at least its accumulator).
  std::vector<int> grad_arg_indices;
  // Which forward outputs take gradient parameters.
  std::vector<int> grad_output_indices;
  // Loop-body backwards only: capture args whose gradients are threaded,
  // in parameter order, with the dtype/shape of each accumulator.
  std::vector<int> accumulated_arg_indices;
  std::vector<TypeAndShape> accumulator_types;
  // Loop-body backwards only: the forward a While with a stack runs each
  // iteration. It returns the loop variables, then the intermediates
  // `function` reads, in the order `function` takes them.
  std::shared_ptr<GraphFunction> loop_forward;
};

// Returns (building on first use) the backward function for a forward
// variant with `num_original_outputs` user-visible outputs.
StatusOr<BackwardFunction> GetOrBuildBackwardFunction(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& forward,
    int num_original_outputs);

// Returns (building on first use) the backward of a While-loop body, and
// its loop_forward: `forward` is the body's forward variant, whose first
// `num_vars` args/outputs are the loop variables. Gradients for the body's
// *captures* (args at index >= num_vars) are threaded through explicit
// accumulator parameters instead of being emitted fresh each call: the
// output for an accumulated arg is `accumulator + (this iteration's
// contributions, folded in reverse-sweep order)`. Seeding the sweep with
// the accumulator makes the whole reverse loop a single flat left-fold —
// the exact association the eager tape produces for an unrolled loop — so
// While gradients stay bitwise-equal to unrolled-loop tape gradients.
StatusOr<BackwardFunction> GetOrBuildLoopBackwardFunction(
    EagerContext* ctx, const std::shared_ptr<GraphFunction>& forward,
    int num_vars);

}  // namespace tfe

#endif  // TFE_AUTODIFF_FUNCTION_GRAD_H_
