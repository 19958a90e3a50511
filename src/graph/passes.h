// Graph-function optimization passes (paper §5: "This approach still allows
// for graph optimizations: for example, non-stateful operations that are not
// reachable from the outputs of a function are pruned, just as in
// TensorFlow", and §4.1: staging "allows for optimizations like
// constant-folding and buffer reuse" — buffer reuse lives in the executor's
// refcounted tensors; the structural passes live here).
#ifndef TFE_GRAPH_PASSES_H_
#define TFE_GRAPH_PASSES_H_

#include "graph/graph_function.h"
#include "support/status.h"

namespace tfe {
namespace passes {

struct PassStats {
  int pruned_nodes = 0;
  int cse_merged = 0;
  int folded_constants = 0;
  // FuseElementwise: runs collapsed / primitive nodes absorbed into them /
  // runs that ended in a fused reduction epilogue / runs that were true DAG
  // segments (non-contiguous member ids or multiple fused outputs) rather
  // than linear chains.
  int fused_runs = 0;
  int fused_nodes = 0;
  int fused_reduce_runs = 0;
  int fused_dag_runs = 0;
};

// Dead-op pruning: removes non-stateful nodes not reachable from the
// function outputs or from stateful ops. Arg nodes are always kept (the
// call signature is fixed).
Status Prune(GraphFunction& function, PassStats* stats = nullptr);

// Common-subexpression elimination over non-stateful nodes.
Status EliminateCommonSubexpressions(GraphFunction& function,
                                     PassStats* stats = nullptr);

// Folds non-stateful nodes whose inputs are all constants by executing
// their kernels at staging time on the host.
Status FoldConstants(GraphFunction& function, PassStats* stats = nullptr);

// The standard pipeline run at the end of every trace:
// fold -> CSE -> prune.
Status Optimize(GraphFunction& function, PassStats* stats = nullptr);

// Removes the explicit parameters at positions [begin, end) that no node
// reads and no output returns, renumbering the rest, and returns the kept
// positions relative to `begin`. This changes the call signature, so it
// runs only on a function nothing has called yet.
StatusOr<std::vector<int>> DropUnreadParameters(GraphFunction& function,
                                                int begin, int end);

// Collapses single-device DAG segments of elementwise, layout (Transpose/
// Reshape/ExpandDims/Squeeze), and trailing-reduction (Sum/Mean/Max/Min)
// nodes into single FusedElementwise nodes interpreting a micro-op
// map-reduce program (the static counterpart of the op-queue drain fusion;
// both pick runs with kernels::SelectFusedRun, so the same op sequence forms
// the same runs on either stage). Segments need not be contiguous in
// node-id order: the scan steps over non-fusable nodes, and cycle freedom
// is kept because every external operand is produced before the segment's
// anchor. Intermediates consumed only inside a run disappear from the
// graph; intermediates used elsewhere (or returned) become extra fused
// outputs — multi-consumer intermediates and diamond joins fuse as one
// multi-output program.
//
// Deliberately NOT part of Optimize(): FusedElementwise has no gradient, so
// this pass runs only on the executor's execution-only clones (a fused
// plan; see Executor::Run), never on the graphs autodiff or serialization
// see.
Status FuseElementwise(GraphFunction& function, PassStats* stats = nullptr);

}  // namespace passes
}  // namespace tfe

#endif  // TFE_GRAPH_PASSES_H_
