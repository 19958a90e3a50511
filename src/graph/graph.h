// Dataflow graphs: the staged representation of computations.
//
// A Graph is a DAG of Nodes; each node is one primitive operation with
// tensor-valued inputs (endpoints of other nodes) and inferred output types.
// Unlike classic TensorFlow — where a graph is "the union of all the
// computations the author might be interested in" — graphs here always live
// inside a GraphFunction with named inputs and outputs, representing "the
// exact computation of interest" (paper §5).
#ifndef TFE_GRAPH_GRAPH_H_
#define TFE_GRAPH_GRAPH_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "ops/attr_value.h"
#include "ops/op_def.h"
#include "ops/shape_inference.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

// A tensor-valued graph edge source: output `index` of node `node_id`.
struct Endpoint {
  int node_id = -1;
  int index = 0;

  bool operator==(const Endpoint& other) const {
    return node_id == other.node_id && index == other.index;
  }
};

struct Node {
  int id = -1;
  // The op's registry entry, resolved once when the node is created.
  const OpDef* def = nullptr;
  AttrMap attrs;
  std::vector<Endpoint> inputs;
  // Control dependencies: this node must run after these nodes. The tracer
  // chains stateful ops so program order of side effects is preserved.
  std::vector<int> control_inputs;
  std::vector<TypeAndShape> outputs;
  // Payload for Const nodes (closed-over eager tensors become constants or
  // captures; small literals become constants).
  Tensor constant_value;
  // Payload for FusedElementwise nodes: the compiled run the node executes,
  // sharing ownership of its program-cache entry. Nodes carry no other
  // form of the program.
  std::shared_ptr<const kernels::CompiledRun> program;
  // Device override requested inside the traced code, if any (paper §4.4:
  // "operations inside the graph function explicitly placed on another
  // device override the outer device context").
  std::string requested_device;
  // Stable id for deterministic RNG stream derivation: execution-only
  // rewrites (FuseElementwise) renumber nodes, and random ops must draw the
  // same Philox stream whether or not the variant ran. -1 means "use the
  // node's current id" (the canonical post-Optimize graph).
  int rng_id = -1;

  int num_outputs() const { return static_cast<int>(outputs.size()); }
  bool is_stateful() const { return def->is_stateful; }
  // An Arg or Const: bound to a value, not computed by a kernel.
  bool is_bound() const { return def->binding != OpDef::Binding::kNone; }
};

class Graph {
 public:
  Graph() = default;

  // Non-copyable: symbolic tensors hold stable Graph pointers.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = delete;

  // Adds a node, running the op's shape inference to populate outputs.
  // Pre-inferred outputs can be supplied for ops whose shape function is a
  // stub (Call, HostFunc, Const).
  StatusOr<Node*> AddNode(const std::string& op, std::vector<Endpoint> inputs,
                          AttrMap attrs,
                          std::vector<TypeAndShape> inferred_outputs = {},
                          const std::string& requested_device = "");

  StatusOr<Node*> AddConst(Tensor value,
                           const std::string& requested_device = "");

  // Function parameter `index` of the enclosing GraphFunction.
  StatusOr<Node*> AddArg(int index, DType dtype, Shape shape);

  void AddControlEdge(int from_node, int to_node);

  Node& node(int id) { return nodes_.at(id); }
  const Node& node(int id) const { return nodes_.at(id); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  const TypeAndShape& endpoint_type(const Endpoint& e) const {
    return nodes_.at(e.node_id).outputs.at(e.index);
  }

  // Symbolic tensor referring to `e` in this graph.
  Tensor MakeSymbolic(const Endpoint& e);

  std::string DebugString() const;

  // Replaces the node list wholesale. Optimization passes rebuild the graph
  // with remapped ids; any outstanding symbolic tensors become invalid
  // (passes only run once a trace is finalized).
  void ResetNodes(std::deque<Node> nodes) { nodes_ = std::move(nodes); }

 private:
  // Deque so Node pointers stay valid as the graph grows during tracing.
  std::deque<Node> nodes_;
};

}  // namespace tfe

#endif  // TFE_GRAPH_GRAPH_H_
