#include "graph/graph.h"

#include <sstream>

#include "ops/op_registry.h"
#include "support/strings.h"

namespace tfe {

StatusOr<Node*> Graph::AddNode(const std::string& op,
                               std::vector<Endpoint> inputs, AttrMap attrs,
                               std::vector<TypeAndShape> inferred_outputs,
                               const std::string& requested_device) {
  TFE_ASSIGN_OR_RETURN(const OpDef* def, OpRegistry::Global()->LookUp(op));
  if (def->num_inputs != OpDef::kVariadic &&
      def->num_inputs != static_cast<int>(inputs.size())) {
    return InvalidArgument(strings::StrCat(
        "Op ", op, " expects ", def->num_inputs, " inputs, got ",
        inputs.size()));
  }
  for (const Endpoint& e : inputs) {
    if (e.node_id < 0 || e.node_id >= num_nodes() ||
        e.index >= nodes_[e.node_id].num_outputs()) {
      return InvalidArgument(strings::StrCat("Bad endpoint ", e.node_id, ":",
                                             e.index, " for op ", op));
    }
  }

  Node node;
  node.id = num_nodes();
  node.def = def;
  node.attrs = std::move(attrs);
  node.inputs = std::move(inputs);
  node.requested_device = requested_device;

  if (!inferred_outputs.empty()) {
    node.outputs = std::move(inferred_outputs);
  } else {
    std::vector<TypeAndShape> input_types;
    input_types.reserve(node.inputs.size());
    for (const Endpoint& e : node.inputs) {
      input_types.push_back(endpoint_type(e));
    }
    InferenceContext ctx(std::move(input_types), &node.attrs);
    TFE_RETURN_IF_ERROR(def->shape_fn(&ctx));
    node.outputs = ctx.outputs();
  }

  nodes_.push_back(std::move(node));
  return &nodes_.back();
}

StatusOr<Node*> Graph::AddConst(Tensor value,
                                const std::string& requested_device) {
  TFE_CHECK(value.defined());
  TFE_CHECK(!value.is_symbolic()) << "Const payload must be concrete";
  std::vector<TypeAndShape> outputs = {{value.dtype(), value.shape()}};
  TFE_ASSIGN_OR_RETURN(Node * node,
                       AddNode("Const", {}, {}, std::move(outputs),
                               requested_device));
  node->constant_value = std::move(value);
  return node;
}

StatusOr<Node*> Graph::AddArg(int index, DType dtype, Shape shape) {
  AttrMap attrs;
  attrs["index"] = AttrValue(static_cast<int64_t>(index));
  attrs["dtype"] = AttrValue(dtype);
  attrs["shape"] = AttrValue(shape);
  std::vector<TypeAndShape> outputs = {{dtype, std::move(shape)}};
  return AddNode("Arg", {}, std::move(attrs), std::move(outputs));
}

void Graph::AddControlEdge(int from_node, int to_node) {
  TFE_CHECK_GE(from_node, 0);
  TFE_CHECK_LT(from_node, num_nodes());
  TFE_CHECK_GE(to_node, 0);
  TFE_CHECK_LT(to_node, num_nodes());
  nodes_[to_node].control_inputs.push_back(from_node);
}

Tensor Graph::MakeSymbolic(const Endpoint& e) {
  const TypeAndShape& type = endpoint_type(e);
  return Tensor::Symbolic(type.dtype, type.shape, this, e.node_id, e.index);
}

std::string Graph::DebugString() const {
  std::ostringstream out;
  for (const Node& node : nodes_) {
    out << "%" << node.id << " = " << node.def->name << "(";
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (i > 0) out << ", ";
      out << "%" << node.inputs[i].node_id << ":" << node.inputs[i].index;
    }
    out << ")";
    if (!node.attrs.empty()) out << " " << AttrMapToString(node.attrs);
    if (!node.control_inputs.empty()) {
      out << " ^deps(";
      for (size_t i = 0; i < node.control_inputs.size(); ++i) {
        if (i > 0) out << ",";
        out << node.control_inputs[i];
      }
      out << ")";
    }
    out << " -> ";
    for (int i = 0; i < node.num_outputs(); ++i) {
      if (i > 0) out << ", ";
      out << DTypeName(node.outputs[i].dtype)
          << node.outputs[i].shape.ToString();
    }
    if (!node.requested_device.empty()) out << " @" << node.requested_device;
    out << "\n";
  }
  return out.str();
}

}  // namespace tfe
