#include "graph/graph_function.h"

#include <sstream>

#include "support/strings.h"

namespace tfe {

bool GraphFunction::IsStateful() const {
  for (int i = 0; i < graph_.num_nodes(); ++i) {
    if (graph_.node(i).is_stateful() && graph_.node(i).op != "Arg") {
      return true;
    }
  }
  return false;
}

bool GraphFunction::IsSerializable() const {
  for (int i = 0; i < graph_.num_nodes(); ++i) {
    for (const auto& [name, attr] : graph_.node(i).attrs) {
      if (!attr.IsSerializable()) return false;
    }
  }
  return true;
}

std::string GraphFunction::DebugString() const {
  std::ostringstream out;
  out << "function " << name_ << "(args=" << num_explicit_args()
      << ", captures=" << captures_.size() << ") -> " << num_outputs()
      << " outputs\n";
  out << graph_.DebugString();
  out << "returns: ";
  for (size_t i = 0; i < outputs_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "%" << outputs_[i].node_id << ":" << outputs_[i].index;
  }
  out << "\n";
  return out.str();
}

std::shared_ptr<GraphFunction> GraphFunction::GetOrBuildExecutionVariant(
    const std::function<std::shared_ptr<GraphFunction>()>& build) {
  std::lock_guard<std::mutex> lock(variant_mu_);
  if (!variant_ready_) {
    execution_variant_ = build();
    variant_ready_ = true;
  }
  return execution_variant_;
}

StatusOr<std::shared_ptr<const BackwardFunction>>
GraphFunction::GetOrBuildBackward(
    const std::string& key,
    const std::function<StatusOr<std::shared_ptr<const BackwardFunction>>()>&
        build) {
  {
    std::lock_guard<std::mutex> lock(backward_mu_);
    auto it = backwards_.find(key);
    if (it != backwards_.end()) return it->second;
  }
  TFE_ASSIGN_OR_RETURN(std::shared_ptr<const BackwardFunction> built, build());
  std::lock_guard<std::mutex> lock(backward_mu_);
  return backwards_.emplace(key, std::move(built)).first->second;
}

Status CloneGraphFunctionInto(const GraphFunction& source,
                              GraphFunction& target) {
  const Graph& graph = source.graph();
  Graph& out = target.graph();
  for (int id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    TFE_ASSIGN_OR_RETURN(
        Node * cloned,
        out.AddNode(node.op, node.inputs, node.attrs, node.outputs,
                    node.requested_device));
    cloned->constant_value = node.constant_value;
    cloned->control_inputs = node.control_inputs;
    cloned->rng_id = node.rng_id;
    TFE_CHECK_EQ(cloned->id, id);
  }
  target.arg_nodes() = source.arg_nodes();
  target.captures() = source.captures();
  target.outputs() = source.outputs();
  return Status::OK();
}

Status FunctionLibrary::Register(std::shared_ptr<GraphFunction> function) {
  TFE_CHECK(function != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = functions_.emplace(function->name(), function);
  if (!inserted) {
    return AlreadyExists("Function already registered: " + function->name());
  }
  return Status::OK();
}

StatusOr<std::shared_ptr<GraphFunction>> FunctionLibrary::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return NotFound("Function not found: " + name);
  }
  return it->second;
}

bool FunctionLibrary::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return functions_.count(name) > 0;
}

std::vector<std::string> FunctionLibrary::ListFunctions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [name, fn] : functions_) names.push_back(name);
  return names;
}

std::string FunctionLibrary::UniqueName(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string name;
  do {
    name = strings::StrCat(prefix, "_", next_id_++);
  } while (functions_.count(name) > 0);
  return name;
}

}  // namespace tfe
