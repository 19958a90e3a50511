#include "ops/op_registry.h"

#include "ops/kernel.h"

namespace tfe {

OpRegistry* OpRegistry::Global() {
  static OpRegistry* registry = new OpRegistry();
  return registry;
}

Status OpRegistry::Register(OpDef op_def) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = ops_.emplace(op_def.name, std::move(op_def));
  if (!inserted) {
    return AlreadyExists("Op already registered: " + it->first);
  }
  return Status::OK();
}

Status OpRegistry::RegisterKernel(const std::string& op_name, KernelFn fn) {
  fn = WithKernelProfiling(op_name, std::move(fn));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ops_.find(op_name);
  if (it == ops_.end()) {
    return NotFound("Cannot register a kernel for unregistered op " + op_name);
  }
  if (it->second.kernel) {
    return AlreadyExists("Kernel already registered: " + op_name);
  }
  it->second.kernel = std::move(fn);
  return Status::OK();
}

Status OpRegistry::RegisterGradient(const std::string& op_name, GradFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ops_.find(op_name);
  if (it == ops_.end()) {
    return NotFound("Cannot register a gradient for unregistered op " +
                    op_name);
  }
  if (it->second.gradient) {
    return AlreadyExists("Gradient already registered for " + op_name);
  }
  it->second.gradient = std::move(fn);
  return Status::OK();
}

StatusOr<const OpDef*> OpRegistry::LookUp(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ops_.find(name);
  if (it == ops_.end()) {
    return NotFound("Op not registered: " + name);
  }
  return &it->second;
}

bool OpRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.count(name) > 0;
}

std::vector<std::string> OpRegistry::ListOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(ops_.size());
  for (const auto& [name, def] : ops_) names.push_back(name);
  return names;
}

}  // namespace tfe
