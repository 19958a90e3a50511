#include "serving/workspace.h"

#include <vector>

#include "profiler/profiler.h"
#include "support/strings.h"

namespace tfe {
namespace serving {

namespace {

// The active scope stack for this thread. A plain vector of shared_ptrs:
// scopes are strictly nested (RAII), so push/pop at the back is enough.
thread_local std::vector<std::shared_ptr<Workspace>> t_workspace_stack;

profiler::Gauge* WorkspacesGauge() {
  static profiler::Gauge* gauge =
      profiler::Metrics().GetGauge("serving.workspaces");
  return gauge;
}

}  // namespace

Workspace::Workspace(std::string name, std::shared_ptr<Workspace> parent)
    : name_(std::move(name)), parent_(std::move(parent)) {
  WorkspacesGauge()->Add(1);
}

Workspace::~Workspace() { WorkspacesGauge()->Add(-1); }

std::optional<Variable> Workspace::FindVariable(const std::string& name) const {
  if (auto local = FindLocalVariable(name); local.has_value()) return local;
  // Parent chain is immutable after construction: no lock needed to walk it.
  return parent_ != nullptr ? parent_->FindVariable(name) : std::nullopt;
}

std::optional<Variable> Workspace::FindLocalVariable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = variables_.find(name);
  if (it == variables_.end()) return std::nullopt;
  return it->second;
}

Status Workspace::AddVariable(const std::string& name, Variable variable) {
  if (!variable.defined()) {
    return InvalidArgument("Cannot register undefined variable '" + name +
                           "' in workspace '" + name_ + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = variables_.emplace(name, std::move(variable));
  if (!inserted) {
    return AlreadyExists(strings::StrCat("Variable '", name,
                                         "' already exists in workspace '",
                                         name_, "'"));
  }
  return Status::OK();
}

void Workspace::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  variables_.clear();
}

std::shared_ptr<Workspace> Workspace::Current() {
  return t_workspace_stack.empty() ? nullptr : t_workspace_stack.back();
}

WorkspaceScope::WorkspaceScope(std::shared_ptr<Workspace> workspace) {
  t_workspace_stack.push_back(std::move(workspace));
}

WorkspaceScope::~WorkspaceScope() { t_workspace_stack.pop_back(); }

WorkspaceRegistry& WorkspaceRegistry::Global() {
  static WorkspaceRegistry* registry = new WorkspaceRegistry();
  return *registry;
}

StatusOr<std::shared_ptr<Workspace>> WorkspaceRegistry::GetOrCreate(
    const std::string& name, const std::string& parent_name) {
  if (name.empty()) return InvalidArgument("Workspace name must be non-empty");
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = workspaces_.find(name); it != workspaces_.end()) {
    return it->second;
  }
  std::shared_ptr<Workspace> parent;
  if (!parent_name.empty()) {
    auto parent_it = workspaces_.find(parent_name);
    if (parent_it == workspaces_.end()) {
      return InvalidArgument("Parent workspace '" + parent_name +
                             "' does not exist");
    }
    parent = parent_it->second;
  }
  auto workspace = std::make_shared<Workspace>(name, std::move(parent));
  workspaces_.emplace(name, workspace);
  return workspace;
}

StatusOr<std::shared_ptr<Workspace>> WorkspaceRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workspaces_.find(name);
  if (it == workspaces_.end()) {
    return NotFound("Workspace '" + name + "' does not exist");
  }
  return it->second;
}

bool WorkspaceRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return workspaces_.count(name) != 0;
}

bool WorkspaceRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return workspaces_.erase(name) != 0;
}

std::vector<std::string> WorkspaceRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(workspaces_.size());
  for (const auto& [name, workspace] : workspaces_) names.push_back(name);
  return names;
}

int64_t WorkspaceRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(workspaces_.size());
}

}  // namespace serving
}  // namespace tfe
