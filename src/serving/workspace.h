// Session workspaces: named, thread-safe variable scopes for multi-tenant
// serving (caffe2's Workspace registry is the exemplar: parent/child
// workspaces, shared blobs, thread-safe switch).
//
// A Workspace maps variable names to Variables. Each serving session owns a
// private workspace, optionally chained to a parent: name resolution walks
// local state first and then the parent chain, so shared model weights live
// once in the parent while activations, counters, and any other per-session
// state stay private. Creating a Variable with a name under an active
// WorkspaceScope resolves it against the scope's workspace (state/variable.cpp
// consults Workspace::Current()): a hit re-binds to the existing storage, a
// miss creates fresh storage registered locally. Outside any scope, variable
// creation behaves exactly as before workspaces existed.
//
// Workspaces are reference-counted; removing one from the registry frees its
// variables (and their arena blocks) once the last session reference dies.
#ifndef TFE_SERVING_WORKSPACE_H_
#define TFE_SERVING_WORKSPACE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "state/variable.h"
#include "support/status.h"

namespace tfe {
namespace serving {

class Workspace {
 public:
  Workspace(std::string name, std::shared_ptr<Workspace> parent = nullptr);
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  const std::string& name() const { return name_; }
  const std::shared_ptr<Workspace>& parent() const { return parent_; }

  // Resolves `name` in this workspace, then through the parent chain.
  std::optional<Variable> FindVariable(const std::string& name) const;
  // Local-only lookup (no parent fallthrough).
  std::optional<Variable> FindLocalVariable(const std::string& name) const;
  bool HasVariable(const std::string& name) const {
    return FindVariable(name).has_value();
  }

  // Registers `variable` under `name` in this workspace. Returns
  // AlreadyExists if the name is taken locally.
  Status AddVariable(const std::string& name, Variable variable);

  // Drops every local variable (parents untouched). Storage is freed once
  // outstanding Variable handles die.
  void Clear();

  // The innermost active scope's workspace on this thread, or null when no
  // WorkspaceScope is active (default variable semantics).
  static std::shared_ptr<Workspace> Current();

 private:
  friend class WorkspaceScope;

  const std::string name_;
  const std::shared_ptr<Workspace> parent_;
  mutable std::mutex mu_;
  std::map<std::string, Variable> variables_;
};

// RAII thread-local workspace switch (caffe2's SwitchWorkspace, scoped).
// Nestable; the innermost scope wins. A null workspace clears the scope
// within its extent.
class WorkspaceScope {
 public:
  explicit WorkspaceScope(std::shared_ptr<Workspace> workspace);
  ~WorkspaceScope();

  WorkspaceScope(const WorkspaceScope&) = delete;
  WorkspaceScope& operator=(const WorkspaceScope&) = delete;
};

// Process-wide named workspace registry. Thread-safe; names are unique.
class WorkspaceRegistry {
 public:
  static WorkspaceRegistry& Global();

  // Returns the workspace named `name`, creating it (chained to
  // `parent_name`'s workspace when non-empty) if absent. An existing
  // workspace's parent is never re-chained; a nonexistent parent is an
  // InvalidArgument.
  StatusOr<std::shared_ptr<Workspace>> GetOrCreate(
      const std::string& name, const std::string& parent_name = "");
  StatusOr<std::shared_ptr<Workspace>> Get(const std::string& name) const;
  bool Contains(const std::string& name) const;

  // Unregisters `name`; storage is freed when the last reference dies.
  // Returns false if the name was not registered.
  bool Remove(const std::string& name);

  std::vector<std::string> Names() const;  // sorted
  int64_t size() const;

 private:
  WorkspaceRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Workspace>> workspaces_;
};

}  // namespace serving
}  // namespace tfe

#endif  // TFE_SERVING_WORKSPACE_H_
