#ifndef TFE_OPS_OP_REGISTRY_H_
#define TFE_OPS_OP_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ops/op_def.h"
#include "support/status.h"

namespace tfe {

// Process-wide registry of ops: one OpDef entry per op holds its definition,
// traits, kernel and gradient. Registration happens once at startup
// (kernels/register_all.cpp). Lookups take the lock; callers resolve an op
// once and keep the `const OpDef*`, which stays valid for the process
// lifetime (map nodes never move) and is read without the lock.
class OpRegistry {
 public:
  static OpRegistry* Global();

  // Registers a definition. Its kernel and gradient attach afterwards
  // through RegisterKernel and RegisterGradient.
  Status Register(OpDef op_def);

  // Attaches `fn` to the registered op `op_name`. The kernel is wrapped with
  // the profiler hook: while profiling is on, each invocation records a
  // kKernel span (device, output shape, bytes touched) and updates the
  // per-op metrics; off, the hook is one relaxed load.
  //
  // NotFound for an unregistered op, AlreadyExists when it has a kernel.
  Status RegisterKernel(const std::string& op_name, KernelFn fn);

  // Attaches the gradient of the registered op `op_name`. NotFound for an
  // unregistered op, AlreadyExists when it has a gradient.
  Status RegisterGradient(const std::string& op_name, GradFn fn);

  StatusOr<const OpDef*> LookUp(const std::string& name) const;
  bool Contains(const std::string& name) const;
  std::vector<std::string> ListOps() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpDef> ops_;
};

// Registers the full op set + kernels + gradients exactly once; safe to call
// repeatedly. EagerContext calls this on construction.
void EnsureOpsRegistered();

// Registers only the OpDefs (ops/op_defs.cpp); called by
// EnsureOpsRegistered.
void RegisterAllOpDefs();

}  // namespace tfe

#endif  // TFE_OPS_OP_REGISTRY_H_
