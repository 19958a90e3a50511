// The dataflow executor: runs a GraphFunction's nodes in dependency order,
// in parallel where the DAG allows (paper §5: the staged runtime "runs
// kernels in parallel when possible").
//
// The executor is also the virtual-time engine for staged execution: each
// node retires on its device's timeline no earlier than its dependencies,
// which models inter-op parallelism limits and — on the simulated TPU — the
// whole-function compilation discount (DESIGN.md §2).
#ifndef TFE_EXECUTOR_EXECUTOR_H_
#define TFE_EXECUTOR_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "graph/graph_function.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

class Device;
class EagerContext;

class Executor {
 public:
  explicit Executor(EagerContext* ctx) : ctx_(ctx) {}

  struct Result {
    std::vector<Tensor> outputs;
    // Virtual time at which all outputs (and all side effects) retire.
    uint64_t finish_ns = 0;
  };

  // Executes `function` with `args` (explicit parameters followed by
  // captures, all concrete). Nodes without an explicit device request run on
  // `default_device`. `start_ns` is the virtual time at which inputs are
  // available; `compiled` marks execution inside a whole-function
  // accelerator compilation unit. `rng_stream_base` seeds the deterministic
  // per-node RNG streams: kernels driving a nested run pass their own
  // KernelContext stream so nesting stays deterministic; 0 reserves a fresh
  // stream from the context. `parallel` allows the thread-pool ready-queue
  // engine; false forces inline sequential execution (the reference engine).
  // A nested run (InExecutor) always runs inline, so pool threads never
  // block on the pool.
  //
  // This is the one entry for running a graph function. When the context
  // fuses elementwise ops and `default_device` executes kernels and is not
  // a simulated accelerator, the run executes an elementwise-fused clone of
  // the function (passes::FuseElementwise); otherwise the graph as built.
  // Each mode's plan is built on the first run in that mode and cached on
  // the function (GraphFunction::GetOrBuildPlan).
  StatusOr<Result> Run(const GraphFunction& function,
                       const std::vector<Tensor>& args,
                       Device* default_device, uint64_t start_ns,
                       bool compiled, uint64_t rng_stream_base = 0,
                       bool parallel = true);

  // True if a run of `function` on `default_device` would find its plan
  // cached (builds none).
  bool HasPlan(const GraphFunction& function, Device* default_device) const;

  // True while the calling thread is executing a graph node; Run then
  // executes inline.
  static bool InExecutor();

 private:
  // The mode Run picks on `default_device` (null: the host CPU).
  bool Fuses(Device* default_device) const;

  EagerContext* ctx_;
};

}  // namespace tfe

#endif  // TFE_EXECUTOR_EXECUTOR_H_
