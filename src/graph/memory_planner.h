// Static memory planning for staged functions (DESIGN.md §17).
//
// Staging exposes the whole program, so allocation can be decided once per
// function instead of once per op per run: BuildPlan computes the lifetime
// of every non-escaping intermediate over a function's post-optimization
// node order and greedily packs them into byte offsets within one per-run
// "plan slab". A steady-state staged step then performs O(1) allocator
// calls — one slab acquisition, usually a reuse of the previous run's slab —
// instead of O(nodes). On top of the slab, cross-run forwarding hands a
// retired run's *escaping* output block to the next run's matching unplanned
// allocation, covering the x = step(x) training loop where generation N-1's
// output dies while generation N is still an argument.
//
// Everything is bitwise-transparent and fails safe to per-op allocation:
//   * Only ops on an explicit safe-producer whitelist get planned slots, and
//     only values all of whose consumers are on a safe-consumer whitelist
//     stay in the slab. Aliasing ops (Identity, Reshape, ReadVariableOp...),
//     state-retaining ops (AssignVariableOp retains its input), and
//     composite ops (Call/Cond/While run subgraphs that may alias arguments
//     into outputs) are on neither list, so any value they touch escapes to
//     a normal refcounted allocation. Function outputs always escape.
//   * Planned blocks are handed out as non-owning Buffer views into the
//     slab. The slab outlives every view by construction (each view holds
//     the slab's shared_ptr), and the run returns the slab to an idle pool
//     only under a use_count()==1 proof that no view survived the run.
//   * Block reuse inside the slab is safe under parallel ready-queue
//     execution: a freed block may be assigned to node c only if every
//     releasing consumer is an ancestor of c (precomputed bitsets), so
//     dataflow ordering itself serializes the writes.
//   * EagerContext::set_memory_plan(false) (the executor then never calls
//     BeginRun), a system allocator (any non-arena device allocator),
//     serving workspaces, simulated accelerators, and remote devices all
//     disable planning entirely (ASan/TSan keep true per-buffer lifetimes
//     under the system allocator).
#ifndef TFE_GRAPH_MEMORY_PLANNER_H_
#define TFE_GRAPH_MEMORY_PLANNER_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace tfe {

class Allocator;
class Buffer;
class Device;
class GraphFunction;

namespace memplan {

// One planned allocation: output `output_index` of node `node_id` lives at
// [offset, offset + bytes) in the run's slab.
struct PlannedSlot {
  int node_id = -1;
  int output_index = 0;
  DType dtype = DType::kFloat32;
  size_t offset = 0;
  size_t bytes = 0;  // exact payload bytes (num_elements * dtype size)
  // The producer provably stores every byte before anything reads the block
  // (a FusedElementwise full-space contiguous store), so the handout memset
  // that re-establishes the zero-initialized contract can be skipped.
  bool skip_zero = false;
};

// Runtime state shared by every run of one plan on one allocator: retired
// slabs ready for reuse, and the cross-run forwarding pool of escaped output
// buffers. Guarded by `mu`; runs on different devices never share a state.
struct PlanState {
  std::mutex mu;
  // Each entry holds the pool's only reference (use_count()==1 invariant,
  // checked again at pop).
  std::vector<std::shared_ptr<Buffer>> idle_slabs;
  // Retired run outputs, oldest first. An entry is claimable once its
  // use_count()==1 (the caller's last handle died); entries whose buffers
  // never die (weights, cached constants) rotate out over the cap.
  std::deque<std::shared_ptr<Buffer>> forward_pool;
};

// The immutable product of BuildPlan, cached on the GraphFunction whose node
// order it describes (same lifecycle as the fused execution variant).
class MemoryPlan {
 public:
  size_t slab_bytes() const { return slab_bytes_; }
  int num_slots() const { return static_cast<int>(slots_.size()); }
  // Slots whose handout memset is elided (test introspection).
  int num_skip_zero_slots() const;
  // Distinct slab blocks that serve more than one lifetime (introspection).
  int reused_blocks() const { return reused_blocks_; }

  const PlannedSlot* Find(int node_id, int output_index) const;
  const std::vector<PlannedSlot>& slots() const { return slots_; }

  // The runtime state for runs drawing storage from `allocator`.
  std::shared_ptr<PlanState> StateFor(
      const std::shared_ptr<Allocator>& allocator) const;

 private:
  friend std::shared_ptr<const MemoryPlan> BuildPlan(
      const GraphFunction& function);

  size_t slab_bytes_ = 0;
  int reused_blocks_ = 0;
  std::vector<PlannedSlot> slots_;
  std::map<std::pair<int, int>, int> slot_index_;  // (node, output) -> slots_

  mutable std::mutex states_mu_;
  mutable std::map<const Allocator*, std::shared_ptr<PlanState>> states_;
};

// Per-run activation handle: owns the slab for one executor invocation. The
// executor creates it before the per-node tensor states (so every view dies
// first) and its destructor returns the slab to the idle pool under the
// use-count proof.
class RunPlan {
 public:
  RunPlan(std::shared_ptr<const MemoryPlan> plan,
          std::shared_ptr<PlanState> state, std::shared_ptr<Buffer> slab,
          Device* device);
  ~RunPlan();

  RunPlan(const RunPlan&) = delete;
  RunPlan& operator=(const RunPlan&) = delete;

  const MemoryPlan& plan() const { return *plan_; }
  PlanState* state() const { return state_.get(); }
  const std::shared_ptr<Buffer>& slab() const { return slab_; }
  Device* device() const { return device_; }

  bool used_forwarding() const {
    return used_forwarding_.load(std::memory_order_relaxed);
  }
  void note_forwarded() {
    used_forwarding_.store(true, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const MemoryPlan> plan_;
  std::shared_ptr<PlanState> state_;
  std::shared_ptr<Buffer> slab_;
  Device* device_;
  // Written from kernel threads under the parallel executor; read once at
  // FinishRun after the run's completion barrier.
  std::atomic<bool> used_forwarding_{false};
};

// The graph pass: lifetime analysis + greedy offset packing over `function`'s
// node order. Returns null when nothing in the graph is plannable (also for
// oversized graphs — the pass is O(n^2/64) in nodes). Deterministic: depends
// only on the graph.
std::shared_ptr<const MemoryPlan> BuildPlan(const GraphFunction& function);

// Cached BuildPlan on the function object (null results cached too).
std::shared_ptr<const MemoryPlan> PlanFor(const GraphFunction& function);

// Activates planning for one executor run: returns null when disabled or
// inapplicable (see file comment), else acquires a slab (reusing an idle one
// when the use count proves it free) and returns the run handle.
std::unique_ptr<RunPlan> BeginRun(const GraphFunction& function,
                                  Device* device);

// Publishes the run's escaping outputs into the forwarding pool so the next
// run can claim their blocks once the caller drops them.
void FinishRun(RunPlan* run, const GraphFunction& function,
               const std::vector<Tensor>& outputs);

// RAII thread-local binding of (run, node) consulted by
// KernelContext::AllocateOutput while the node's kernel executes on this
// thread. Installing run == nullptr masks any enclosing binding, so kernels
// of a nested unplanned run never see the outer run's plan.
class ScopedNode {
 public:
  ScopedNode(RunPlan* run, int node_id);
  ~ScopedNode();

  ScopedNode(const ScopedNode&) = delete;
  ScopedNode& operator=(const ScopedNode&) = delete;

 private:
  RunPlan* prev_run_;
  int prev_node_;
};

// Consulted by KernelContext::AllocateOutput before allocating: returns a
// zero-ready view into the current run's slab (the node has a planned slot),
// a recycled buffer from the forwarding pool (escaping output with an exact
// byte match), or an undefined tensor (allocate normally). Never returns
// storage whose dtype/byte size disagrees with the request.
Tensor TryPlannedOutput(int output_index, DType dtype, const Shape& shape,
                        Device* device);

}  // namespace memplan
}  // namespace tfe

#endif  // TFE_GRAPH_MEMORY_PLANNER_H_
