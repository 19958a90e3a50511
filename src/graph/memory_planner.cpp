#include "graph/memory_planner.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "device/device.h"
#include "graph/graph_function.h"
#include "kernels/fused_elementwise.h"
#include "profiler/profiler.h"
#include "serving/workspace.h"
#include "support/logging.h"
#include "tensor/allocator.h"
#include "tensor/buffer.h"

namespace tfe {
namespace memplan {
namespace {

// Planning is O(n^2/64) in nodes (ancestor bitsets); cap it far above any
// function this runtime traces.
constexpr int kMaxPlanNodes = 4096;
// A plan's slab is one arena block, resident per cached function; beyond
// this give up rather than pin gigabytes behind a function cache.
constexpr size_t kMaxSlabBytes = size_t{1} << 30;
// Retired slabs parked per (plan, allocator) for the next run.
constexpr size_t kMaxIdleSlabs = 2;
// Cross-run forwarding pool depth: enough generations for x = step(x) loops
// (the claimable entry is one or two generations back) without pinning
// unbounded retired outputs; entries that never die (weights captured as
// outputs) rotate out over this cap.
constexpr size_t kMaxForwardPool = 8;

// --- Safety whitelists ------------------------------------------------------
//
// Fail-safe by construction: an op must be *listed* to participate. A safe
// producer allocates every output fresh through KernelContext::AllocateOutput
// (never aliases an input or pre-existing storage into an output) and writes
// it only during its kernel. A safe consumer only reads its inputs during
// kernel execution — no aliasing an input into an output (Identity, Reshape,
// StopGradient), no retaining it in state (AssignVariableOp keeps its value
// input alive inside the variable), no passing it into a subgraph that might
// do either (Call/Cond/While/WhileGrad/HostFunc). Any value produced or
// consumed by an unlisted op escapes to a normal refcounted allocation.
bool IsPlanPureOp(const std::string& op) {
  static const std::set<std::string>* const kPure = new std::set<std::string>{
      "Abs",         "Add",
      "ArgMax",      "AvgPool",
      "AvgPoolGrad", "Cast",
      "Concat",      "Conv2D",
      "Conv2DBackpropFilter",
      "Conv2DBackpropInput",
      "Cos",         "Div",
      "Equal",       "Exp",
      "Floor",       "FusedBatchNorm",
      "FusedBatchNormGrad",
      "FusedElementwise",
      "Gather",      "Greater",
      "GreaterEqual", "Less",
      "LessEqual",   "Log",
      "LogSoftmax",  "MatMul",
      "Max",         "MaxPool",
      "MaxPoolGrad", "Maximum",
      "Mean",        "Min",
      "Minimum",     "Mul",
      "Neg",         "NotEqual",
      "OnesLike",    "Pad",
      "Pow",         "Reciprocal",
      "Relu",        "Rsqrt",
      "Select",      "Sigmoid",
      "Sign",        "Sin",
      "Slice",       "Softmax",
      "SparseSoftmaxCrossEntropyWithLogits",
      "Sqrt",        "Square",
      "SquaredDifference",
      "Sub",         "Sum",
      "Tanh",        "Tile",
      "Transpose",   "UnsortedSegmentSum",
      "ZerosLike"};
  return kPure->count(op) > 0;
}

bool IsSafeProducer(const Node& node) {
  if (IsPlanPureOp(node.op)) return true;
  // Deterministic Philox draws: allocate and fill their single output.
  return node.op == "RandomNormal" || node.op == "RandomUniform" ||
         node.op == "Range";
}

bool IsSafeConsumer(const std::string& op) {
  if (IsPlanPureOp(op)) return true;
  if (op == "RandomNormal" || op == "RandomUniform" || op == "Range") {
    return true;
  }
  // Read the delta during the kernel, then swap a *freshly allocated* buffer
  // into the variable; neither the delta nor the old storage is retained.
  return op == "AssignAddVariableOp" || op == "AssignSubVariableOp";
}

// --- skip-zero proof --------------------------------------------------------
// Output k of a FusedElementwise node is fully stored before any consumer
// reads it when its store covers the whole evaluation space contiguously (a
// kContiguous store whose output element count equals the evaluation
// count). The reduce-epilogue output accumulates into its own zeroed state,
// so it never qualifies.
std::vector<bool> FullStoreOutputs(const Node& node) {
  std::vector<bool> full(node.num_outputs(), false);
  auto it = node.attrs.find("program");
  if (it == node.attrs.end() || !it->second.Is<std::vector<int64_t>>()) {
    return full;
  }
  auto decoded =
      kernels::MicroProgram::Decode(it->second.Get<std::vector<int64_t>>());
  if (!decoded.ok()) return full;
  const kernels::MicroProgram& program = decoded.value();
  int64_t eval_count = 1;
  for (int64_t d : program.eval_dims) eval_count *= d;
  for (size_t k = 0; k < program.output_specs.size() && k < full.size(); ++k) {
    const kernels::MicroOutputSpec& spec = program.output_specs[k];
    if (spec.store.kind != kernels::MicroAccessKind::kContiguous) continue;
    int64_t out_count = 1;
    for (int64_t d : spec.shape) out_count *= d;
    full[k] = out_count == eval_count;
  }
  return full;
}

size_t AlignUp(size_t bytes) {
  return ((bytes + Allocator::kAlignment - 1) / Allocator::kAlignment) *
         Allocator::kAlignment;
}

struct PlanMetrics {
  profiler::Counter* planned_allocs;
  profiler::Counter* forwarded_buffers;
  profiler::Counter* forwarded_runs;
  profiler::Counter* runs;
  profiler::Gauge* slab_bytes;

  PlanMetrics() {
    auto& m = profiler::Metrics();
    planned_allocs = m.GetCounter("allocator.plan.planned_allocs");
    forwarded_buffers = m.GetCounter("allocator.plan.forwarded_buffers");
    forwarded_runs = m.GetCounter("allocator.plan.forwarded_runs");
    runs = m.GetCounter("allocator.plan.runs");
    slab_bytes = m.GetGauge("allocator.plan.slab_bytes");
  }
};

PlanMetrics& Metrics() {
  static PlanMetrics* metrics = new PlanMetrics();
  return *metrics;
}

std::atomic<int> g_plan_override{-1};  // -1 unset, else 0/1

// Thread-local (run, node) binding installed by the executor around each
// kernel invocation. Kernels execute synchronously on the installing thread
// (EagerContext::ExecuteKernel), so this is exact; nested executor runs
// install their own binding (possibly null) on top, masking the outer one.
struct Binding {
  RunPlan* run = nullptr;
  int node_id = -1;
};
thread_local Binding t_binding;

}  // namespace

bool PlanningEnabled() {
  int override_value = g_plan_override.load(std::memory_order_acquire);
  if (override_value >= 0) return override_value != 0;
  const char* env = std::getenv("TFE_MEMORY_PLAN");
  return env == nullptr || std::strcmp(env, "off") != 0;
}

void OverrideMemoryPlanning(bool enabled) {
  g_plan_override.store(enabled ? 1 : 0, std::memory_order_release);
}

void ClearMemoryPlanningOverride() {
  g_plan_override.store(-1, std::memory_order_release);
}

int MemoryPlan::num_skip_zero_slots() const {
  int count = 0;
  for (const PlannedSlot& slot : slots_) {
    if (slot.skip_zero) ++count;
  }
  return count;
}

const PlannedSlot* MemoryPlan::Find(int node_id, int output_index) const {
  auto it = slot_index_.find({node_id, output_index});
  return it == slot_index_.end() ? nullptr : &slots_[it->second];
}

std::shared_ptr<PlanState> MemoryPlan::StateFor(
    const std::shared_ptr<Allocator>& allocator) const {
  std::lock_guard<std::mutex> lock(states_mu_);
  std::shared_ptr<PlanState>& state = states_[allocator.get()];
  if (state == nullptr) state = std::make_shared<PlanState>();
  return state;
}

std::shared_ptr<const MemoryPlan> BuildPlan(const GraphFunction& function) {
  const Graph& graph = function.graph();
  const int n = graph.num_nodes();
  if (n == 0 || n > kMaxPlanNodes) return nullptr;

  // Everything the caller can observe stays out of the slab.
  std::set<std::pair<int, int>> escapes;
  for (const Endpoint& e : function.outputs()) {
    escapes.insert({e.node_id, e.index});
  }

  // Data consumers per endpoint; the consumer set is also a value's release
  // set (the block frees once every consumer has run).
  std::map<std::pair<int, int>, std::vector<int>> consumers;
  for (int id = 0; id < n; ++id) {
    for (const Endpoint& e : graph.node(id).inputs) {
      consumers[{e.node_id, e.index}].push_back(id);
    }
  }

  // anc[c] = nodes with a (data or control) path to c. Node ids are a
  // topological order, so one forward sweep transitively closes the
  // relation. The parallel executor may run independent nodes in any order,
  // but it always runs an ancestor before its descendant — so a freed block
  // may be reassigned to node c only if every releasing consumer is an
  // ancestor of c. Transitivity of anc extends the proof across chained
  // reuse: lifetime 1's consumers precede lifetime 2's producer, which
  // precedes lifetime 2's consumers, which precede lifetime 3's producer.
  const int words = (n + 63) / 64;
  std::vector<uint64_t> anc(static_cast<size_t>(n) * words, 0);
  auto absorb = [&](int into, int dep) {
    uint64_t* dst = &anc[static_cast<size_t>(into) * words];
    const uint64_t* src = &anc[static_cast<size_t>(dep) * words];
    for (int w = 0; w < words; ++w) dst[w] |= src[w];
    dst[dep / 64] |= uint64_t{1} << (dep % 64);
  };
  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    for (const Endpoint& e : node.inputs) absorb(id, e.node_id);
    for (int dep : node.control_inputs) absorb(id, dep);
  }
  auto all_ancestors_of = [&](const std::vector<int>& releasers,
                              int claimant) {
    const uint64_t* a = &anc[static_cast<size_t>(claimant) * words];
    for (int r : releasers) {
      if ((a[r / 64] & (uint64_t{1} << (r % 64))) == 0) return false;
    }
    return true;
  };

  struct FreeBlock {
    size_t offset;
    size_t bytes;               // aligned footprint
    std::vector<int> release;   // nodes whose completion frees it
  };
  std::vector<FreeBlock> free_blocks;

  auto plan = std::make_shared<MemoryPlan>();
  size_t high = 0;
  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    if (node.op == "Arg" || node.op == "Const") continue;  // no allocation
    // A device override means the node's kernel may run with an allocator
    // other than the run's; leave all its values unplanned.
    if (!node.requested_device.empty()) continue;
    if (!IsSafeProducer(node)) continue;
    std::vector<bool> full_store;
    if (node.op == "FusedElementwise") full_store = FullStoreOutputs(node);

    for (int k = 0; k < node.num_outputs(); ++k) {
      if (escapes.count({id, k}) > 0) continue;
      const TypeAndShape& ts = node.outputs[k];
      if (ts.dtype == DType::kInvalid || ts.dtype == DType::kResource) {
        continue;
      }
      if (!ts.shape.IsFullyDefined()) continue;
      const int64_t elems = ts.shape.num_elements();
      if (elems <= 0) continue;
      auto cit = consumers.find({id, k});
      static const std::vector<int>* const kNoConsumers =
          new std::vector<int>();
      const std::vector<int>& users =
          cit != consumers.end() ? cit->second : *kNoConsumers;
      bool safe = true;
      for (int c : users) {
        if (!IsSafeConsumer(graph.node(c).op)) {
          safe = false;
          break;
        }
      }
      if (!safe) continue;

      const size_t bytes = static_cast<size_t>(elems) * DTypeSize(ts.dtype);
      const size_t footprint = AlignUp(bytes);
      // Best fit among blocks whose releasers all precede this node.
      int best = -1;
      for (int b = 0; b < static_cast<int>(free_blocks.size()); ++b) {
        const FreeBlock& blk = free_blocks[b];
        if (blk.bytes < footprint) continue;
        if (best >= 0 && blk.bytes >= free_blocks[best].bytes) continue;
        if (!all_ancestors_of(blk.release, id)) continue;
        best = b;
      }
      size_t offset;
      if (best >= 0) {
        FreeBlock blk = std::move(free_blocks[best]);
        free_blocks.erase(free_blocks.begin() + best);
        offset = blk.offset;
        if (blk.bytes > footprint) {
          // The unused tail stays free under the same release set.
          free_blocks.push_back(
              {blk.offset + footprint, blk.bytes - footprint, blk.release});
        }
        ++plan->reused_blocks_;
      } else {
        offset = high;
        high += footprint;
        if (high > kMaxSlabBytes) return nullptr;
      }

      PlannedSlot slot;
      slot.node_id = id;
      slot.output_index = k;
      slot.dtype = ts.dtype;
      slot.offset = offset;
      slot.bytes = bytes;
      slot.skip_zero =
          k < static_cast<int>(full_store.size()) && full_store[k];
      plan->slot_index_[{id, k}] = static_cast<int>(plan->slots_.size());
      plan->slots_.push_back(slot);

      FreeBlock freed{offset, footprint, users};
      // A dead output (no consumers) frees once its own producer ran.
      if (freed.release.empty()) freed.release.push_back(id);
      free_blocks.push_back(std::move(freed));
    }
  }
  if (plan->slots_.empty()) return nullptr;
  plan->slab_bytes_ = high;
  return plan;
}

std::shared_ptr<const MemoryPlan> PlanFor(const GraphFunction& function) {
  return function.GetOrBuildMemoryPlan([&] { return BuildPlan(function); });
}

RunPlan::RunPlan(std::shared_ptr<const MemoryPlan> plan,
                 std::shared_ptr<PlanState> state,
                 std::shared_ptr<Buffer> slab, Device* device)
    : plan_(std::move(plan)),
      state_(std::move(state)),
      slab_(std::move(slab)),
      device_(device) {}

RunPlan::~RunPlan() {
  // The slab returns to the idle pool only when this handle is its sole
  // owner: every planned view holds the slab's shared_ptr, so use_count()==1
  // proves no view survived the run (the executor destroys the per-node
  // tensor states before this handle).
  std::lock_guard<std::mutex> lock(state_->mu);
  if (slab_.use_count() == 1 && state_->idle_slabs.size() < kMaxIdleSlabs) {
    state_->idle_slabs.push_back(std::move(slab_));
  }
}

std::unique_ptr<RunPlan> BeginRun(const GraphFunction& function,
                                  Device* device) {
  if (device == nullptr || !device->executes_kernels() ||
      device->is_accelerator() || device->IsRemote()) {
    return nullptr;
  }
  if (!PlanningEnabled()) return nullptr;
  // TFE_ALLOCATOR=system (or any non-arena allocator) disables planning so
  // sanitizers keep true per-buffer lifetimes.
  if (std::strcmp(device->allocator()->kind(), "arena") != 0) return nullptr;
  // Serving sessions manage storage through their workspace; stay out.
  if (serving::Workspace::Current() != nullptr) return nullptr;

  std::shared_ptr<const MemoryPlan> plan = PlanFor(function);
  if (plan == nullptr) return nullptr;
  std::shared_ptr<PlanState> state = plan->StateFor(device->allocator_shared());

  std::shared_ptr<Buffer> slab;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    while (!state->idle_slabs.empty() && slab == nullptr) {
      std::shared_ptr<Buffer> candidate = std::move(state->idle_slabs.back());
      state->idle_slabs.pop_back();
      // Pushed under a use_count()==1 proof, so this re-check only guards
      // invariant violations; a failing candidate is simply dropped.
      if (candidate.use_count() == 1 &&
          candidate->bytes() >= plan->slab_bytes()) {
        slab = std::move(candidate);
      }
    }
  }
  if (slab == nullptr) {
    slab = Buffer::Allocate(plan->slab_bytes(), device->allocator_shared());
  }

  PlanMetrics& metrics = Metrics();
  metrics.runs->Increment();
  metrics.slab_bytes->Set(static_cast<int64_t>(plan->slab_bytes()));
  if (profiler::enabled()) {
    static const uint32_t plan_name = profiler::Intern("memory_plan");
    profiler::RecordInstant(profiler::EventKind::kAllocator, plan_name,
                            static_cast<int64_t>(plan->slab_bytes()));
  }
  return std::make_unique<RunPlan>(std::move(plan), std::move(state),
                                   std::move(slab), device);
}

void FinishRun(RunPlan* run, const GraphFunction& function,
               const std::vector<Tensor>& outputs) {
  if (run == nullptr) return;
  if (run->used_forwarding()) Metrics().forwarded_runs->Increment();
  const Graph& graph = function.graph();
  PlanState* state = run->state();
  std::lock_guard<std::mutex> lock(state->mu);
  const size_t count =
      std::min(outputs.size(), function.outputs().size());
  for (size_t i = 0; i < count; ++i) {
    const Tensor& t = outputs[i];
    if (!t.defined() || t.is_symbolic() || t.is_resource() || t.is_opaque() ||
        t.has_handle()) {
      continue;
    }
    const Endpoint& e = function.outputs()[i];
    const std::string& producer_op = graph.node(e.node_id).op;
    // Arguments and cached constants are the caller's storage, not this
    // run's to retire.
    if (producer_op == "Arg" || producer_op == "Const") continue;
    const std::shared_ptr<Buffer>& buf = t.buffer();
    if (buf == nullptr || buf->is_view() || buf->bytes() == 0) continue;
    // One pool entry per buffer: duplicate entries would each hold a
    // reference and the use-count proof could never pass.
    bool duplicate = false;
    for (const std::shared_ptr<Buffer>& entry : state->forward_pool) {
      if (entry.get() == buf.get()) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    state->forward_pool.push_back(buf);
    while (state->forward_pool.size() > kMaxForwardPool) {
      state->forward_pool.pop_front();
    }
  }
}

ScopedNode::ScopedNode(RunPlan* run, int node_id)
    : prev_run_(t_binding.run), prev_node_(t_binding.node_id) {
  t_binding.run = run;
  t_binding.node_id = node_id;
}

ScopedNode::~ScopedNode() {
  t_binding.run = prev_run_;
  t_binding.node_id = prev_node_;
}

Tensor TryPlannedOutput(int output_index, DType dtype, const Shape& shape,
                        Device* device) {
  RunPlan* run = t_binding.run;
  if (run == nullptr || device != run->device()) return Tensor();
  if (!shape.IsFullyDefined()) return Tensor();
  const int64_t elems = shape.num_elements();
  if (elems <= 0) return Tensor();
  const size_t bytes = static_cast<size_t>(elems) * DTypeSize(dtype);

  const PlannedSlot* slot = run->plan().Find(t_binding.node_id, output_index);
  if (slot != nullptr) {
    // A runtime request that disagrees with the plan (a kernel computed a
    // different shape than shape inference promised) falls back safely.
    if (slot->dtype != dtype || slot->bytes != bytes) return Tensor();
    std::shared_ptr<Buffer> view =
        Buffer::View(run->slab(), slot->offset, bytes);
    // Re-establish the zero-initialized contract per block — the slab is
    // reused across runs un-zeroed — unless the plan proved the producer's
    // first use stores every byte.
    if (!slot->skip_zero) std::memset(view->data(), 0, bytes);
    Metrics().planned_allocs->Increment();
    return Tensor::Concrete(dtype, shape, std::move(view), device);
  }

  // Escaping output: claim a retired block from the forwarding pool when an
  // exact byte match has provably no other owner.
  std::shared_ptr<Buffer> forwarded;
  {
    PlanState* state = run->state();
    std::lock_guard<std::mutex> lock(state->mu);
    for (auto it = state->forward_pool.begin();
         it != state->forward_pool.end(); ++it) {
      if ((*it)->bytes() == bytes && it->use_count() == 1) {
        forwarded = std::move(*it);
        state->forward_pool.erase(it);
        break;
      }
    }
  }
  if (forwarded == nullptr) return Tensor();
  std::memset(forwarded->data(), 0, forwarded->bytes());
  run->note_forwarded();
  Metrics().forwarded_buffers->Increment();
  if (profiler::enabled()) {
    static const uint32_t forward_name = profiler::Intern("buffer_forward");
    profiler::RecordInstant(profiler::EventKind::kAllocator, forward_name,
                            static_cast<int64_t>(bytes));
  }
  return Tensor::Concrete(dtype, shape, std::move(forwarded), device);
}

}  // namespace memplan
}  // namespace tfe
