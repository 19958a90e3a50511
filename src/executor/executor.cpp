#include "executor/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>

#include "graph/passes.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "support/strings.h"

namespace tfe {

// Everything Executor::Run derives from a function's graph alone, built on
// the function's first run in a mode and cached on it
// (GraphFunction::GetOrBuildPlan). A run allocates one flat value array with
// a slot per node output, writes the Arg and Const values into it, and walks
// the kernel steps.
struct ExecPlan {
  // `uses` value of a slot that is never released (a function output).
  static constexpr int kKeep = -1;

  // An Arg or Const node, bound before the first kernel runs.
  struct Binding {
    int node;
    int slot;
    int arg_index;  // -1 for Const
  };

  // A kernel node. Ranges index the flat arrays below.
  struct Step {
    int node = 0;
    uint64_t rng_offset = 0;  // added to the run's RNG base
    int inputs_begin = 0, inputs_end = 0;        // input_slots
    int deps_begin = 0, deps_end = 0;            // deps: kernel node ids
    int consumers_begin = 0, consumers_end = 0;  // consumers: step indices
    int pending = 0;           // initial pending count (pool engine)
    int required_outputs = 0;  // 1 + the highest output index anything reads
    const OpDef* op = nullptr;  // the node's registry entry
  };

  // A fused plan's elementwise-fused clone of the function; null when the
  // plan indexes the function's own graph.
  std::shared_ptr<const GraphFunction> fused;
  int source_nodes = 0;  // node count of the function the plan was built for
  int num_nodes = 0;  // of the graph the plan indexes
  int num_slots = 0;
  std::vector<int> slot_base;  // per node: slot of its output 0
  std::vector<Binding> bindings;
  std::vector<Step> steps;  // node order, which is a topological order
  std::vector<int> input_slots;
  std::vector<int> deps;
  std::vector<int> consumers;
  std::vector<int> initial_ready;  // steps with no pending deps
  // Per slot: how many kernel inputs read it, or kKeep. A slot is released
  // when its last reader takes it; a slot nobody reads is never stored.
  std::vector<int> uses;
  std::vector<int> output_slots;
  // Per output: the endpoint was already returned by an earlier output.
  std::vector<bool> output_repeats;
  // Nodes whose completion bounds the run's finish time: outputs, side
  // effects, and what bound outputs wait on.
  std::vector<int> finish_nodes;
  // The largest number of kernel steps ready together when every step takes
  // unit time. 1 means a chain: the pool engine would only add hand-offs.
  int max_width = 0;
};

namespace {

struct RunState {
  std::mutex mu;
  std::condition_variable done_cv;
  int completed = 0;
  int in_flight = 0;  // scheduled or running steps
  Status first_error;
  std::atomic<bool> failed{false};
};

thread_local int g_executor_depth = 0;

struct ScopedExecutorDepth {
  ScopedExecutorDepth() { ++g_executor_depth; }
  ~ScopedExecutorDepth() { --g_executor_depth; }
};

// Builds the plan for a run of `source`. A fused plan indexes a clone of
// `source` rewritten by passes::FuseElementwise, and is null when the pass
// fuses nothing.
std::shared_ptr<const ExecPlan> BuildPlan(const GraphFunction& source,
                                          bool fused) {
  std::shared_ptr<GraphFunction> clone;
  if (fused) {
    clone = std::make_shared<GraphFunction>(source.name());
    passes::PassStats stats;
    if (!CloneGraphFunctionInto(source, *clone).ok() ||
        !passes::FuseElementwise(*clone, &stats).ok() ||
        stats.fused_runs == 0) {
      return nullptr;
    }
  }
  const GraphFunction& function = fused ? *clone : source;
  const Graph& graph = function.graph();
  const int n = graph.num_nodes();
  auto plan = std::make_shared<ExecPlan>();
  plan->fused = std::move(clone);
  plan->source_nodes = source.graph().num_nodes();
  plan->num_nodes = n;
  plan->slot_base.resize(n + 1, 0);
  for (int id = 0; id < n; ++id) {
    plan->slot_base[id + 1] =
        plan->slot_base[id] + graph.node(id).num_outputs();
  }
  plan->num_slots = plan->slot_base[n];
  plan->uses.assign(plan->num_slots, 0);
  const auto slot_of = [&](const Endpoint& e) {
    TFE_CHECK_LT(e.index, graph.node(e.node_id).num_outputs());
    return plan->slot_base[e.node_id] + e.index;
  };

  std::vector<int> arg_of_node(n, -1);
  for (int i = 0; i < function.num_args(); ++i) {
    arg_of_node[function.arg_nodes()[i]] = i;
  }
  std::vector<int> step_of(n, -1);
  // Per bound node: the kernel nodes it waits on through control inputs.
  // Its consumers wait on those instead.
  std::vector<std::vector<int>> bound_deps(n);
  std::vector<int> required(n, 0);
  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    std::vector<int> node_deps;
    const auto add_dep = [&](int dep) {
      if (step_of[dep] >= 0) {
        node_deps.push_back(dep);
      } else {
        node_deps.insert(node_deps.end(), bound_deps[dep].begin(),
                         bound_deps[dep].end());
      }
    };
    for (const Endpoint& e : node.inputs) add_dep(e.node_id);
    for (int dep : node.control_inputs) add_dep(dep);

    if (node.is_bound()) {
      int arg_index = -1;
      if (node.def->binding == OpDef::Binding::kArg) {
        arg_index = arg_of_node[id];
        TFE_CHECK_GE(arg_index, 0);
      }
      if (node.num_outputs() > 0) {
        plan->bindings.push_back({id, plan->slot_base[id], arg_index});
      }
      bound_deps[id] = std::move(node_deps);
      continue;
    }

    ExecPlan::Step step;
    step.node = id;
    step.rng_offset =
        static_cast<uint64_t>(node.rng_id >= 0 ? node.rng_id : id);
    step.inputs_begin = static_cast<int>(plan->input_slots.size());
    for (const Endpoint& e : node.inputs) {
      const int slot = slot_of(e);
      plan->input_slots.push_back(slot);
      ++plan->uses[slot];
      required[e.node_id] = std::max(required[e.node_id], e.index + 1);
    }
    step.inputs_end = static_cast<int>(plan->input_slots.size());
    step.deps_begin = static_cast<int>(plan->deps.size());
    plan->deps.insert(plan->deps.end(), node_deps.begin(), node_deps.end());
    step.deps_end = static_cast<int>(plan->deps.size());
    step.pending = static_cast<int>(node_deps.size());
    TFE_CHECK(node.def != nullptr) << "node " << id << " has no registry entry";
    step.op = node.def;
    step_of[id] = static_cast<int>(plan->steps.size());
    plan->steps.push_back(std::move(step));
  }

  // Consumer lists (one entry per pending count they release) and ready
  // widths, both in step order.
  const int num_steps = static_cast<int>(plan->steps.size());
  std::vector<std::vector<int>> consumers(num_steps);
  std::vector<int> level(num_steps, 0);
  std::vector<int> width;
  for (int s = 0; s < num_steps; ++s) {
    const ExecPlan::Step& step = plan->steps[s];
    for (int i = step.deps_begin; i < step.deps_end; ++i) {
      const int producer = step_of[plan->deps[i]];
      consumers[producer].push_back(s);
      level[s] = std::max(level[s], level[producer] + 1);
    }
    if (step.pending == 0) plan->initial_ready.push_back(s);
    if (level[s] >= static_cast<int>(width.size())) width.resize(level[s] + 1);
    plan->max_width = std::max(plan->max_width, ++width[level[s]]);
  }
  for (int s = 0; s < num_steps; ++s) {
    ExecPlan::Step& step = plan->steps[s];
    step.consumers_begin = static_cast<int>(plan->consumers.size());
    plan->consumers.insert(plan->consumers.end(), consumers[s].begin(),
                           consumers[s].end());
    step.consumers_end = static_cast<int>(plan->consumers.size());
  }

  std::vector<bool> returned(plan->num_slots, false);
  for (const Endpoint& e : function.outputs()) {
    const int slot = slot_of(e);
    plan->uses[slot] = ExecPlan::kKeep;
    plan->output_slots.push_back(slot);
    plan->output_repeats.push_back(returned[slot]);
    returned[slot] = true;
    required[e.node_id] = std::max(required[e.node_id], e.index + 1);
    plan->finish_nodes.push_back(e.node_id);
    plan->finish_nodes.insert(plan->finish_nodes.end(),
                              bound_deps[e.node_id].begin(),
                              bound_deps[e.node_id].end());
  }
  for (ExecPlan::Step& step : plan->steps) {
    step.required_outputs = required[step.node];
    if (step.op->is_stateful) {
      plan->finish_nodes.push_back(step.node);
    }
  }
  std::sort(plan->finish_nodes.begin(), plan->finish_nodes.end());
  plan->finish_nodes.erase(
      std::unique(plan->finish_nodes.begin(), plan->finish_nodes.end()),
      plan->finish_nodes.end());
  return plan;
}

}  // namespace

bool Executor::InExecutor() { return g_executor_depth > 0; }

bool Executor::Fuses(Device* default_device) const {
  if (default_device == nullptr) default_device = ctx_->HostCpu();
  return ctx_->fuse_elementwise() && default_device->executes_kernels() &&
         !default_device->is_accelerator();
}

bool Executor::HasPlan(const GraphFunction& function,
                       Device* default_device) const {
  return function.HasPlan(Fuses(default_device));
}

StatusOr<Executor::Result> Executor::Run(const GraphFunction& function,
                                         const std::vector<Tensor>& args,
                                         Device* default_device,
                                         uint64_t start_ns, bool compiled,
                                         uint64_t rng_stream_base,
                                         bool parallel) {
  if (static_cast<int>(args.size()) != function.num_args()) {
    return InvalidArgument(strings::StrCat(
        "Function ", function.name(), " expects ", function.num_args(),
        " arguments (including captures), got ", args.size()));
  }
  if (default_device == nullptr) default_device = ctx_->HostCpu();

  static profiler::Counter* executor_runs =
      profiler::Metrics().GetCounter("executor.runs");
  static profiler::Counter* plans_built =
      profiler::Metrics().GetCounter("executor.plans_built");
  executor_runs->Increment();
  profiler::Scope run_span(profiler::EventKind::kExecutorRun, function.name());

  // Staged execution is a sync point for async eager dispatch (paper §5):
  // pending arguments materialize before the dataflow run so graph kernels
  // never see unresolved handles, and a poisoned argument surfaces its
  // original Status as this call's error.
  for (const Tensor& arg : args) {
    TFE_RETURN_IF_ERROR(arg.Materialize());
  }

  const std::shared_ptr<const ExecPlan> plan_ptr = function.GetOrBuildPlan(
      Fuses(default_device), [&function](bool fused) {
        std::shared_ptr<const ExecPlan> built = BuildPlan(function, fused);
        if (built != nullptr) plans_built->Increment();
        return built;
      });
  const ExecPlan& plan = *plan_ptr;
  if (plan.source_nodes != function.graph().num_nodes()) {
    return Internal(strings::StrCat(
        "Function ", function.name(), " changed after its first run: its plan ",
        "was built for ", plan.source_nodes, " nodes, its graph has ",
        function.graph().num_nodes()));
  }
  const Graph& graph = plan.fused ? plan.fused->graph() : function.graph();
  const int n = plan.num_nodes;
  run_span.set_arg(n);

  // Each node gets a deterministic Philox stream derived from this run's
  // base and its (topological-order) id, fixed before any node executes —
  // ready-queue scheduling cannot change which stream a random op draws
  // from. SplitMix64 spreads bases so per-run id ranges don't overlap.
  const uint64_t rng_base = random::SplitMix64(
      rng_stream_base != 0 ? rng_stream_base : ctx_->NextRngStream());

  const int num_steps = static_cast<int>(plan.steps.size());
  std::vector<Tensor> values(plan.num_slots);
  // Bound nodes complete at start_ns; their control inputs are folded into
  // their consumers' deps.
  std::vector<uint64_t> completion(n, start_ns);
  // Remaining reads of each multi-use slot, then each step's pending count.
  std::unique_ptr<std::atomic<int>[]> counters(
      new std::atomic<int>[plan.num_slots + num_steps]);
  std::atomic<int>* remaining = counters.get();
  std::atomic<int>* pending = counters.get() + plan.num_slots;
  for (int slot = 0; slot < plan.num_slots; ++slot) {
    remaining[slot].store(plan.uses[slot], std::memory_order_relaxed);
  }

  for (const ExecPlan::Binding& binding : plan.bindings) {
    const Node& node = graph.node(binding.node);
    if (binding.arg_index < 0) {
      if (plan.uses[binding.slot] != 0) {
        values[binding.slot] = node.constant_value;
      }
      continue;
    }
    const int index = binding.arg_index;
    const Tensor& arg = args[index];
    if (!arg.defined() || arg.is_symbolic()) {
      return InvalidArgument(strings::StrCat(
          "Function ", function.name(), " argument ", index,
          " is not a concrete tensor"));
    }
    const TypeAndShape& expected = node.outputs[0];
    if (arg.dtype() != expected.dtype && expected.dtype != DType::kInvalid) {
      return InvalidArgument(strings::StrCat(
          "Function ", function.name(), " argument ", index, " has dtype ",
          DTypeName(arg.dtype()), ", expected ", DTypeName(expected.dtype)));
    }
    if (!arg.is_resource() && !expected.shape.IsCompatibleWith(arg.shape())) {
      return InvalidArgument(strings::StrCat(
          "Function ", function.name(), " argument ", index, " has shape ",
          arg.shape().ToString(), ", expected ", expected.shape.ToString()));
    }
    if (plan.uses[binding.slot] != 0) values[binding.slot] = arg;
  }

  // A kernel input. A slot's only reader takes its value; with several
  // readers each copies it first, and the last one then clears the slot.
  // Either way the value is released once its last reader retires.
  const auto take = [&](int slot) -> Tensor {
    const int uses = plan.uses[slot];
    if (uses == 1) return std::move(values[slot]);
    Tensor value = values[slot];
    if (uses > 1 &&
        remaining[slot].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      values[slot] = Tensor();
    }
    return value;
  };

  // Executes one kernel step; returns non-OK to abort the run.
  const auto exec_step = [&](int s) -> Status {
    ScopedExecutorDepth depth_guard;
    const ExecPlan::Step& step = plan.steps[s];
    const Node& node = graph.node(step.node);

    uint64_t ready_ns = start_ns;
    for (int i = step.deps_begin; i < step.deps_end; ++i) {
      ready_ns = std::max(ready_ns, completion[plan.deps[i]]);
    }

    Device* device = default_device;
    if (!node.requested_device.empty()) {
      TFE_ASSIGN_OR_RETURN(device,
                           ctx_->devices().FindDevice(node.requested_device));
    }

    std::vector<Tensor> inputs;
    inputs.reserve(step.inputs_end - step.inputs_begin);
    for (int i = step.inputs_begin; i < step.inputs_end; ++i) {
      inputs.push_back(take(plan.input_slots[i]));
    }

    ctx_->stats().executor_nodes.fetch_add(1, std::memory_order_relaxed);
    uint64_t node_stream = rng_base + step.rng_offset;
    if (node_stream == 0) node_stream = 1;  // 0 means "unassigned"
    TFE_ASSIGN_OR_RETURN(
        EagerContext::KernelRun run,
        ctx_->ExecuteKernel(*step.op, std::move(inputs), node.attrs, device,
                            compiled, ready_ns, node_stream,
                            node.program.get()));
    if (run.completion_ns != 0) {
      completion[step.node] = run.completion_ns;
    } else {
      uint64_t total_ns = run.device_ns;
      if (!compiled) total_ns += device->cost_params().executor_node_ns;
      completion[step.node] =
          total_ns > 0 ? device->timeline().Schedule(ready_ns, total_ns)
                       : ready_ns;
    }
    const int produced = static_cast<int>(run.outputs.size());
    if (produced < step.required_outputs) {
      return Internal(strings::StrCat(
          "Node ", step.node, " (", node.def->name, ") of function ",
          function.name(), " produced ", produced, " outputs, but output ",
          step.required_outputs - 1, " is read"));
    }
    const int base = plan.slot_base[step.node];
    const int stored = std::min(produced, node.num_outputs());
    for (int i = 0; i < stored; ++i) {
      if (plan.uses[base + i] != 0) {
        values[base + i] = std::move(run.outputs[i]);
      }
    }
    return Status::OK();
  };

  if (!parallel || InExecutor() || plan.max_width <= 1) {
    // Node ids are a valid topological order (nodes are appended in
    // creation order during tracing), and so is step order.
    for (int s = 0; s < num_steps; ++s) {
      TFE_RETURN_IF_ERROR(exec_step(s));
    }
  } else {
    // Ready-queue execution over the context's thread pool.
    for (int s = 0; s < num_steps; ++s) {
      pending[s].store(plan.steps[s].pending, std::memory_order_relaxed);
    }
    RunState run_state;

    // Runs `s`, then keeps draining one ready successor per finished step
    // on this thread (cache-friendly) while scheduling the rest — a loop,
    // so a long chain never deepens the stack. Lives until the wait below
    // observes every launched step finished, so reference captures in
    // scheduled closures stay valid.
    std::function<void(int)> run_from = [&](int s) {
      std::vector<int> ready;
      while (true) {
        if (run_state.failed.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(run_state.mu);
          if (--run_state.in_flight == 0) run_state.done_cv.notify_all();
          return;
        }
        Status status = exec_step(s);
        ready.clear();
        if (status.ok()) {
          const ExecPlan::Step& step = plan.steps[s];
          for (int i = step.consumers_begin; i < step.consumers_end; ++i) {
            const int consumer = plan.consumers[i];
            if (pending[consumer].fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
              ready.push_back(consumer);
            }
          }
        }
        {
          std::lock_guard<std::mutex> lock(run_state.mu);
          if (!status.ok() && !run_state.failed.load()) {
            run_state.first_error = status;
            run_state.failed.store(true, std::memory_order_release);
          }
          ++run_state.completed;
          run_state.in_flight += static_cast<int>(ready.size()) - 1;
          if (run_state.completed == num_steps ||
              (run_state.failed.load() && run_state.in_flight == 0)) {
            run_state.done_cv.notify_all();
          }
        }
        if (ready.empty()) return;
        for (size_t i = 1; i < ready.size(); ++i) {
          const int successor = ready[i];
          ctx_->executor_pool().Schedule(
              [&run_from, successor] { run_from(successor); });
        }
        s = ready[0];
      }
    };

    run_state.in_flight = static_cast<int>(plan.initial_ready.size());
    for (size_t i = 1; i < plan.initial_ready.size(); ++i) {
      const int s = plan.initial_ready[i];
      ctx_->executor_pool().Schedule([&run_from, s] { run_from(s); });
    }
    run_from(plan.initial_ready[0]);

    std::unique_lock<std::mutex> lock(run_state.mu);
    run_state.done_cv.wait(lock, [&] {
      return run_state.completed == num_steps ||
             (run_state.failed.load() && run_state.in_flight == 0);
    });
    if (run_state.failed.load()) return run_state.first_error;
  }

  Result result;
  result.finish_ns = start_ns;
  result.outputs.reserve(plan.output_slots.size());
  for (size_t i = 0; i < plan.output_slots.size(); ++i) {
    Tensor output = values[plan.output_slots[i]];
    // A graph endpoint returned through several output slots must surface
    // as several tensor identities: gradient tapes key on tensor ids, and a
    // shared id would double-count seeded gradients (forward variants list
    // user outputs and intermediates in one list).
    if (plan.output_repeats[i] && output.defined() && !output.is_resource() &&
        !output.is_symbolic()) {
      output = output.is_opaque()
                   ? Tensor::Opaque(output.dtype(), output.shape(),
                                    output.device())
                   : Tensor::Concrete(output.dtype(), output.shape(),
                                      output.buffer(), output.device());
    }
    result.outputs.push_back(std::move(output));
  }
  // Side effects count toward completion: a caller synchronizing on the
  // function must observe its assignments.
  for (int node : plan.finish_nodes) {
    result.finish_ns = std::max(result.finish_ns, completion[node]);
  }
  return result;
}

}  // namespace tfe
