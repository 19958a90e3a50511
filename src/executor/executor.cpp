#include "executor/executor.h"

#include <atomic>
#include <condition_variable>
#include <set>
#include <mutex>

#include "profiler/profiler.h"
#include "runtime/eager_context.h"
#include "support/strings.h"

namespace tfe {

namespace {

struct NodeState {
  std::atomic<int> pending{0};
  std::vector<Tensor> outputs;
  uint64_t completion_ns = 0;
};

// Shared run state for one (parallel) executor invocation.
struct RunState {
  std::mutex mu;
  std::condition_variable done_cv;
  int completed = 0;
  int in_flight = 0;  // scheduled or running nodes
  Status first_error;
  bool failed = false;
};

thread_local int g_executor_depth = 0;

struct ScopedExecutorDepth {
  ScopedExecutorDepth() { ++g_executor_depth; }
  ~ScopedExecutorDepth() { --g_executor_depth; }
};

}  // namespace

bool Executor::InExecutor() { return g_executor_depth > 0; }

StatusOr<Executor::Result> Executor::Run(const GraphFunction& function,
                                         const std::vector<Tensor>& args,
                                         Device* default_device,
                                         uint64_t start_ns, bool compiled,
                                         bool parallel,
                                         uint64_t rng_stream_base) {
  const Graph& graph = function.graph();
  const int n = graph.num_nodes();
  if (static_cast<int>(args.size()) != function.num_args()) {
    return InvalidArgument(strings::StrCat(
        "Function ", function.name(), " expects ", function.num_args(),
        " arguments (including captures), got ", args.size()));
  }
  if (default_device == nullptr) default_device = ctx_->HostCpu();

  static profiler::Counter* executor_runs =
      profiler::Metrics().GetCounter("executor.runs");
  executor_runs->Increment();
  profiler::Scope run_span(profiler::EventKind::kExecutorRun, function.name());
  run_span.set_arg(n);

  // Staged execution is a sync point for async eager dispatch (paper §5):
  // pending arguments materialize before the dataflow run so graph kernels
  // never see unresolved handles, and a poisoned argument surfaces its
  // original Status as this call's error.
  for (const Tensor& arg : args) {
    TFE_RETURN_IF_ERROR(arg.Materialize());
  }

  // Each node gets a deterministic Philox stream derived from this run's
  // base and its (topological-order) id, fixed before any node executes —
  // ready-queue scheduling cannot change which stream a random op draws
  // from. SplitMix64 spreads bases so per-run id ranges don't overlap.
  const uint64_t rng_base = random::SplitMix64(
      rng_stream_base != 0 ? rng_stream_base : ctx_->NextRngStream());

  std::vector<NodeState> states(n);
  // Map arg index -> node id for fast Arg lookup.
  std::vector<int> arg_of_node(n, -1);
  for (int i = 0; i < function.num_args(); ++i) {
    arg_of_node[function.arg_nodes()[i]] = i;
  }

  // Executes one node; returns non-OK to abort the run.
  auto exec_node = [&](int id) -> Status {
    ScopedExecutorDepth depth_guard;
    const Node& node = graph.node(id);
    NodeState& state = states[id];

    uint64_t ready_ns = start_ns;
    for (const Endpoint& e : node.inputs) {
      ready_ns = std::max(ready_ns, states[e.node_id].completion_ns);
    }
    for (int dep : node.control_inputs) {
      ready_ns = std::max(ready_ns, states[dep].completion_ns);
    }

    if (node.op == "Arg") {
      int index = arg_of_node[id];
      TFE_CHECK_GE(index, 0);
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
            DTypeName(arg.dtype()), ", expected ",
            DTypeName(expected.dtype)));
      }
      if (!arg.is_resource() && !expected.shape.IsCompatibleWith(arg.shape())) {
        return InvalidArgument(strings::StrCat(
            "Function ", function.name(), " argument ", index, " has shape ",
            arg.shape().ToString(), ", expected ",
            expected.shape.ToString()));
      }
      state.outputs = {arg};
      state.completion_ns = ready_ns;
      return Status::OK();
    }
    if (node.op == "Const") {
      state.outputs = {node.constant_value};
      state.completion_ns = ready_ns;
      return Status::OK();
    }

    Device* device = default_device;
    if (!node.requested_device.empty()) {
      TFE_ASSIGN_OR_RETURN(device,
                           ctx_->devices().FindDevice(node.requested_device));
    }

    std::vector<Tensor> inputs;
    inputs.reserve(node.inputs.size());
    for (const Endpoint& e : node.inputs) {
      inputs.push_back(states[e.node_id].outputs.at(e.index));
    }

    ctx_->stats().executor_nodes.fetch_add(1, std::memory_order_relaxed);
    uint64_t node_stream =
        rng_base + static_cast<uint64_t>(node.rng_id >= 0 ? node.rng_id : id);
    if (node_stream == 0) node_stream = 1;  // 0 means "unassigned"
    TFE_ASSIGN_OR_RETURN(
        EagerContext::KernelRun run,
        ctx_->ExecuteKernel(node.op, inputs, node.attrs, device, compiled,
                            ready_ns, node_stream));
    if (run.completion_ns != 0) {
      state.completion_ns = run.completion_ns;
    } else {
      uint64_t total_ns = run.device_ns;
      if (!compiled) total_ns += device->cost_params().executor_node_ns;
      state.completion_ns =
          total_ns > 0 ? device->timeline().Schedule(ready_ns, total_ns)
                       : ready_ns;
    }
    state.outputs = std::move(run.outputs);
    return Status::OK();
  };

  if (!parallel) {
    // Nodes are appended in creation order during tracing, so ids are a
    // valid topological order.
    for (int id = 0; id < n; ++id) {
      TFE_RETURN_IF_ERROR(exec_node(id));
    }
  } else {
    // Ready-queue execution over the context's thread pool.
    std::vector<std::vector<int>> consumers(n);
    for (int id = 0; id < n; ++id) {
      const Node& node = graph.node(id);
      int pending = static_cast<int>(node.inputs.size()) +
                    static_cast<int>(node.control_inputs.size());
      states[id].pending.store(pending, std::memory_order_relaxed);
      for (const Endpoint& e : node.inputs) {
        consumers[e.node_id].push_back(id);
      }
      for (int dep : node.control_inputs) {
        consumers[dep].push_back(id);
      }
    }

    RunState run_state;

    // Defined before use in the recursive lambda below. Lives until the wait
    // below observes every launched node finished, so reference captures in
    // scheduled closures stay valid.
    std::function<void(int)> run_node = [&](int id) {
      {
        std::lock_guard<std::mutex> lock(run_state.mu);
        if (run_state.failed) {
          if (--run_state.in_flight == 0) run_state.done_cv.notify_all();
          return;
        }
      }
      Status status = exec_node(id);
      std::vector<int> ready;
      if (status.ok()) {
        for (int consumer : consumers[id]) {
          if (states[consumer].pending.fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            ready.push_back(consumer);
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(run_state.mu);
        if (!status.ok() && !run_state.failed) {
          run_state.failed = true;
          run_state.first_error = status;
        }
        ++run_state.completed;
        run_state.in_flight += static_cast<int>(ready.size()) - 1;
        if (run_state.completed == n ||
            (run_state.failed && run_state.in_flight == 0)) {
          run_state.done_cv.notify_all();
        }
      }
      // Run one successor inline (cache-friendly), schedule the rest.
      for (size_t i = 1; i < ready.size(); ++i) {
        int successor = ready[i];
        ctx_->executor_pool().Schedule([&run_node, successor] {
          run_node(successor);
        });
      }
      if (!ready.empty()) run_node(ready[0]);
    };

    std::vector<int> initial;
    for (int id = 0; id < n; ++id) {
      if (states[id].pending.load(std::memory_order_relaxed) == 0) {
        initial.push_back(id);
      }
    }
    run_state.in_flight = static_cast<int>(initial.size());
    for (size_t i = 1; i < initial.size(); ++i) {
      int id = initial[i];
      ctx_->executor_pool().Schedule([&run_node, id] { run_node(id); });
    }
    if (!initial.empty()) run_node(initial[0]);

    std::unique_lock<std::mutex> lock(run_state.mu);
    run_state.done_cv.wait(lock, [&] {
      return run_state.completed == n ||
             (run_state.failed && run_state.in_flight == 0);
    });
    if (run_state.failed) return run_state.first_error;
  }

  Result result;
  result.finish_ns = start_ns;
  result.outputs.reserve(function.num_outputs());
  std::set<std::pair<int, int>> seen_endpoints;
  for (const Endpoint& e : function.outputs()) {
    Tensor output = states[e.node_id].outputs.at(e.index);
    // A graph endpoint returned through several output slots must surface
    // as several tensor identities: gradient tapes key on tensor ids, and a
    // shared id would double-count seeded gradients (forward variants list
    // user outputs and intermediates in one list).
    if (!seen_endpoints.insert({e.node_id, e.index}).second &&
        output.defined() && !output.is_resource() && !output.is_symbolic()) {
      output = output.is_opaque()
                   ? Tensor::Opaque(output.dtype(), output.shape(),
                                    output.device())
                   : Tensor::Concrete(output.dtype(), output.shape(),
                                      output.buffer(), output.device());
    }
    result.outputs.push_back(std::move(output));
    result.finish_ns = std::max(result.finish_ns, states[e.node_id].completion_ns);
  }
  // Side effects count toward completion: a caller synchronizing on the
  // function must observe its assignments.
  for (int id = 0; id < n; ++id) {
    if (graph.node(id).is_stateful()) {
      result.finish_ns = std::max(result.finish_ns, states[id].completion_ns);
    }
  }
  return result;
}

}  // namespace tfe
