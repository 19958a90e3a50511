#include "graph/passes.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <vector>

#include "kernels/fused_elementwise.h"
#include "kernels/program_cache.h"
#include "kernels/run_selector.h"
#include "ops/op_registry.h"
#include "runtime/eager_context.h"
#include "support/strings.h"

namespace tfe {
namespace passes {

namespace {

// Rebuilds `function`'s graph keeping only nodes with keep[id] true,
// remapping every endpoint/control edge/arg/output. Kept nodes preserve
// relative (topological) order.
Status RebuildKeeping(GraphFunction& function, const std::vector<bool>& keep,
                      const std::vector<int>& replace_with) {
  Graph& graph = function.graph();
  const int n = graph.num_nodes();
  std::vector<int> new_id(n, -1);

  // Resolve replacement chains (a pruned node may point at its CSE twin).
  auto resolve = [&](int id) {
    while (replace_with[id] != id) id = replace_with[id];
    return id;
  };

  std::deque<Node> nodes;
  for (int id = 0; id < n; ++id) {
    if (!keep[id]) continue;
    new_id[id] = static_cast<int>(nodes.size());
    nodes.push_back(std::move(graph.node(id)));
  }
  for (Node& node : nodes) {
    node.id = new_id[resolve(node.id)];
    for (Endpoint& e : node.inputs) {
      int target = new_id[resolve(e.node_id)];
      if (target < 0) {
        return Internal("Pass dropped a node that is still referenced");
      }
      e.node_id = target;
    }
    std::vector<int> controls;
    for (int dep : node.control_inputs) {
      int target = new_id[resolve(dep)];
      if (target >= 0 && target != node.id) controls.push_back(target);
    }
    node.control_inputs = std::move(controls);
  }
  for (int& arg : function.arg_nodes()) {
    arg = new_id[resolve(arg)];
    if (arg < 0) return Internal("Pass dropped an Arg node");
  }
  for (Endpoint& out : function.outputs()) {
    out.node_id = new_id[resolve(out.node_id)];
    if (out.node_id < 0) return Internal("Pass dropped an output node");
  }
  graph.ResetNodes(std::move(nodes));
  return Status::OK();
}

std::vector<int> IdentityMap(int n) {
  std::vector<int> map(n);
  for (int i = 0; i < n; ++i) map[i] = i;
  return map;
}

// A graph's not-yet-fused nodes from an anchor on, as the fused-run
// selector's candidate stream: position p is the p-th node at or after the
// anchor that no earlier run claimed. The fused node replaces a run at its
// anchor, so an input produced before the anchor, or by a node an earlier
// run claimed (that run's fused node sits at an earlier anchor), is an
// external operand the run may always read without forming a cycle.
class GraphRunSource final : public kernels::FusedRunSource {
 public:
  GraphRunSource(const Graph& graph,
                 const std::vector<const kernels::FusedMemberClass*>& cls,
                 const std::vector<int>& run_of, const std::vector<int>& reads,
                 int anchor)
      : graph_(graph), cls_(cls), run_of_(run_of), reads_(reads),
        anchor_(anchor) {}

  int node_at(int pos) const { return ids_[pos]; }

  bool Candidate(int pos, kernels::FusedRunCandidate* out) override {
    TFE_CHECK_EQ(pos, static_cast<int>(ids_.size()));
    int id = ids_.empty() ? anchor_ : ids_.back() + 1;
    while (id < graph_.num_nodes() && run_of_[id] >= 0) ++id;
    if (id >= graph_.num_nodes()) return false;
    ids_.push_back(id);
    const Node& node = graph_.node(id);
    out->id = id;
    out->op = node.def;
    out->attrs = &node.attrs;
    out->cls = cls_[id];
    out->num_inputs = static_cast<int>(node.inputs.size());
    if (node.num_outputs() == 1) {
      out->dtype = node.outputs[0].dtype;
      out->shape = &node.outputs[0].shape;
    }
    return true;
  }

  kernels::FusedRunInput Input(int pos, int i) override {
    const Endpoint& e = graph_.node(ids_[pos]).inputs[i];
    kernels::FusedRunInput in;
    if (e.node_id >= anchor_ && run_of_[e.node_id] < 0) {
      in.producer = e.node_id;
      return in;
    }
    const TypeAndShape& type = graph_.endpoint_type(e);
    in.key = (static_cast<int64_t>(e.node_id) << 32) | e.index;
    in.dtype = type.dtype;
    in.shape = &type.shape;
    in.usable = true;
    return in;
  }

  // Read outside the run: by a node that is not a later member, or by the
  // function's return list.
  bool ReadOutside(const std::vector<int>& members, size_t k) override {
    const int id = ids_[members[k]];
    int in_run = 0;
    for (size_t m = k + 1; m < members.size(); ++m) {
      for (const Endpoint& e : graph_.node(ids_[members[m]]).inputs) {
        if (e.node_id == id) ++in_run;
      }
    }
    return reads_[id] > in_run;
  }

 private:
  const Graph& graph_;
  const std::vector<const kernels::FusedMemberClass*>& cls_;
  const std::vector<int>& run_of_;
  const std::vector<int>& reads_;
  const int anchor_;
  std::vector<int> ids_;  // node id per scan position, ascending
};

}  // namespace

Status Prune(GraphFunction& function, PassStats* stats) {
  Graph& graph = function.graph();
  const int n = graph.num_nodes();
  std::vector<bool> keep(n, false);
  std::vector<int> worklist;

  auto mark = [&](int id) {
    if (!keep[id]) {
      keep[id] = true;
      worklist.push_back(id);
    }
  };

  for (const Endpoint& out : function.outputs()) mark(out.node_id);
  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    if (node.is_stateful() || node.def->binding == OpDef::Binding::kArg) {
      mark(id);
    }
  }
  while (!worklist.empty()) {
    int id = worklist.back();
    worklist.pop_back();
    for (const Endpoint& e : graph.node(id).inputs) mark(e.node_id);
    for (int dep : graph.node(id).control_inputs) mark(dep);
  }

  int pruned = 0;
  for (int id = 0; id < n; ++id) {
    if (!keep[id]) ++pruned;
  }
  if (stats != nullptr) stats->pruned_nodes += pruned;
  if (pruned == 0) return Status::OK();
  return RebuildKeeping(function, keep, IdentityMap(n));
}

Status EliminateCommonSubexpressions(GraphFunction& function,
                                     PassStats* stats) {
  Graph& graph = function.graph();
  const int n = graph.num_nodes();
  std::vector<int> replace_with = IdentityMap(n);
  std::vector<bool> keep(n, true);
  std::map<std::string, int> canonical;
  int merged = 0;

  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    if (node.is_stateful() || node.is_bound()) continue;
    std::string key = node.def->name + "|" + node.requested_device + "|" +
                      AttrMapToString(node.attrs) + "|";
    for (const Endpoint& e : node.inputs) {
      int src = e.node_id;
      while (replace_with[src] != src) src = replace_with[src];
      key += strings::StrCat(src, ":", e.index, ",");
    }
    auto [it, inserted] = canonical.emplace(key, id);
    if (!inserted) {
      replace_with[id] = it->second;
      keep[id] = false;
      ++merged;
    }
  }
  if (stats != nullptr) stats->cse_merged += merged;
  if (merged == 0) return Status::OK();
  return RebuildKeeping(function, keep, replace_with);
}

Status FoldConstants(GraphFunction& function, PassStats* stats) {
  Graph& graph = function.graph();
  EagerContext* ctx = EagerContext::Global();
  TFE_ASSIGN_OR_RETURN(const OpDef* const_def,
                       OpRegistry::Global()->LookUp("Const"));
  const int n = graph.num_nodes();
  int folded = 0;

  for (int id = 0; id < n; ++id) {
    Node& node = graph.node(id);
    if (node.is_stateful() || node.is_bound() || node.num_outputs() != 1) {
      continue;
    }
    bool all_const = !node.inputs.empty();
    std::vector<Tensor> inputs;
    for (const Endpoint& e : node.inputs) {
      const Node& src = graph.node(e.node_id);
      if (src.def->binding != OpDef::Binding::kConst) {
        all_const = false;
        break;
      }
      inputs.push_back(src.constant_value);
    }
    if (!all_const) continue;

    auto run = ctx->ExecuteKernel(*node.def, inputs, node.attrs,
                                  ctx->HostCpu(), /*compiled=*/false,
                                  /*start_ns=*/0);
    if (!run.ok() || run->outputs.size() != 1) continue;  // fold is best-effort
    // Rewrite in place as a Const node.
    node.def = const_def;
    node.attrs.clear();
    node.inputs.clear();
    node.constant_value = run->outputs[0];
    node.outputs = {{node.constant_value.dtype(), node.constant_value.shape()}};
    ++folded;
  }
  if (stats != nullptr) stats->folded_constants += folded;
  return Status::OK();
}

Status Optimize(GraphFunction& function, PassStats* stats) {
  TFE_RETURN_IF_ERROR(FoldConstants(function, stats));
  TFE_RETURN_IF_ERROR(EliminateCommonSubexpressions(function, stats));
  TFE_RETURN_IF_ERROR(Prune(function, stats));
  return Status::OK();
}

StatusOr<std::vector<int>> DropUnreadParameters(GraphFunction& function,
                                                int begin, int end) {
  if (begin < 0 || begin > end || end > function.num_explicit_args()) {
    return InvalidArgument("DropUnreadParameters: bad parameter range");
  }
  Graph& graph = function.graph();
  const int n = graph.num_nodes();
  std::vector<bool> read(n, false);
  for (int id = 0; id < n; ++id) {
    for (const Endpoint& e : graph.node(id).inputs) read[e.node_id] = true;
    for (int dep : graph.node(id).control_inputs) read[dep] = true;
  }
  for (const Endpoint& out : function.outputs()) read[out.node_id] = true;

  std::vector<bool> keep(n, true);
  std::vector<int> kept;
  std::vector<int> arg_nodes;
  for (int i = 0; i < function.num_args(); ++i) {
    const int node = function.arg_nodes()[i];
    const bool in_range = i >= begin && i < end;
    if (in_range && !read[node]) {
      keep[node] = false;
      continue;
    }
    if (in_range) kept.push_back(i - begin);
    graph.node(node).attrs["index"] =
        AttrValue(static_cast<int64_t>(arg_nodes.size()));
    arg_nodes.push_back(node);
  }
  if (static_cast<int>(arg_nodes.size()) == function.num_args()) return kept;
  function.arg_nodes() = std::move(arg_nodes);
  TFE_RETURN_IF_ERROR(RebuildKeeping(function, keep, IdentityMap(n)));
  return kept;
}

Status FuseElementwise(GraphFunction& function, PassStats* stats) {
  Graph& graph = function.graph();
  const int n = graph.num_nodes();

  // Constants and arguments carry no dataflow or control inputs, so
  // floating them to the front preserves topological order while making
  // fusable spans contiguous — a mid-chain scalar Const (ops::scalar inside
  // the traced body) no longer splits a run. The drain never had this
  // problem: resolved constants are operands there, not queue entries.
  {
    auto leading = [&](int id) { return graph.node(id).is_bound(); };
    std::vector<int> order;
    order.reserve(n);
    for (int id = 0; id < n; ++id) {
      if (leading(id)) order.push_back(id);
    }
    for (int id = 0; id < n; ++id) {
      if (!leading(id)) order.push_back(id);
    }
    bool identity = true;
    for (int i = 0; i < n; ++i) identity = identity && order[i] == i;
    if (!identity) {
      std::vector<int> new_id(n);
      for (int i = 0; i < n; ++i) new_id[order[i]] = i;
      std::deque<Node> reordered;
      for (int i = 0; i < n; ++i) {
        Node& node = graph.node(order[i]);
        // Pin the RNG stream before renumbering (see the rebuild below).
        if (node.rng_id < 0) node.rng_id = order[i];
        node.id = i;
        for (Endpoint& e : node.inputs) e.node_id = new_id[e.node_id];
        for (int& dep : node.control_inputs) dep = new_id[dep];
        reordered.push_back(std::move(node));
      }
      for (int& arg : function.arg_nodes()) arg = new_id[arg];
      for (Endpoint& out : function.outputs()) {
        out.node_id = new_id[out.node_id];
      }
      graph.ResetNodes(std::move(reordered));
    }
  }

  // Each node's run-member class (only single-output nodes without control
  // dependencies qualify), and how many input slots and function outputs
  // read it.
  std::vector<const kernels::FusedMemberClass*> member_class(n, nullptr);
  std::vector<int> reads(n, 0);
  for (int id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    if (node.control_inputs.empty() && node.num_outputs() == 1 &&
        kernels::ClassifyFusedMember(*node.def, node.attrs, node.inputs.size(),
                                     node.outputs[0].dtype,
                                     node.outputs[0].shape)) {
      member_class[id] = &node.def->fused;
    }
    for (const Endpoint& e : node.inputs) ++reads[e.node_id];
  }
  for (const Endpoint& out : function.outputs()) ++reads[out.node_id];

  // Runs, anchored in id order: each anchor offers the nodes no earlier run
  // claimed to the selector shared with the op-queue drain.
  struct Run {
    std::vector<int> members;  // ascending node ids; front() is the anchor
    std::vector<Endpoint> operands;
    std::shared_ptr<const kernels::FusedProgram> program;
  };
  std::vector<Run> runs;
  std::vector<int> run_of(n, -1);
  for (int anchor = 0; anchor < n; ++anchor) {
    if (run_of[anchor] >= 0 || member_class[anchor] == nullptr) continue;
    GraphRunSource source(graph, member_class, run_of, reads, anchor);
    kernels::FusedRunSelection selection = kernels::SelectFusedRun(
        source, kernels::FusedProgramCache::Global());
    if (selection.members.empty()) continue;
    Run& run = runs.emplace_back();
    for (int pos : selection.members) {
      run.members.push_back(source.node_at(pos));
      run_of[run.members.back()] = static_cast<int>(runs.size()) - 1;
    }
    for (const kernels::FusedRunSlot& slot : selection.operands) {
      run.operands.push_back(
          graph.node(run.members[slot.member]).inputs[slot.input]);
    }
    run.program = std::move(selection.program);
  }
  if (runs.empty()) return Status::OK();

  // Rebuild the node list: non-run nodes move over; each run collapses to a
  // FusedElementwise node at its anchor position. Nodes sitting in a run's
  // holes keep their relative order, which stays topological because every
  // external operand of the run is produced before the anchor (by a node
  // there, or by an earlier run's fused node).
  TFE_ASSIGN_OR_RETURN(const OpDef* fused_def,
                       OpRegistry::Global()->LookUp("FusedElementwise"));
  std::deque<Node> nodes;
  std::vector<int> new_node_id(n, -1);
  std::vector<int> fused_out_index(n, -1);
  for (int id = 0; id < n; ++id) {
    const int r = run_of[id];
    if (r >= 0 && runs[r].members.front() != id) continue;  // absorbed
    if (r < 0) {
      new_node_id[id] = static_cast<int>(nodes.size());
      Node& node = graph.node(id);
      // Pin the RNG stream to the pre-fusion id so random ops draw the same
      // stream whether or not this execution-only rewrite ran.
      if (node.rng_id < 0) node.rng_id = id;
      nodes.push_back(std::move(node));
      continue;
    }
    Run& run = runs[r];
    const kernels::CompiledRun& compiled = run.program->run;
    Node fused;
    fused.def = fused_def;
    for (size_t k = 0; k < compiled.output_members.size(); ++k) {
      const int member = run.members[compiled.output_members[k]];
      fused_out_index[member] = static_cast<int>(k);
      fused.outputs.push_back(graph.node(member).outputs[0]);
    }
    fused.program = std::shared_ptr<const kernels::CompiledRun>(
        run.program, &compiled);
    fused.inputs = std::move(run.operands);
    const int fused_id = static_cast<int>(nodes.size());
    for (int i : run.members) new_node_id[i] = fused_id;
    nodes.push_back(std::move(fused));
    if (stats != nullptr) {
      stats->fused_runs += 1;
      stats->fused_nodes += static_cast<int>(run.members.size());
      if (compiled.has_reduce) stats->fused_reduce_runs += 1;
      const bool contiguous =
          run.members.back() - run.members.front() + 1 ==
          static_cast<int>(run.members.size());
      if (!contiguous || compiled.output_members.size() > 1) {
        stats->fused_dag_runs += 1;
      }
    }
  }

  // Remap every surviving edge, arg, and output to the new id space.
  auto remap = [&](Endpoint& e) {
    if (run_of[e.node_id] >= 0) {
      e = Endpoint{new_node_id[e.node_id], fused_out_index[e.node_id]};
    } else {
      e.node_id = new_node_id[e.node_id];
    }
  };
  int index = 0;
  for (Node& node : nodes) {
    node.id = index++;
    for (Endpoint& e : node.inputs) remap(e);
    std::vector<int> controls;
    for (int dep : node.control_inputs) {
      const int target = new_node_id[dep];
      if (target >= 0 && target != node.id &&
          std::find(controls.begin(), controls.end(), target) ==
              controls.end()) {
        controls.push_back(target);
      }
    }
    node.control_inputs = std::move(controls);
  }
  for (int& arg : function.arg_nodes()) arg = new_node_id[arg];  // never fused
  for (Endpoint& out : function.outputs()) remap(out);
  graph.ResetNodes(std::move(nodes));
  return Status::OK();
}

}  // namespace passes
}  // namespace tfe
