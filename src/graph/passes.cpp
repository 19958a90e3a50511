#include "graph/passes.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "device/device.h"
#include "kernels/fused_elementwise.h"
#include "kernels/program_cache.h"
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
    std::string key = node.op + "|" + node.requested_device + "|" +
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
    node.op = "Const";
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

  // A node's fused-run class under the run-membership rules shared with the
  // op-queue drain; only single-output nodes without control dependencies
  // are candidates. nullptr when the node cannot join a run.
  auto member_class =
      [&](const Node& node) -> const kernels::FusedMemberClass* {
    const bool member =
        node.control_inputs.empty() && node.num_outputs() == 1 &&
        kernels::ClassifyFusedMember(*node.def, node.attrs, node.inputs.size(),
                                     node.outputs[0].dtype,
                                     node.outputs[0].shape);
    return member ? &node.def->fused : nullptr;
  };

  // Describes member `id` of a run (the ascending member-id list) to the run
  // compiler; external operands collect (deduplicated) into `operands`.
  auto member_desc = [&](int id, const std::vector<int>& members,
                         std::vector<Endpoint>& operands)
      -> kernels::FusedRunOp {
    const Node& node = graph.node(id);
    kernels::FusedRunOp op = kernels::MakeFusedRunOp(
        *node.def, node.attrs, node.outputs[0].dtype, node.outputs[0].shape);
    for (const Endpoint& e : node.inputs) {
      // An input produced by an earlier member references its position in
      // the member list (ids ascend, so any member input is earlier).
      int producer = -1;
      for (size_t k = 0; k < members.size() && members[k] < id; ++k) {
        if (members[k] == e.node_id) {
          producer = static_cast<int>(k);
          break;
        }
      }
      if (producer >= 0) {
        op.args.push_back({producer, /*operand=*/-1});
        continue;
      }
      int idx = -1;
      for (size_t k = 0; k < operands.size(); ++k) {
        if (operands[k] == e) {
          idx = static_cast<int>(k);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(operands.size());
        operands.push_back(e);
      }
      op.args.push_back({/*producer=*/-1, /*operand=*/idx});
    }
    return op;
  };

  auto build_descs = [&](const std::vector<int>& members,
                         std::vector<Endpoint>* operands,
                         std::vector<kernels::FusedRunOperand>* operand_descs)
      -> std::vector<kernels::FusedRunOp> {
    std::vector<kernels::FusedRunOp> ops;
    for (int id : members) {
      ops.push_back(member_desc(id, members, *operands));
    }
    for (const Endpoint& e : *operands) {
      const TypeAndShape& t = graph.endpoint_type(e);
      operand_descs->push_back({t.dtype, t.shape});
    }
    return ops;
  };

  // How far past a run's anchor the DAG capture scan looks for members
  // (mirrors the drain's bounded peek-plus-skip window).
  constexpr int kMaxScanWindow = 192;

  // Greedy maximal DAG segments: each run is an ascending member-id list,
  // not necessarily contiguous — the scan steps over non-joining nodes
  // (holes), so a non-fusable op interleaved in a diamond no longer cuts the
  // run. The fused node replaces the run at its *anchor* (first member)
  // position, so cycle freedom needs every external operand to precede the
  // anchor: a node whose input comes from a skipped node (id >= anchor, not
  // a member) does not join. Each candidate is trial-compiled and shrunk
  // from the tail until it compiles — the compiler is the single authority
  // on layout compatibility.
  struct Run {
    std::vector<int> members;  // ascending node ids; front() is the anchor
  };
  std::vector<Run> runs;
  std::vector<int> run_of(n, -1);
  int start = 0;
  while (start < n) {
    const kernels::FusedMemberClass* start_cls =
        run_of[start] >= 0 ? nullptr : member_class(graph.node(start));
    if (start_cls == nullptr ||
        start_cls->kind == kernels::FusedMemberKind::kReduce) {
      ++start;
      continue;
    }
    const DType dtype = graph.node(start).outputs[0].dtype;
    std::vector<int> members{start};
    auto member_pos = [&](int id) -> int {
      for (size_t k = 0; k < members.size(); ++k) {
        if (members[k] == id) return static_cast<int>(k);
      }
      return -1;
    };
    // Every input is an in-run value or an external operand passing the
    // shared operand rule that precedes the anchor (see above).
    auto inputs_ok = [&](const Node& node,
                         const kernels::FusedMemberClass& cls) {
      for (const Endpoint& e : node.inputs) {
        if (member_pos(e.node_id) >= 0) {
          if (e.index != 0) return false;
          continue;
        }
        if (e.node_id >= start) return false;  // skipped node: would cycle
        const TypeAndShape& t = graph.endpoint_type(e);
        if (!kernels::FusedOperandOk(cls, node.outputs[0].dtype,
                                     node.outputs[0].shape, t.dtype,
                                     t.shape)) {
          return false;
        }
      }
      return true;
    };
    // The anchor's own operands are validated here (the member scan starts
    // past it); without this, a hopeless anchor would churn through the
    // shrink loop's trial compiles before being discarded.
    if (!inputs_ok(graph.node(start), *start_cls)) {
      ++start;
      continue;
    }
    int64_t run_count = graph.node(start).outputs[0].shape.num_elements();
    bool saw_reduce = false;
    for (int j = start + 1;
         j < n && j < start + kMaxScanWindow && !saw_reduce &&
         members.size() < kernels::kMaxFusedRunMembers;
         ++j) {
      if (run_of[j] >= 0) continue;  // claimed by an earlier run
      const Node& node = graph.node(j);
      const kernels::FusedMemberClass* cls = member_class(node);
      if (cls == nullptr || node.outputs[0].dtype != dtype) {
        continue;  // a hole: step over it
      }
      const int64_t count = node.outputs[0].shape.num_elements();
      bool ok;
      if (cls->kind == kernels::FusedMemberKind::kReduce) {
        // Joins only as the terminating epilogue of an in-run value; a
        // reduction of an in-run value of the full count ends the scan
        // whether or not it fits.
        const Endpoint& e = node.inputs[0];
        const Shape& producer_shape = graph.node(e.node_id).outputs[0].shape;
        saw_reduce = member_pos(e.node_id) >= 0 && e.index == 0 &&
                     producer_shape.num_elements() == run_count;
        ok = saw_reduce &&
             kernels::FusedReduceFits(node.attrs, producer_shape, run_count);
      } else {
        ok = kernels::FusedCountFits(count, run_count) &&
             inputs_ok(node, *cls);
      }
      if (!ok) continue;  // a hole: step over it
      members.push_back(j);
      if (cls->kind != kernels::FusedMemberKind::kReduce) {
        run_count = std::max(run_count, count);
      }
    }
    // Shrink from the tail until the segment compiles (trial
    // materialization: only the last member publishes — output emission
    // itself cannot fail, so a compiling trial compiles with any
    // materialize set).
    while (members.size() >= 2) {
      std::vector<Endpoint> operands;
      std::vector<kernels::FusedRunOperand> operand_descs;
      std::vector<kernels::FusedRunOp> ops =
          build_descs(members, &operands, &operand_descs);
      ops.back().materialize = true;
      if (kernels::CompileFusedRun(ops, operand_descs, dtype).ok()) break;
      members.pop_back();
    }
    if (members.size() >= 2) {
      for (int id : members) run_of[id] = static_cast<int>(runs.size());
      runs.push_back({std::move(members)});
    }
    ++start;
  }
  if (runs.empty()) return Status::OK();

  // A run member's value must materialize as a fused output when anything
  // outside its run — another node or the function's return list — reads it.
  std::vector<bool> used_outside(n, false);
  for (int id = 0; id < n; ++id) {
    for (const Endpoint& e : graph.node(id).inputs) {
      if (run_of[e.node_id] >= 0 && run_of[e.node_id] != run_of[id]) {
        used_outside[e.node_id] = true;
      }
    }
  }
  for (const Endpoint& out : function.outputs()) {
    if (run_of[out.node_id] >= 0) used_outside[out.node_id] = true;
  }
  // A fully-internal run (possible in principle, not after Prune) still
  // publishes its final value.
  for (const Run& run : runs) {
    bool any = false;
    for (int i : run.members) any = any || used_outside[i];
    if (!any) used_outside[run.members.back()] = true;
  }

  // Compile every run before any node moves out of the graph: build_descs
  // reads graph.endpoint_type() for external operands, which must happen
  // while their producer nodes are still intact.
  struct RunCompiled {
    std::vector<Endpoint> operands;
    kernels::CompiledRun compiled;
    std::vector<TypeAndShape> outputs;  // one per compiled.output_members
    DType dtype = DType::kFloat32;
  };
  std::vector<RunCompiled> run_compiled;
  run_compiled.reserve(runs.size());
  for (const Run& run : runs) {
    RunCompiled rc;
    rc.dtype = graph.node(run.members.front()).outputs[0].dtype;
    std::vector<kernels::FusedRunOperand> operand_descs;
    std::vector<kernels::FusedRunOp> ops =
        build_descs(run.members, &rc.operands, &operand_descs);
    for (size_t k = 0; k < run.members.size(); ++k) {
      ops[k].materialize = used_outside[run.members[k]];
    }
    auto compiled_or = kernels::FusedProgramCache::Global().GetOrCompile(
        ops, operand_descs, rc.dtype);
    if (!compiled_or.ok()) {
      // The trial compile accepted this segment and materialization cannot
      // introduce new failures, so this is a pass invariant violation.
      return Internal("FuseElementwise segment stopped compiling: " +
                      compiled_or.status().message());
    }
    rc.compiled = std::move(*compiled_or);
    for (int member_off : rc.compiled.output_members) {
      rc.outputs.push_back(graph.node(run.members[member_off]).outputs[0]);
    }
    run_compiled.push_back(std::move(rc));
  }

  // Rebuild the node list: non-run nodes move over; each run collapses to a
  // FusedElementwise node at its anchor position. Nodes sitting in a run's
  // holes keep their relative order, which stays topological because every
  // external operand of the run precedes the anchor.
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
    const Run& run = runs[r];
    RunCompiled& rc = run_compiled[r];
    Node fused;
    fused.op = "FusedElementwise";
    fused.def = fused_def;
    for (size_t k = 0; k < rc.compiled.output_members.size(); ++k) {
      const int member = run.members[rc.compiled.output_members[k]];
      fused_out_index[member] = static_cast<int>(k);
    }
    fused.outputs = std::move(rc.outputs);
    fused.attrs.emplace("program", AttrValue(rc.compiled.program.Encode()));
    // Extended programs may read operands under layout maps or foreign
    // dtypes, so the run dtype is always explicit.
    fused.attrs.emplace("dtype", AttrValue(rc.dtype));
    fused.inputs = std::move(rc.operands);
    const int fused_id = static_cast<int>(nodes.size());
    for (int i : run.members) new_node_id[i] = fused_id;
    nodes.push_back(std::move(fused));
    if (stats != nullptr) {
      stats->fused_runs += 1;
      stats->fused_nodes += static_cast<int>(run.members.size());
      if (rc.compiled.has_reduce) stats->fused_reduce_runs += 1;
      const bool contiguous =
          run.members.back() - run.members.front() + 1 ==
          static_cast<int>(run.members.size());
      if (!contiguous || rc.compiled.output_members.size() > 1) {
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

namespace {

// Guards FusedExecutionVariant against recursive graph functions: the
// variant mutex is held while the build callback runs, so re-entering
// GetOrBuildExecutionVariant on a function already being built on this
// thread would self-deadlock.
std::set<const GraphFunction*>& VariantsInProgress() {
  thread_local std::set<const GraphFunction*> in_progress;
  return in_progress;
}

}  // namespace

std::shared_ptr<GraphFunction> FusedExecutionVariant(
    EagerContext* ctx, Device* device,
    const std::shared_ptr<GraphFunction>& function, bool* built_now) {
  if (built_now != nullptr) *built_now = false;
  if (ctx == nullptr || !ctx->fuse_elementwise() || device == nullptr ||
      device->is_accelerator() || !device->executes_kernels()) {
    return function;
  }
  auto& in_progress = VariantsInProgress();
  if (!in_progress.insert(function.get()).second) return function;

  bool ran_build = false;
  auto fused = function->GetOrBuildExecutionVariant(
      [&]() -> std::shared_ptr<GraphFunction> {
        ran_build = true;
        // Pre-build variants for every referenced subfunction so Cond
        // branches and While bodies fuse even when the *outer* graph has
        // nothing worth fusing itself.
        for (const std::string& name : function->ReferencedFunctions()) {
          auto callee = ctx->functions().Find(name);
          if (callee.ok()) FusedExecutionVariant(ctx, device, *callee);
        }
        auto variant = std::make_shared<GraphFunction>(function->name() +
                                                       "__fused_ew");
        if (!CloneGraphFunctionInto(*function, *variant).ok()) return nullptr;
        PassStats pstats;
        if (!FuseElementwise(*variant, &pstats).ok()) return nullptr;
        if (pstats.fused_runs == 0) return nullptr;  // nothing to gain
        return variant;
      });
  in_progress.erase(function.get());
  if (built_now != nullptr) *built_now = ran_build;
  return fused != nullptr ? fused : function;
}

}  // namespace passes
}  // namespace tfe
