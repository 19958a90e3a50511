#include "kernels/run_selector.h"

#include <algorithm>
#include <array>

#include "kernels/program_cache.h"
#include "profiler/metrics.h"
#include "profiler/profiler.h"

namespace tfe {
namespace kernels {

FusedRunSelection SelectFusedRun(FusedRunSource& source,
                                 FusedProgramCache& cache) {
  static const uint32_t fused_run_name_id = profiler::Intern("fused_run");
  static profiler::Counter* candidates_counter =
      profiler::Metrics().GetCounter("fusion.scan.candidates");
  // A candidate's facts, and its input facts once they were asked for
  // (members always have them).
  struct Scanned {
    FusedRunCandidate c;
    std::array<FusedRunInput, 2> inputs;  // members have at most two inputs
  };
  FusedRunSelection selection;
  Scanned next;
  if (!source.Candidate(0, &next.c)) return selection;
  const DType dtype = next.c.dtype;
  // Members' scan positions (ascending) and facts; holes keep none.
  std::vector<int> members;
  std::vector<Scanned> facts;
  // The member producing `id`, or -1. Producers are mostly recent members.
  auto member_of = [&](int64_t id) -> int {
    if (id < 0) return -1;
    for (int k = static_cast<int>(facts.size()) - 1; k >= 0; --k) {
      if (facts[k].c.id == id) return k;
    }
    return -1;
  };
  // The operand rule, for a non-reduce candidate at `pos`.
  auto inputs_ok = [&](int pos) {
    for (int i = 0; i < next.c.num_inputs; ++i) {
      const FusedRunInput& in = next.inputs[i] = source.Input(pos, i);
      const bool ok = in.producer >= 0
                          ? member_of(in.producer) >= 0
                          : in.usable && FusedOperandOk(*next.c.cls, dtype,
                                                        *next.c.shape,
                                                        in.dtype, *in.shape);
      if (!ok) return false;
    }
    return true;
  };
  if (next.c.cls == nullptr || next.c.cls->kind == FusedMemberKind::kReduce ||
      !inputs_ok(0)) {
    candidates_counter->Increment(1);  // a front that cannot anchor
    return selection;
  }
  members.reserve(kMaxFusedRunMembers);
  facts.reserve(kMaxFusedRunMembers);
  members.push_back(0);
  facts.push_back(next);

  // The greedy scan. Members are scalar or share one count, so the maximum
  // member count is the run's evaluation count.
  int64_t run_count = next.c.shape->num_elements();
  size_t holes = 0;
  int scanned = 1;  // candidates the scan reached, the anchor included
  for (int pos = 1; members.size() < kMaxFusedRunMembers &&
                    holes < kMaxFusedRunSkips;
       ++pos) {
    next = Scanned();
    if (!source.Candidate(pos, &next.c)) break;
    ++scanned;
    const FusedRunCandidate& c = next.c;
    bool joins = c.cls != nullptr && c.dtype == dtype;
    if (joins && c.cls->kind == FusedMemberKind::kReduce) {
      const FusedRunInput& in = next.inputs[0] = source.Input(pos, 0);
      const int producer = member_of(in.producer);
      joins = producer >= 0 && FusedReduceFits(*c.attrs,
                                               *facts[producer].c.shape,
                                               run_count);
    } else if (joins) {
      const int64_t count = c.shape->num_elements();
      joins = FusedCountFits(count, run_count) && inputs_ok(pos);
      if (joins) run_count = std::max(run_count, count);
    }
    if (!joins) {
      ++holes;
      continue;
    }
    members.push_back(pos);
    facts.push_back(next);
    if (c.cls->kind == FusedMemberKind::kReduce) break;  // the epilogue
  }
  candidates_counter->Increment(scanned);

  // Shrink from the tail until the run compiles. The description is built
  // once; dropping the last member drops its op and the operands it
  // introduced (they come last) and re-derives what stays observable.
  std::vector<FusedRunOp> ops;
  std::vector<FusedRunOperand> operands;
  std::vector<int64_t> keys;
  ops.reserve(members.size());
  for (size_t k = 0; k < members.size(); ++k) {
    const Scanned& s = facts[k];
    FusedRunOp& op = ops.emplace_back(
        MakeFusedRunOp(*s.c.op, *s.c.attrs, s.c.dtype, *s.c.shape));
    for (int i = 0; i < s.c.num_inputs; ++i) {
      const FusedRunInput& in = s.inputs[i];
      if (in.producer >= 0) {
        op.args.push_back({member_of(in.producer), -1});
        continue;
      }
      auto it = std::find(keys.begin(), keys.end(), in.key);
      if (it == keys.end()) {
        keys.push_back(in.key);
        operands.push_back({in.dtype, *in.shape, in.may_donate});
        selection.operands.push_back({static_cast<int>(k), i});
        it = keys.end() - 1;
      }
      op.args.push_back({-1, static_cast<int>(it - keys.begin())});
    }
  }
  for (; members.size() >= 2; members.pop_back()) {
    const size_t size = members.size();
    ops.resize(size);
    while (!selection.operands.empty() &&
           selection.operands.back().member >= static_cast<int>(size)) {
      selection.operands.pop_back();
      operands.pop_back();
    }
    for (size_t k = 0; k < size; ++k) {
      ops[k].materialize = k + 1 == size || source.ReadOutside(members, k);
    }
    std::shared_ptr<const FusedProgram> program =
        cache.GetOrCompile(ops, operands, dtype);
    if (!program->ok()) continue;
    selection.members = members;
    selection.program = std::move(program);
    profiler::RecordInstant(profiler::EventKind::kFusionRun,
                            fused_run_name_id,
                            static_cast<int64_t>(members.size()));
    return selection;
  }
  selection.operands.clear();
  return selection;
}

}  // namespace kernels
}  // namespace tfe
