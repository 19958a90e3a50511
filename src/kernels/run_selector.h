// The one fused-run selector both fusion frontends call: the op-queue drain
// (the imperative stage, paper §5) and passes::FuseElementwise (the staged
// stage, §4.6) see the same ops, so they form the same runs. The policy:
//   * anchor: position 0 is a non-reduce member with usable operands;
//   * greedy DAG scan: a later position joins when it passes the count,
//     dtype and operand rules (FusedCountFits, FusedOperandOk) and is
//     stepped over as a hole otherwise; a hole's value cannot feed a member;
//   * reduce epilogue: a reduction joins only where FusedReduceFits, and
//     closes the run; one that does not fit is a hole like any other;
//   * scan bound: kMaxFusedRunSkips holes or kMaxFusedRunMembers members;
//   * shrink: the run compiles through the FusedProgramCache, dropping its
//     last member until the compiler accepts it (a scalar tail, a layout
//     conflict). A cached rejection makes a retry a lookup, and the run's
//     description is built once, not per retry.
// A frontend hands over facts only (FusedRunSource); the selector never asks
// which frontend called it. A frontend that keeps per-candidate facts (the
// drain computes a queued node's member class once) hands them over as they
// are; the selection returns the shared cache entry, so a hit copies no
// program. Each selection adds the number of candidates its scan reached
// to the fusion.scan.candidates counter.
#ifndef TFE_KERNELS_RUN_SELECTOR_H_
#define TFE_KERNELS_RUN_SELECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/fused_elementwise.h"

namespace tfe {
namespace kernels {

class FusedProgramCache;
struct FusedProgram;

// Most holes one scan steps over: bounds the work per selection.
constexpr size_t kMaxFusedRunSkips = 128;

// One input of a member-class candidate.
struct FusedRunInput {
  // The FusedRunCandidate::id of the candidate producing this value when it
  // comes from the stream, or -1 for an external operand.
  int64_t producer = -1;
  // External operands only: equal keys name one value (one kernel operand);
  // dtype and shape are set when `usable` — plain data readable in place.
  int64_t key = 0;
  DType dtype = DType::kInvalid;
  const Shape* shape = nullptr;
  bool usable = false;
  bool may_donate = false;  // see FusedRunOperand::may_donate
};

struct FusedRunCandidate {
  int64_t id = -1;  // names its value to its consumers' FusedRunInput
  const OpDef* op = nullptr;
  const AttrMap* attrs = nullptr;
  // &op->fused when the candidate may be a run member (ClassifyFusedMember
  // plus the frontend's single-output rule); null makes it a hole.
  const FusedMemberClass* cls = nullptr;
  int num_inputs = 0;
  DType dtype = DType::kInvalid;  // the single output's; member class only
  const Shape* shape = nullptr;
};

// A frontend's view of the op stream behind an anchor. Pointers in the facts
// must stay valid until SelectFusedRun returns.
class FusedRunSource {
 public:
  virtual ~FusedRunSource() = default;
  // The candidate at scan position `pos` (0 is the anchor); false when the
  // stream ends before `pos`. Positions are asked for in increasing order.
  virtual bool Candidate(int pos, FusedRunCandidate* out) = 0;
  // Input `i` of the member-class candidate at `pos`; asked only once the
  // candidate passed the dtype and count rules.
  virtual FusedRunInput Input(int pos, int i) = 0;
  // Whether the value of `members[k]` is read by anything but the input
  // slots of `members`; such a value is published as a kernel output.
  virtual bool ReadOutside(const std::vector<int>& members, size_t k) = 0;
};

// Where a kernel operand is first read: input `input` of member `member`
// (an index into FusedRunSelection::members).
struct FusedRunSlot {
  int member = 0;
  int input = 0;
};

struct FusedRunSelection {
  // Ascending scan positions, the anchor first; empty when no run of two or
  // more members compiles.
  std::vector<int> members;
  std::vector<FusedRunSlot> operands;  // one per kernel input, in order
  // The run's cache entry: the compiled run the kernel executes.
  // Null when `members` is empty.
  std::shared_ptr<const FusedProgram> program;
};

// Selects the run anchored at `source`'s position 0 and compiles it through
// `cache`. Records a fused_run trace instant carrying the member count, and
// adds the number of candidates the scan reached (the anchor included) to
// the fusion.scan.candidates counter.
FusedRunSelection SelectFusedRun(FusedRunSource& source,
                                 FusedProgramCache& cache);

}  // namespace kernels
}  // namespace tfe

#endif  // TFE_KERNELS_RUN_SELECTOR_H_
