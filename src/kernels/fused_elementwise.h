// FusedElementwise: one kernel invocation executing a run of elementwise,
// layout, and reduction ops as a compact micro-op program in a single memory
// traversal (a fused map-reduce engine).
//
// Both fusion frontends — the op-queue drain (dynamic, paper §5) and the
// graph pass in graph/passes.cpp (static, the §4.6 staged-optimization
// opportunity) — select runs with one selector (kernels/run_selector.h)
// applying the membership rules below, describe each run to
// CompileFusedRun(), and run the same MicroProgram on the same interpreter,
// so fused execution is bitwise identical in either stage.
//
// A program has one form, the MicroProgram struct. It lives in the run's
// program-cache entry (kernels/program_cache.h) and reaches the kernel
// through KernelContext::prepared(), never through attrs: no fused graph is
// serialized or shipped, so the program needs no wire format.
//
// Registers [0, num_slots) are operand *slots*: each names a kernel input
// plus an access descriptor (contiguous, broadcast scalar, or a strided
// odometer walk), so one input can be read under several index maps and
// layout ops (Transpose / Reshape / ExpandDims / Squeeze) fold into the run
// as indexed loads instead of cutting it. Registers
// [num_slots, num_slots + num_rows) are scratch rows: every instruction
// names its destination row, and a row may only be read after an earlier
// instruction wrote it. The compiler dedups identical instructions (shared
// subexpressions load once) and reuses dead rows by liveness, so a long
// chain runs in 2-3 rows regardless of length and multi-consumer values
// occupy one row read by many instructions; rows named by outputs or the
// reduce epilogue stay live to the end. Outputs carry their own shape and
// store descriptor, and an optional reduction epilogue (Sum/Mean/Max/Min
// over the trailing axes of the evaluation space) folds the mapped values
// into per-chunk partial accumulators combined by the fixed stride-doubling
// tree in reduce_util.h.
//
// MicroProgram::Verify() holds the structural rules every program obeys;
// CompileFusedRun runs it once on each program it emits.
#ifndef TFE_KERNELS_FUSED_ELEMENTWISE_H_
#define TFE_KERNELS_FUSED_ELEMENTWISE_H_

#include <cstdint>
#include <vector>

#include "ops/attr_value.h"
#include "ops/shape_inference.h"
#include "support/status.h"
#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace tfe {

struct OpDef;

namespace kernels {

// Opcodes mirror the scalar functors in elementwise_functors.h one-for-one;
// the interpreter applies the identical expressions, which is what makes a
// fused run agree bitwise with op-at-a-time execution.
enum class MicroOpCode : int64_t {
  kAdd = 0,
  kSub,
  kMul,
  kDiv,
  kMaximum,
  kMinimum,
  kSquaredDifference,
  kPow,
  kNeg,
  kAbs,
  kSquare,
  kSign,
  kRelu,
  kExp,
  kLog,
  kSqrt,
  kRsqrt,
  kTanh,
  kSigmoid,
  kSin,
  kCos,
  kReciprocal,
  kFloor,
  // Dtype conversion into the run dtype. The kernel pre-converts foreign
  // operands with the same static_cast the standalone Cast kernel applies,
  // so inside the interpreter kCast is an identity copy; an in-run input
  // (already the run dtype) is an identity by construction.
  kCast,
};

struct MicroInst {
  MicroOpCode opcode = MicroOpCode::kAdd;
  // Register operands; `b` is ignored for unary opcodes.
  int32_t a = 0;
  int32_t b = 0;
  // Destination register, in [num_operands, num_operands + num_rows).
  int32_t dst = -1;
};

// How an operand slot reads its input — or an output stores its register —
// relative to the flat evaluation index.
enum class MicroAccessKind : int64_t {
  kContiguous = 1,  // offset == flat evaluation index
  kScalar = 2,      // stride-0 broadcast of a single element
  // offset = dot(decompose(flat, dims), strides); product(dims) equals the
  // evaluation count. Expresses transposed walks and broadcast (stride-0)
  // dims in one odometer.
  kStrided = 3,
};

struct MicroAccess {
  MicroAccessKind kind = MicroAccessKind::kContiguous;
  std::vector<int64_t> dims;     // kStrided only
  std::vector<int64_t> strides;  // kStrided only; parallel to dims

  bool operator==(const MicroAccess& o) const {
    return kind == o.kind && dims == o.dims && strides == o.strides;
  }
};

// One operand register: which kernel input it reads, and how.
struct MicroOperandSlot {
  int64_t input = -1;
  MicroAccess access;
};

// One kernel output: which register, the allocated shape, and how register
// rows land in the output buffer.
struct MicroOutputSpec {
  int32_t reg = 0;
  std::vector<int64_t> shape;
  MicroAccess store;
};

enum class MicroReduceKind : int64_t {
  kNone = 0,
  kSum = 1,
  kMean = 2,
  kMax = 3,
  kMin = 4,
};

// Reduction epilogue: fold `src` over trailing strips of `reduce_count`
// evaluation elements into one extra kernel output (always the last one).
struct MicroReduce {
  MicroReduceKind kind = MicroReduceKind::kNone;
  int32_t src = 0;
  int64_t reduce_count = 1;
  std::vector<int64_t> shape;  // reduce output dims
};

struct MicroProgram {
  int64_t num_operands = 0;
  std::vector<int64_t> eval_dims;        // the evaluation space
  int64_t num_rows = 0;                  // scratch rows
  std::vector<MicroOperandSlot> slots;   // size == num_operands
  std::vector<MicroInst> insts;
  // Published registers in kernel-output order (the reduction epilogue's
  // output is extra and always last; it is not listed here).
  std::vector<MicroOutputSpec> output_specs;
  MicroReduce reduce;

  int64_t num_registers() const { return num_operands + num_rows; }

  // InvalidArgument unless the program is well formed: at least one slot,
  // in-range opcodes and access descriptors that cover the evaluation
  // space, every register read only after it was written, destinations
  // inside the scratch rows, output stores inside their buffers, a reduce
  // epilogue that tiles the evaluation space, and something computed.
  Status Verify() const;
};

// 1 or 2.
int MicroOpArity(MicroOpCode code);

// Whether `code` computes on floating dtypes only (Pow and the unary
// transcendentals, Reciprocal, Floor). The standalone kernel of the op
// carrying the code rejects integer inputs by the same rule.
bool MicroOpFloatOnly(MicroOpCode code);

// ---- Run membership ---------------------------------------------------------
//
// The one rule set the fused-run selector (kernels/run_selector.h) applies
// while growing a run for either frontend.

// The role an op plays inside a run: a compute member contributes a micro-op
// instruction, a layout member (Transpose/Reshape/ExpandDims/Squeeze) folds
// into operand access descriptors, and a reduce member (Sum/Mean/Max/Min)
// terminates the run as its epilogue. kNone ops never join a run.
enum class FusedMemberKind { kNone, kCompute, kLayout, kReduce };

// The layout op a kLayout member is; each folds its own attr.
enum class FusedLayout { kTranspose, kReshape, kExpandDims, kSqueeze };

// An op's fused-run role: OpDef::fused, set where the op is registered.
struct FusedMemberClass {
  FusedMemberKind kind = FusedMemberKind::kNone;
  MicroOpCode code = MicroOpCode::kAdd;             // kCompute only
  FusedLayout layout = FusedLayout::kTranspose;     // kLayout only
  MicroReduceKind reduce = MicroReduceKind::kNone;  // kReduce only
};

// Whether a single-output node of `op` producing `dtype`/`shape` from
// `num_inputs` inputs can be a run member (its class is op.fused): an
// elementwise micro-op, layout op, or reduction; its kind's input arity;
// exactly the attrs the compiler folds (Cast's "dst" — the target is the
// run dtype, carried on the fused node — Transpose's "perm", Reshape's
// "shape", ExpandDims's "axis", Squeeze's optional "axis", a reduction's
// "axis"/"keep_dims"); a fully-defined shape; and a dtype the interpreter
// holds (float-only opcodes: floating only).
bool ClassifyFusedMember(const OpDef& op, const AttrMap& attrs,
                         size_t num_inputs, DType dtype, const Shape& shape);

// Whether an external (not produced in-run) input of `dtype`/`shape` may
// feed a non-reduce member producing `member_dtype`/`member_shape`. A compute
// member reads it in the member's dtype — or, as a Cast's source, in any
// numeric dtype the kernel pre-converts — under trailing-dim broadcast (the
// member shape itself, bias rows, scalars). A layout member reads it
// verbatim: same dtype, same element count. A reduction never takes one.
bool FusedOperandOk(const FusedMemberClass& cls, DType member_dtype,
                    const Shape& member_shape, DType dtype,
                    const Shape& shape);

// Most members one run absorbs. Bounds the selector's scan and the size of
// the interpreted program.
constexpr size_t kMaxFusedRunMembers = 64;

// Whether a non-reduce member of `count` elements fits a run whose members
// so far span `run_count`: members are broadcast scalars or share one count.
inline bool FusedCountFits(int64_t count, int64_t run_count) {
  return count == run_count || count == 1 || run_count == 1;
}

// The trailing-axes rule: a reduction over `input` along `axes` (the "axis"
// attr; empty = all, negative counts from the back) folds as an epilogue
// only when the axes form a trailing block, so the elements each output
// folds are contiguous in evaluation order. Returns that element count, or
// 0 when an axis is out of range or the block is not trailing.
int64_t TrailingReduceCount(const Shape& input, std::vector<int64_t> axes);

// Whether reduction member `attrs` over an in-run value of `input` shape
// closes a run spanning `run_count`: the value covers the full evaluation
// count and the reduction passes the trailing-axes rule.
bool FusedReduceFits(const AttrMap& attrs, const Shape& input,
                     int64_t run_count);

// ---- Run compiler ----------------------------------------------------------
//
// The selector describes a candidate run as a vector of FusedRunOp (one per
// member, in queue/topological order) plus the deduplicated external
// operands, and gets back a program. Any unsupported pattern — layout under
// an incompatible index map, a non-trailing reduction, conflicting index
// maps for a multiply-consumed producer — returns an error, and the
// selector shrinks the run from its tail.

struct FusedRunArg {
  int producer = -1;  // in-run member index, or -1
  int operand = -1;   // external operand index, or -1
};

struct FusedRunOp {
  const OpDef* op = nullptr;
  DType dtype = DType::kFloat32;  // the member's output dtype
  Shape shape;                    // the member's output shape
  std::vector<FusedRunArg> args;
  std::vector<int64_t> perm;  // Transpose only
  std::vector<int64_t> axes;  // reductions only ("axis" attr; empty = all)
  bool materialize = false;   // publish this member's value as an output
};

// Describes a member ClassifyFusedMember accepted, extracting the attrs the
// compiler folds (Transpose's perm, a reduction's axes). The caller fills in
// `args` and `materialize`.
FusedRunOp MakeFusedRunOp(const OpDef& op, const AttrMap& attrs,
                          DType dtype, const Shape& shape);

struct FusedRunOperand {
  DType dtype = DType::kFloat32;
  Shape shape;
  // The caller proved this operand's buffer is uniquely owned (no
  // outstanding tensors/handles, tape not watching) and is willing to have
  // the run overwrite it in place. Only the async drain sets this; the
  // static graph pass has no ownership information and leaves it false.
  bool may_donate = false;
};

// What the FusedElementwise kernel runs: everything it knows about a run
// besides its inputs. Built once by CompileFusedRun and held, immutable, by
// the run's program-cache entry.
struct CompiledRun {
  MicroProgram program;
  // The run dtype: every register's. Operands may carry a foreign dtype
  // only as a kCast source.
  DType dtype = DType::kFloat32;
  // Member index per kernel output, in kernel-output order; when the run
  // ends in a reduction its member is last.
  std::vector<int> output_members;
  bool has_reduce = false;
  // A DAG run: more than one kernel output, or an in-run value read by
  // several instructions (vs a linear chain).
  bool dag = false;
  // Donation plan, parallel to program.output_specs: the operand index
  // whose buffer output k writes in place, or -1 for a fresh allocation.
  // Assigned only where the interpreter's block order proves every read of
  // the donor precedes the overwriting store (see CompileFusedRun).
  std::vector<int> donations;

  // The kernel outputs' types: each output spec's shape, then the reduce
  // epilogue's, all in the run dtype.
  std::vector<TypeAndShape> OutputTypes() const;
};

// Emits the compacted program: identical instructions merge and scratch
// rows are reassigned by liveness, so scratch stays at a few rows however
// long the run is.
StatusOr<CompiledRun> CompileFusedRun(const std::vector<FusedRunOp>& ops,
                                      const std::vector<FusedRunOperand>& operands,
                                      DType run_dtype);

void RegisterFusedElementwiseKernels();

}  // namespace kernels
}  // namespace tfe

#endif  // TFE_KERNELS_FUSED_ELEMENTWISE_H_
