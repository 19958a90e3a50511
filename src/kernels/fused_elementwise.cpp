#include "kernels/fused_elementwise.h"

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "kernels/elementwise_functors.h"
#include "kernels/kernel_util.h"
#include "kernels/reduce_util.h"
#include "ops/op_def.h"
#include "profiler/metrics.h"
#include "profiler/profiler.h"
#include "runtime/eager_context.h"

namespace tfe {
namespace kernels {

namespace {

std::vector<int64_t> RowMajorStrides(const std::vector<int64_t>& dims) {
  std::vector<int64_t> strides(dims.size());
  int64_t acc = 1;
  for (int i = static_cast<int>(dims.size()) - 1; i >= 0; --i) {
    strides[i] = acc;
    acc *= dims[i];
  }
  return strides;
}

int64_t ProductOf(const std::vector<int64_t>& dims) {
  int64_t acc = 1;
  for (int64_t d : dims) acc *= d;
  return acc;
}

constexpr int64_t kMaxAccessRank = 16;

Status ValidateAccess(const MicroAccess& access, int64_t count,
                      const char* what) {
  const std::string where = std::string("FusedElementwise ") + what;
  if (access.kind < MicroAccessKind::kContiguous ||
      access.kind > MicroAccessKind::kStrided) {
    return InvalidArgument(where + " access kind out of range");
  }
  if (access.kind != MicroAccessKind::kStrided) {
    if (!access.dims.empty() || !access.strides.empty()) {
      return InvalidArgument(where + " carries dims without a strided kind");
    }
    return Status::OK();
  }
  if (access.dims.size() != access.strides.size() ||
      static_cast<int64_t>(access.dims.size()) > kMaxAccessRank) {
    return InvalidArgument(where + " descriptor malformed");
  }
  int64_t product = 1;
  for (size_t d = 0; d < access.dims.size(); ++d) {
    if (access.dims[d] < 1 || access.strides[d] < 0) {
      return InvalidArgument(where + " descriptor out of range");
    }
    product *= access.dims[d];
  }
  if (product != count) {
    return InvalidArgument(where +
                           " descriptor does not cover the evaluation space");
  }
  return Status::OK();
}

// Largest offset a strided walk can touch (0 for the other kinds' element 0).
int64_t MaxAccessOffset(const MicroAccess& access) {
  int64_t off = 0;
  for (size_t d = 0; d < access.dims.size(); ++d) {
    off += (access.dims[d] - 1) * access.strides[d];
  }
  return off;
}

// A dim list (the evaluation space, an output shape, the reduce shape):
// at most kMaxAccessRank non-negative dims.
Status ValidateDims(const std::vector<int64_t>& dims, const char* what) {
  if (static_cast<int64_t>(dims.size()) > kMaxAccessRank) {
    return InvalidArgument(std::string("FusedElementwise ") + what +
                           " rank out of range");
  }
  for (int64_t d : dims) {
    if (d < 0) {
      return InvalidArgument(std::string("FusedElementwise ") + what +
                             " dim out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Status MicroProgram::Verify() const {
  if (num_operands < 1 ||
      static_cast<int64_t>(slots.size()) != num_operands) {
    return InvalidArgument("FusedElementwise program slots malformed");
  }
  TFE_RETURN_IF_ERROR(ValidateDims(eval_dims, "evaluation"));
  const int64_t eval_count = ProductOf(eval_dims);
  if (num_rows < 0 || num_rows > 4096) {
    return InvalidArgument("FusedElementwise row count out of range");
  }
  for (const MicroOperandSlot& slot : slots) {
    if (slot.input < 0) {
      return InvalidArgument("FusedElementwise slot input out of range");
    }
    TFE_RETURN_IF_ERROR(
        ValidateAccess(slot.access, eval_count, "operand slot"));
  }
  // A row may be read only after some earlier instruction wrote it — rows
  // the compiler retired and reassigned must never leak stale data.
  std::vector<bool> row_written(num_rows, false);
  auto readable = [&](int64_t r) {
    return r >= 0 && r < num_registers() &&
           (r < num_operands || row_written[r - num_operands]);
  };
  for (const MicroInst& inst : insts) {
    if (inst.opcode < MicroOpCode::kAdd || inst.opcode > MicroOpCode::kCast) {
      return InvalidArgument("Unknown FusedElementwise opcode");
    }
    if (!readable(inst.a) || !readable(inst.b)) {
      return InvalidArgument("FusedElementwise register out of range");
    }
    if (inst.dst < num_operands || inst.dst >= num_registers()) {
      return InvalidArgument(
          "FusedElementwise destination register out of range");
    }
    row_written[inst.dst - num_operands] = true;
  }
  for (const MicroOutputSpec& spec : output_specs) {
    if (!readable(spec.reg)) {
      return InvalidArgument("FusedElementwise output register out of range");
    }
    TFE_RETURN_IF_ERROR(ValidateDims(spec.shape, "output"));
    TFE_RETURN_IF_ERROR(ValidateAccess(spec.store, eval_count, "output store"));
    const int64_t shape_count = ProductOf(spec.shape);
    switch (spec.store.kind) {
      case MicroAccessKind::kScalar:
        if (shape_count != 1) {
          return InvalidArgument("FusedElementwise scalar output not scalar");
        }
        break;
      case MicroAccessKind::kStrided:
        if (MaxAccessOffset(spec.store) >= shape_count) {
          return InvalidArgument(
              "FusedElementwise output store escapes the output buffer");
        }
        break;
      case MicroAccessKind::kContiguous:
        if (shape_count != eval_count) {
          return InvalidArgument(
              "FusedElementwise contiguous output shape mismatch");
        }
        break;
    }
  }
  if (reduce.kind < MicroReduceKind::kNone ||
      reduce.kind > MicroReduceKind::kMin) {
    return InvalidArgument("FusedElementwise reduce kind out of range");
  }
  if (reduce.kind != MicroReduceKind::kNone) {
    if (!readable(reduce.src)) {
      return InvalidArgument("FusedElementwise reduce register out of range");
    }
    if (reduce.reduce_count < 1) {
      return InvalidArgument("FusedElementwise reduce count out of range");
    }
    TFE_RETURN_IF_ERROR(ValidateDims(reduce.shape, "reduce"));
    if (ProductOf(reduce.shape) * reduce.reduce_count != eval_count) {
      return InvalidArgument(
          "FusedElementwise reduce does not tile the evaluation space");
    }
  }
  if (insts.empty() && output_specs.empty() &&
      reduce.kind == MicroReduceKind::kNone) {
    return InvalidArgument("FusedElementwise program computes nothing");
  }
  return Status::OK();
}

std::vector<TypeAndShape> CompiledRun::OutputTypes() const {
  std::vector<TypeAndShape> types;
  for (const MicroOutputSpec& spec : program.output_specs) {
    types.push_back({dtype, Shape(spec.shape)});
  }
  if (program.reduce.kind != MicroReduceKind::kNone) {
    types.push_back({dtype, Shape(program.reduce.shape)});
  }
  return types;
}

int MicroOpArity(MicroOpCode code) {
  return code <= MicroOpCode::kPow ? 2 : 1;
}

bool MicroOpFloatOnly(MicroOpCode code) {
  switch (code) {
    case MicroOpCode::kPow:
    case MicroOpCode::kExp:
    case MicroOpCode::kLog:
    case MicroOpCode::kSqrt:
    case MicroOpCode::kRsqrt:
    case MicroOpCode::kTanh:
    case MicroOpCode::kSigmoid:
    case MicroOpCode::kSin:
    case MicroOpCode::kCos:
    case MicroOpCode::kReciprocal:
    case MicroOpCode::kFloor:
      return true;
    default:
      return false;
  }
}

namespace {

// Float-only opcodes require floating dtypes; the others accept any numeric
// dtype.
bool MicroOpSupports(MicroOpCode code, DType dtype) {
  const bool is_float = dtype == DType::kFloat32 || dtype == DType::kFloat64;
  const bool numeric =
      is_float || dtype == DType::kInt32 || dtype == DType::kInt64;
  return numeric && (is_float || !MicroOpFloatOnly(code));
}

}  // namespace

// ---- Run membership ---------------------------------------------------------

namespace {

bool IsTranspose(const FusedMemberClass& cls) {
  return cls.kind == FusedMemberKind::kLayout &&
         cls.layout == FusedLayout::kTranspose;
}

// A reduction member's "axis" attr; empty means every axis.
std::vector<int64_t> ReduceAxes(const AttrMap& attrs) {
  auto it = attrs.find("axis");
  if (it == attrs.end() || !it->second.Is<std::vector<int64_t>>()) return {};
  return it->second.Get<std::vector<int64_t>>();
}

// True when `shape` broadcasts to `out` under trailing-dim alignment (every
// trailing dim equal or 1) — the layouts BroadcastStrides expresses.
bool BroadcastsTo(const Shape& shape, const Shape& out) {
  if (shape.rank() > out.rank()) return false;
  for (int i = 0; i < shape.rank(); ++i) {
    const int64_t sd = shape.dims()[shape.rank() - 1 - i];
    const int64_t od = out.dims()[out.rank() - 1 - i];
    if (sd != od && sd != 1) return false;
  }
  return true;
}

}  // namespace

bool ClassifyFusedMember(const OpDef& op, const AttrMap& attrs,
                         size_t num_inputs, DType dtype, const Shape& shape) {
  const FusedMemberClass& cls = op.fused;
  if (!shape.IsFullyDefined()) return false;
  auto only_attr = [&](const char* name) {
    return attrs.size() == 1 && attrs.count(name) != 0;
  };
  switch (cls.kind) {
    case FusedMemberKind::kNone:
      return false;
    case FusedMemberKind::kCompute:
      if (num_inputs != static_cast<size_t>(MicroOpArity(cls.code))) {
        return false;
      }
      if (cls.code == MicroOpCode::kCast ? !only_attr("dst")
                                         : !attrs.empty()) {
        return false;
      }
      return MicroOpSupports(cls.code, dtype);
    case FusedMemberKind::kLayout:
      if (num_inputs != 1) return false;
      switch (cls.layout) {
        case FusedLayout::kTranspose:
          if (!only_attr("perm") ||
              !attrs.begin()->second.Is<std::vector<int64_t>>()) {
            return false;
          }
          break;
        case FusedLayout::kReshape:
          if (!only_attr("shape")) return false;
          break;
        case FusedLayout::kExpandDims:
          if (!only_attr("axis")) return false;
          break;
        case FusedLayout::kSqueeze:  // "axis" is optional
          if (!attrs.empty() && !only_attr("axis")) return false;
          break;
      }
      break;
    case FusedMemberKind::kReduce: {
      if (num_inputs != 1) return false;
      for (const auto& [name, value] : attrs) {
        if (name != "axis" && name != "keep_dims") return false;
      }
      auto it = attrs.find("axis");
      if (it != attrs.end() && !it->second.Is<std::vector<int64_t>>()) {
        return false;
      }
      break;
    }
  }
  // The interpreter is numeric-typed; layout and reduce members only ride
  // along for dtypes it can hold in registers (kCast support == "numeric").
  return MicroOpSupports(MicroOpCode::kCast, dtype);
}

bool FusedOperandOk(const FusedMemberClass& cls, DType member_dtype,
                    const Shape& member_shape, DType dtype,
                    const Shape& shape) {
  if (!shape.IsFullyDefined()) return false;
  switch (cls.kind) {
    case FusedMemberKind::kCompute:
      if (cls.code == MicroOpCode::kCast
              ? !MicroOpSupports(MicroOpCode::kCast, dtype)
              : dtype != member_dtype) {
        return false;
      }
      return shape.num_elements() == 1 || BroadcastsTo(shape, member_shape);
    case FusedMemberKind::kLayout:
      return dtype == member_dtype &&
             shape.num_elements() == member_shape.num_elements();
    case FusedMemberKind::kNone:
    case FusedMemberKind::kReduce:
      break;
  }
  return false;
}

int64_t TrailingReduceCount(const Shape& input, std::vector<int64_t> axes) {
  const int rank = input.rank();
  for (int64_t& axis : axes) {
    if (axis < 0) axis += rank;
    if (axis < 0 || axis >= rank) return 0;
  }
  std::sort(axes.begin(), axes.end());
  axes.erase(std::unique(axes.begin(), axes.end()), axes.end());
  if (axes.empty()) {
    for (int d = 0; d < rank; ++d) axes.push_back(d);
  }
  const int k = static_cast<int>(axes.size());
  int64_t count = 1;
  for (int j = 0; j < k; ++j) {
    if (axes[j] != rank - k + j) return 0;
    count *= input.dims()[axes[j]];
  }
  return std::max<int64_t>(count, 1);
}

bool FusedReduceFits(const AttrMap& attrs, const Shape& input,
                     int64_t run_count) {
  return input.num_elements() == run_count &&
         TrailingReduceCount(input, ReduceAxes(attrs)) > 0;
}

FusedRunOp MakeFusedRunOp(const OpDef& op, const AttrMap& attrs,
                          DType dtype, const Shape& shape) {
  FusedRunOp member;
  member.op = &op;
  member.dtype = dtype;
  member.shape = shape;
  if (IsTranspose(op.fused)) {
    auto it = attrs.find("perm");
    if (it != attrs.end() && it->second.Is<std::vector<int64_t>>()) {
      member.perm = it->second.Get<std::vector<int64_t>>();
    }
  } else if (op.fused.kind == FusedMemberKind::kReduce) {
    member.axes = ReduceAxes(attrs);
  }
  return member;
}

// ---- Run compiler ----------------------------------------------------------

namespace {

// Where a member's value lives relative to the flat evaluation index.
// Flat: the member's buffer offset IS the evaluation index. Otherwise the
// evaluation walks the member's dims in permuted order: evaluation dim d
// advances the member's dim dim_of[d]. The map invariant (checked by
// ValidateIndexMap) is that dim_of is injective over the member's rank and
// the permuted dims reproduce the evaluation dims exactly.
struct IndexMap {
  bool flat = true;
  std::vector<int> dim_of;

  bool operator==(const IndexMap& o) const {
    return flat == o.flat && dim_of == o.dim_of;
  }
};

bool ValidateIndexMap(const IndexMap& m, const Shape& node_shape,
                      const std::vector<int64_t>& eval_dims) {
  if (m.flat) return true;
  const int rank = node_shape.rank();
  if (static_cast<int>(m.dim_of.size()) != static_cast<int>(eval_dims.size()) ||
      rank != static_cast<int>(eval_dims.size())) {
    return false;
  }
  std::vector<char> used(rank, 0);
  for (size_t d = 0; d < m.dim_of.size(); ++d) {
    const int nd = m.dim_of[d];
    if (nd < 0 || nd >= rank || used[nd]) return false;
    used[nd] = 1;
    if (node_shape.dims()[nd] != eval_dims[d]) return false;
  }
  return true;
}

IndexMap NormalizeIndexMap(IndexMap m, const Shape& node_shape,
                           const std::vector<int64_t>& eval_dims) {
  if (m.flat) return m;
  if (node_shape.dims() != eval_dims) return m;
  for (size_t d = 0; d < m.dim_of.size(); ++d) {
    if (m.dim_of[d] != static_cast<int>(d)) return m;
  }
  m.flat = true;
  m.dim_of.clear();
  return m;
}

bool IsPermutation(const std::vector<int64_t>& perm, int rank) {
  if (static_cast<int>(perm.size()) != rank) return false;
  std::vector<char> used(rank, 0);
  for (int64_t p : perm) {
    if (p < 0 || p >= rank || used[p]) return false;
    used[p] = 1;
  }
  return true;
}

// The in-place rule: output `o` may overwrite the buffer of kernel input
// `donor` (which the caller checked carries the run dtype and the
// evaluation count). The interpreter processes disjoint contiguous blocks,
// and within a block every gather/instruction read happens before any
// output store — so overwriting the donor is safe iff (a) the output stores
// contiguously over the full evaluation space from an instruction row (its
// block writes exactly the block's element range, after the row's own
// in-block reads), (b) every slot reading the donor is contiguous
// (strided/gather reads cross block boundaries), and (c) none of those
// slots feed an output store or the reduction epilogue, both of which read
// *after* the block's stores.
bool DonationSafe(const MicroProgram& program, size_t o, int64_t donor) {
  const MicroOutputSpec& spec = program.output_specs[o];
  if (spec.store.kind != MicroAccessKind::kContiguous ||
      spec.reg < program.num_operands ||
      ProductOf(spec.shape) != ProductOf(program.eval_dims)) {
    return false;
  }
  for (size_t s = 0; s < program.slots.size(); ++s) {
    if (program.slots[s].input != donor) continue;
    if (program.slots[s].access.kind != MicroAccessKind::kContiguous) {
      return false;
    }
    for (const MicroOutputSpec& stored : program.output_specs) {
      if (stored.reg == static_cast<int32_t>(s)) return false;
    }
    if (program.reduce.kind != MicroReduceKind::kNone &&
        program.reduce.src == static_cast<int32_t>(s)) {
      return false;
    }
  }
  return true;
}

// A DAG run: more than one published output, or an in-run value consumed
// by several instructions. Rows are storage, not values — a write retires
// the row's previous value — so read counts reset at each redefinition.
bool IsDagRun(const MicroProgram& program) {
  if (program.output_specs.size() +
          (program.reduce.kind != MicroReduceKind::kNone ? 1 : 0) >
      1) {
    return true;
  }
  std::vector<int> reads(program.num_registers(), 0);
  for (const MicroInst& inst : program.insts) {
    if (inst.a >= program.num_operands && ++reads[inst.a] > 1) return true;
    if (MicroOpArity(inst.opcode) == 2 && inst.b >= program.num_operands &&
        ++reads[inst.b] > 1) {
      return true;
    }
    reads[inst.dst] = 0;
  }
  return false;
}

// Rewrites the one-row-per-instruction program emission builds (instruction
// j's result is register num_operands + j) into its final form: dedups
// identical (opcode, a, b) instructions, then assigns destination rows by
// liveness so dead rows are reused, remapping later instructions, output
// specs, and the reduce epilogue. Rows feeding outputs or the reduce
// epilogue stay live to the end of the program.
void CompactProgram(MicroProgram* program) {
  const int64_t n_ops = program->num_operands;

  // CSE over the one-value-per-instruction form: value id n_ops + j names
  // instruction j's result; `val` maps original value ids to merged ones.
  std::vector<int32_t> val(n_ops + program->insts.size());
  for (int64_t s = 0; s < n_ops; ++s) val[s] = static_cast<int32_t>(s);
  std::vector<MicroInst> merged;
  std::map<std::tuple<int64_t, int32_t, int32_t>, int32_t> seen;
  for (size_t j = 0; j < program->insts.size(); ++j) {
    MicroInst inst = program->insts[j];
    inst.a = val[inst.a];
    inst.b = val[inst.b];
    const auto key = std::make_tuple(static_cast<int64_t>(inst.opcode),
                                     inst.a, inst.b);
    auto it = seen.find(key);
    if (it != seen.end()) {
      val[n_ops + j] = it->second;
      continue;
    }
    const int32_t v = static_cast<int32_t>(n_ops + merged.size());
    val[n_ops + j] = v;
    seen.emplace(key, v);
    merged.push_back(inst);
  }

  // Liveness: a value's row is reusable after its last reader; values named
  // by an output spec or the reduce epilogue are read after every
  // instruction ran, so they stay pinned to the end.
  std::vector<int32_t> last_use(merged.size(), -1);
  std::vector<char> pinned(merged.size(), 0);
  for (size_t j = 0; j < merged.size(); ++j) {
    if (merged[j].a >= n_ops) {
      last_use[merged[j].a - n_ops] = static_cast<int32_t>(j);
    }
    if (merged[j].b >= n_ops) {
      last_use[merged[j].b - n_ops] = static_cast<int32_t>(j);
    }
  }
  for (size_t o = 0; o < program->output_specs.size(); ++o) {
    const int32_t reg = val[program->output_specs[o].reg];
    if (reg >= n_ops) pinned[reg - n_ops] = 1;
  }
  if (program->reduce.kind != MicroReduceKind::kNone &&
      program->reduce.src >= n_ops) {
    pinned[val[program->reduce.src] - n_ops] = 1;
  }

  // Row assignment. Releasing a source row before allocating the dst lets an
  // instruction overwrite its own input row: the interpreter's block loops
  // read element i before writing element i, so in-place rows are exact.
  std::vector<int32_t> row_of(merged.size(), -1);
  std::vector<int32_t> free_rows;
  int32_t next_row = 0;
  for (size_t j = 0; j < merged.size(); ++j) {
    MicroInst& inst = merged[j];
    const int32_t a_val = inst.a;  // merged value ids, pre-rewrite
    const int32_t b_val = inst.b;
    if (a_val >= n_ops) {
      inst.a = static_cast<int32_t>(n_ops + row_of[a_val - n_ops]);
    }
    if (b_val >= n_ops) {
      inst.b = static_cast<int32_t>(n_ops + row_of[b_val - n_ops]);
    }
    auto maybe_release = [&](int32_t value) {
      if (value < n_ops) return;
      const int32_t idx = value - n_ops;
      if (last_use[idx] == static_cast<int32_t>(j) && !pinned[idx]) {
        free_rows.push_back(row_of[idx]);
        last_use[idx] = -2;  // release once even when a == b
      }
    };
    maybe_release(a_val);
    maybe_release(b_val);
    int32_t row;
    if (free_rows.empty()) {
      row = next_row++;
    } else {
      row = free_rows.back();
      free_rows.pop_back();
    }
    row_of[j] = row;
    inst.dst = static_cast<int32_t>(n_ops + row);
    // A value nothing reads (dead code after a trial shrink) frees its row
    // immediately.
    if (last_use[j] == -1 && !pinned[j]) free_rows.push_back(row);
  }

  // Rewrite output and reduce references to their final rows.
  for (size_t o = 0; o < program->output_specs.size(); ++o) {
    int32_t reg = program->output_specs[o].reg;
    if (reg >= n_ops) {
      reg = static_cast<int32_t>(n_ops + row_of[val[reg] - n_ops]);
    }
    program->output_specs[o].reg = reg;
  }
  if (program->reduce.kind != MicroReduceKind::kNone &&
      program->reduce.src >= n_ops) {
    program->reduce.src =
        static_cast<int32_t>(n_ops + row_of[val[program->reduce.src] - n_ops]);
  }

  program->insts = std::move(merged);
  program->num_rows = next_row;
}

}  // namespace

StatusOr<CompiledRun> CompileFusedRun(
    const std::vector<FusedRunOp>& ops,
    const std::vector<FusedRunOperand>& operands, DType run_dtype) {
  const int n = static_cast<int>(ops.size());
  if (n < 2) return InvalidArgument("fused run needs at least two members");
  if (!MicroOpSupports(MicroOpCode::kAdd, run_dtype)) {
    return InvalidArgument("fused run dtype is not numeric");
  }

  std::vector<FusedMemberClass> cls(n);
  for (int i = 0; i < n; ++i) {
    if (ops[i].op == nullptr) {
      return InvalidArgument("fused run member has no op");
    }
    cls[i] = ops[i].op->fused;
    if (cls[i].kind == FusedMemberKind::kNone) {
      return InvalidArgument("op is not fusable: " + ops[i].op->name);
    }
    if (cls[i].kind == FusedMemberKind::kReduce && i != n - 1) {
      return InvalidArgument("reduction must terminate the fused run");
    }
    if (!ops[i].shape.IsFullyDefined()) {
      return InvalidArgument("fused run member shape not fully defined");
    }
    const size_t want_args = cls[i].kind == FusedMemberKind::kCompute
                                 ? MicroOpArity(cls[i].code)
                                 : 1;
    if (ops[i].args.size() != want_args) {
      return InvalidArgument("fused run member arity mismatch");
    }
    for (const FusedRunArg& a : ops[i].args) {
      const bool is_producer = a.producer >= 0 && a.producer < i;
      const bool is_operand =
          a.operand >= 0 && a.operand < static_cast<int>(operands.size());
      if (is_producer == is_operand) {
        return InvalidArgument("fused run argument unresolved");
      }
    }
  }

  // The evaluation space: the reduction's input shape when a reduction
  // terminates the run, else the last member's shape.
  const bool has_reduce = cls[n - 1].kind == FusedMemberKind::kReduce;
  Shape eval_shape;
  int64_t reduce_count = 1;
  MicroReduceKind reduce_kind = MicroReduceKind::kNone;
  if (has_reduce) {
    reduce_kind = cls[n - 1].reduce;
    const FusedRunArg& arg = ops[n - 1].args[0];
    if (arg.producer < 0) {
      return InvalidArgument("fused reduction input must be in-run");
    }
    eval_shape = ops[arg.producer].shape;
    // Anything but a trailing block of axes falls back to the standalone
    // reduction kernel.
    reduce_count = TrailingReduceCount(eval_shape, ops[n - 1].axes);
    if (reduce_count == 0) {
      return InvalidArgument("fused reduction must reduce trailing axes");
    }
    if (ops[n - 1].shape.num_elements() * reduce_count !=
        eval_shape.num_elements()) {
      return InvalidArgument("fused reduction output does not tile the input");
    }
    if (ops[n - 1].dtype != run_dtype) {
      return InvalidArgument("fused run member dtype mismatch");
    }
  } else {
    eval_shape = ops[n - 1].shape;
  }
  const int64_t count = eval_shape.num_elements();
  if (count <= 0) return InvalidArgument("fused run over an empty tensor");

  const int limit = has_reduce ? n - 1 : n;
  std::vector<char> scalar(n, 0);
  for (int i = 0; i < limit; ++i) {
    scalar[i] = ops[i].shape.num_elements() == 1;
    if (ops[i].dtype != run_dtype) {
      return InvalidArgument("fused run member dtype mismatch");
    }
    if (!scalar[i] && ops[i].shape.num_elements() != count) {
      return InvalidArgument("fused run member count mismatch");
    }
    if (cls[i].kind == FusedMemberKind::kCompute &&
        !MicroOpSupports(cls[i].code, run_dtype)) {
      return InvalidArgument("fused run opcode unsupported for dtype");
    }
  }

  // Backward index-map analysis: walk members last-to-first (every consumer
  // of a producer has a larger index, so all proposals for a member precede
  // its own processing) and assign each member the map its consumers need.
  // Conflicting needs — one consumer wants the value flat, another wants it
  // transposed — are unsupported; the caller falls back.
  const std::vector<int64_t>& eval_dims = eval_shape.dims();
  std::vector<IndexMap> psi(n);
  std::vector<char> psi_set(n, 0);
  auto propose = [&](int p, const IndexMap& m) -> bool {
    if (scalar[p]) return true;  // index-independent
    if (!ValidateIndexMap(m, ops[p].shape, eval_dims)) return false;
    if (!psi_set[p]) {
      psi[p] = m;
      psi_set[p] = 1;
      return true;
    }
    return psi[p] == m;
  };
  for (int i = n - 1; i >= 0; --i) {
    if (cls[i].kind == FusedMemberKind::kReduce) {
      if (!propose(ops[i].args[0].producer, IndexMap{})) {
        return InvalidArgument("fused run has conflicting layouts");
      }
      continue;
    }
    if (scalar[i]) continue;  // its inputs are scalars too
    if (!psi_set[i]) {
      psi[i] = IndexMap{};  // unconsumed in-run: evaluate flat
      psi_set[i] = 1;
    }
    const IndexMap m = psi[i];
    if (cls[i].kind == FusedMemberKind::kCompute) {
      for (const FusedRunArg& a : ops[i].args) {
        if (a.producer < 0 || scalar[a.producer]) continue;
        if (!(ops[a.producer].shape == ops[i].shape) ||
            !propose(a.producer, m)) {
          return InvalidArgument("fused run has conflicting layouts");
        }
      }
      continue;
    }
    // Layout member: compose its index transform into the producer's map.
    // External-operand inputs are handled at emission (a load descriptor is
    // more flexible than a register map).
    const FusedRunArg& a = ops[i].args[0];
    if (a.producer < 0 || scalar[a.producer]) continue;
    const int p = a.producer;
    if (IsTranspose(cls[i])) {
      const std::vector<int64_t>& perm = ops[i].perm;
      const int rank = ops[i].shape.rank();
      if (!IsPermutation(perm, rank) || ops[p].shape.rank() != rank) {
        return InvalidArgument("fused transpose perm malformed");
      }
      for (int d = 0; d < rank; ++d) {
        if (ops[p].shape.dims()[perm[d]] != ops[i].shape.dims()[d]) {
          return InvalidArgument("fused transpose shape mismatch");
        }
      }
      IndexMap pm;
      pm.flat = false;
      if (m.flat) {
        pm.dim_of.assign(perm.begin(), perm.end());
      } else {
        pm.dim_of.resize(m.dim_of.size());
        for (size_t d = 0; d < m.dim_of.size(); ++d) {
          pm.dim_of[d] = static_cast<int>(perm[m.dim_of[d]]);
        }
      }
      pm = NormalizeIndexMap(std::move(pm), ops[p].shape, eval_dims);
      if (!propose(p, pm)) {
        return InvalidArgument("fused run has conflicting layouts");
      }
    } else {
      // Reshape/ExpandDims/Squeeze share the producer's buffer verbatim, so
      // they are exactly the flat map; under a permuted map the producer's
      // register would need a walk its own dims cannot express.
      if (!m.flat || !propose(p, IndexMap{})) {
        return InvalidArgument("fused run has conflicting layouts");
      }
    }
  }

  // ---- Emission ----
  CompiledRun out;
  MicroProgram& prog = out.program;
  prog.eval_dims = eval_dims;

  auto slot_for = [&](int64_t input, MicroAccess access) -> int32_t {
    // Collapse a strided descriptor that is actually contiguous (the walk
    // visits offsets 0..count-1 in order whenever strides are row-major for
    // its own dims, whatever those dims are).
    if (access.kind == MicroAccessKind::kStrided &&
        access.strides == RowMajorStrides(access.dims)) {
      access = MicroAccess{MicroAccessKind::kContiguous, {}, {}};
    }
    for (size_t s = 0; s < prog.slots.size(); ++s) {
      if (prog.slots[s].input == input && prog.slots[s].access == access) {
        return static_cast<int32_t>(s);
      }
    }
    prog.slots.push_back(MicroOperandSlot{input, std::move(access)});
    return static_cast<int32_t>(prog.slots.size() - 1);
  };

  // Access descriptor for an external operand of a compute member.
  auto compute_operand_access = [&](int oi, int member) -> MicroAccess {
    const FusedRunOperand& od = operands[oi];
    if (od.shape.num_elements() == 1) {
      return MicroAccess{MicroAccessKind::kScalar, {}, {}};
    }
    const Shape& node_shape = ops[member].shape;
    std::vector<int64_t> b = BroadcastStrides(od.shape, node_shape);
    const IndexMap& m = psi[member];
    MicroAccess access;
    access.kind = MicroAccessKind::kStrided;
    if (m.flat) {
      access.dims = node_shape.dims();
      access.strides = std::move(b);
    } else {
      access.dims = eval_dims;
      access.strides.resize(eval_dims.size());
      for (size_t d = 0; d < eval_dims.size(); ++d) {
        access.strides[d] = b[m.dim_of[d]];
      }
    }
    return access;
  };

  // Access descriptor for an external operand read through a layout member.
  auto layout_operand_access = [&](int oi, int member) -> StatusOr<MicroAccess> {
    const FusedRunOperand& od = operands[oi];
    if (od.shape.num_elements() == 1) {
      return MicroAccess{MicroAccessKind::kScalar, {}, {}};
    }
    const IndexMap& m = psi[member];
    MicroAccess access;
    access.kind = MicroAccessKind::kStrided;
    if (IsTranspose(cls[member])) {
      const std::vector<int64_t>& perm = ops[member].perm;
      const int rank = ops[member].shape.rank();
      if (!IsPermutation(perm, rank) || od.shape.rank() != rank) {
        return InvalidArgument("fused transpose perm malformed");
      }
      std::vector<int64_t> in_rm = RowMajorStrides(od.shape.dims());
      std::vector<int64_t> walk(rank);
      for (int d = 0; d < rank; ++d) {
        if (od.shape.dims()[perm[d]] != ops[member].shape.dims()[d]) {
          return InvalidArgument("fused transpose shape mismatch");
        }
        walk[d] = in_rm[perm[d]];
      }
      if (m.flat) {
        access.dims = ops[member].shape.dims();
        access.strides = std::move(walk);
      } else {
        access.dims = eval_dims;
        access.strides.resize(eval_dims.size());
        for (size_t d = 0; d < eval_dims.size(); ++d) {
          access.strides[d] = walk[m.dim_of[d]];
        }
      }
    } else {
      if (m.flat) {
        return MicroAccess{MicroAccessKind::kContiguous, {}, {}};
      }
      std::vector<int64_t> node_rm = RowMajorStrides(ops[member].shape.dims());
      access.dims = eval_dims;
      access.strides.resize(eval_dims.size());
      for (size_t d = 0; d < eval_dims.size(); ++d) {
        access.strides[d] = node_rm[m.dim_of[d]];
      }
    }
    return access;
  };

  // Pass 1: resolve every argument to a slot or a producer, creating slots
  // in first-use order (slot ids must be final before registers number).
  struct ArgRef {
    bool is_slot = false;
    int32_t index = 0;  // slot id, or producer member index
  };
  std::vector<std::array<ArgRef, 2>> arg_refs(n);
  for (int i = 0; i < limit; ++i) {
    for (size_t k = 0; k < ops[i].args.size(); ++k) {
      const FusedRunArg& a = ops[i].args[k];
      if (a.producer >= 0) {
        arg_refs[i][k] = {false, a.producer};
        continue;
      }
      const FusedRunOperand& od = operands[a.operand];
      if (!FusedOperandOk(cls[i], ops[i].dtype, ops[i].shape, od.dtype,
                          od.shape)) {
        return InvalidArgument("fused operand incompatible with its member");
      }
      MicroAccess access;
      if (cls[i].kind == FusedMemberKind::kCompute) {
        access = compute_operand_access(a.operand, i);
      } else {
        TFE_ASSIGN_OR_RETURN(access, layout_operand_access(a.operand, i));
      }
      arg_refs[i][k] = {true, slot_for(a.operand, std::move(access))};
    }
  }
  prog.num_operands = static_cast<int64_t>(prog.slots.size());
  if (prog.num_operands < 1) {
    return InvalidArgument("fused run reads no operands");
  }

  // Pass 2: emit instructions and resolve member registers.
  std::vector<int32_t> reg_of(n, -1);
  for (int i = 0; i < limit; ++i) {
    auto resolve = [&](const ArgRef& r) -> int32_t {
      return r.is_slot ? r.index : reg_of[r.index];
    };
    if (cls[i].kind == FusedMemberKind::kCompute) {
      MicroInst inst;
      inst.opcode = cls[i].code;
      inst.a = resolve(arg_refs[i][0]);
      inst.b =
          MicroOpArity(cls[i].code) == 2 ? resolve(arg_refs[i][1]) : inst.a;
      reg_of[i] = static_cast<int32_t>(prog.num_operands + prog.insts.size());
      prog.insts.push_back(inst);
    } else {
      reg_of[i] = resolve(arg_refs[i][0]);
    }
  }

  // Outputs: every materialized member, in member order; the reduction's
  // output (when present) is the extra last kernel output.
  for (int i = 0; i < limit; ++i) {
    if (!ops[i].materialize) continue;
    MicroOutputSpec spec;
    spec.reg = reg_of[i];
    spec.shape = ops[i].shape.dims();
    if (scalar[i]) {
      spec.store.kind = MicroAccessKind::kScalar;
    } else if (psi[i].flat) {
      spec.store.kind = MicroAccessKind::kContiguous;
    } else {
      std::vector<int64_t> node_rm = RowMajorStrides(ops[i].shape.dims());
      spec.store.kind = MicroAccessKind::kStrided;
      spec.store.dims = eval_dims;
      spec.store.strides.resize(eval_dims.size());
      for (size_t d = 0; d < eval_dims.size(); ++d) {
        spec.store.strides[d] = node_rm[psi[i].dim_of[d]];
      }
    }
    prog.output_specs.push_back(std::move(spec));
    out.output_members.push_back(i);
  }
  if (has_reduce) {
    prog.reduce.kind = reduce_kind;
    prog.reduce.src = reg_of[ops[n - 1].args[0].producer];
    prog.reduce.reduce_count = reduce_count;
    prog.reduce.shape = ops[n - 1].shape.dims();
    out.output_members.push_back(n - 1);
    out.has_reduce = true;
  }
  if (out.output_members.empty()) {
    return InvalidArgument("fused run materializes nothing");
  }

  // Shared subexpressions (a DAG value read by several consumers compiles
  // each read against one instruction) and liveness-driven row reuse keep
  // scratch at a few rows however long the run is. Donation analysis below
  // only reasons about slots and the row-vs-slot distinction, both of which
  // compaction preserves.
  CompactProgram(&prog);
  TFE_RETURN_IF_ERROR(prog.Verify());
  out.dtype = run_dtype;
  out.dag = IsDagRun(prog);

  // Donation plan: alias a uniquely-owned external operand's buffer as a
  // fused output so the run writes in place instead of allocating.
  out.donations.assign(prog.output_specs.size(), -1);
  std::vector<char> donor_taken(operands.size(), 0);
  for (size_t o = 0; o < prog.output_specs.size(); ++o) {
    for (size_t oi = 0; oi < operands.size(); ++oi) {
      if (donor_taken[oi] || !operands[oi].may_donate ||
          operands[oi].dtype != run_dtype ||
          operands[oi].shape.num_elements() != count ||
          !DonationSafe(prog, o, static_cast<int64_t>(oi))) {
        continue;
      }
      out.donations[o] = static_cast<int>(oi);
      donor_taken[oi] = 1;
      break;
    }
  }
  return out;
}

// ---- Interpreter -----------------------------------------------------------

namespace {

// Below this many output elements a fused shard is not worth a pool hop.
constexpr int64_t kFusedGrainElements = 16 * 1024;

// Elements interpreted per block. The interpreter dispatches each micro-op
// once per block and then runs a tight loop the compiler can vectorize; the
// hot registers (an instruction's operands are almost always recent results)
// stay cache-resident at this size. Must divide kReduceChunkElements so
// reduction chunk boundaries always land on block boundaries.
constexpr int64_t kFusedBlockElements = 512;
static_assert(kReduceChunkElements % kFusedBlockElements == 0);

// Strides are 0 (broadcast scalar) or 1, so specializing the four cases
// keeps every loop body a unit-stride read the vectorizer understands.
template <typename F, typename T>
void BinaryBlock(const T* a, int sa, const T* b, int sb, T* out, int64_t len) {
  if (sa == 1 && sb == 1) {
    for (int64_t i = 0; i < len; ++i) out[i] = F::template Apply<T>(a[i], b[i]);
  } else if (sa == 1) {
    const T y = b[0];
    for (int64_t i = 0; i < len; ++i) out[i] = F::template Apply<T>(a[i], y);
  } else if (sb == 1) {
    const T x = a[0];
    for (int64_t i = 0; i < len; ++i) out[i] = F::template Apply<T>(x, b[i]);
  } else {
    const T value = F::template Apply<T>(a[0], b[0]);
    for (int64_t i = 0; i < len; ++i) out[i] = value;
  }
}

template <typename F, typename T>
void UnaryBlock(const T* a, int sa, T* out, int64_t len) {
  if (sa == 1) {
    for (int64_t i = 0; i < len; ++i) out[i] = F::template Apply<T>(a[i]);
  } else {
    const T value = F::template Apply<T>(a[0]);
    for (int64_t i = 0; i < len; ++i) out[i] = value;
  }
}

// Gathers `len` evaluation-contiguous elements starting at flat index `base`
// from a strided walk into the contiguous row `out`, odometer-style (the
// same walk TransposeKernel does, generalized to broadcast strides).
template <typename T>
void GatherBlock(const MicroAccess& access, const T* src, int64_t base,
                 int64_t len, T* out, std::vector<int64_t>& coord) {
  const int rank = static_cast<int>(access.dims.size());
  if (rank == 0) {
    for (int64_t i = 0; i < len; ++i) out[i] = src[0];
    return;
  }
  int64_t rem = base;
  int64_t off = 0;
  for (int d = rank - 1; d >= 0; --d) {
    coord[d] = rem % access.dims[d];
    rem /= access.dims[d];
    off += coord[d] * access.strides[d];
  }
  for (int64_t i = 0; i < len; ++i) {
    out[i] = src[off];
    for (int d = rank - 1; d >= 0; --d) {
      off += access.strides[d];
      if (++coord[d] < access.dims[d]) break;
      coord[d] = 0;
      off -= access.strides[d] * access.dims[d];
    }
  }
}

// Scatter counterpart of GatherBlock for permuted output stores.
template <typename T>
void ScatterBlock(const MicroAccess& access, T* dst, int64_t base, int64_t len,
                  const T* row, int64_t row_stride,
                  std::vector<int64_t>& coord) {
  const int rank = static_cast<int>(access.dims.size());
  if (rank == 0) {
    if (base == 0 && len > 0) dst[0] = row[0];
    return;
  }
  int64_t rem = base;
  int64_t off = 0;
  for (int d = rank - 1; d >= 0; --d) {
    coord[d] = rem % access.dims[d];
    rem /= access.dims[d];
    off += coord[d] * access.strides[d];
  }
  for (int64_t i = 0; i < len; ++i) {
    dst[off] = row[i * row_stride];
    for (int d = rank - 1; d >= 0; --d) {
      off += access.strides[d];
      if (++coord[d] < access.dims[d]) break;
      coord[d] = 0;
      off -= access.strides[d] * access.dims[d];
    }
  }
}

// A slot resolved against the kernel's (possibly dtype-converted) inputs.
template <typename T>
struct ResolvedSlot {
  const T* base = nullptr;
  int stride = 1;              // 0 = broadcast scalar (non-gather slots only)
  int gather = -1;             // >= 0: index of this slot's gather row
  const MicroAccess* access = nullptr;  // gather slots only
};

template <typename T>
struct ResolvedOutput {
  T* data = nullptr;
  MicroAccessKind kind = MicroAccessKind::kContiguous;
  const MicroAccess* store = nullptr;  // kStrided only
  int32_t reg = 0;
};

ReduceAccumKind AccumKindOf(MicroReduceKind kind) {
  switch (kind) {
    case MicroReduceKind::kMax:
      return ReduceAccumKind::kMax;
    case MicroReduceKind::kMin:
      return ReduceAccumKind::kMin;
    default:
      return ReduceAccumKind::kSum;  // Sum and Mean accumulate alike
  }
}

// One traversal of the evaluation space, blocked: for each block, gather
// rows for strided slots, run every instruction as one tight loop writing
// its own register row, store the published registers, and (for map-reduce
// programs) fold the reduction source into the owning chunk partial.
template <typename T>
void RunTyped(EagerContext* ectx, const MicroProgram& program,
              const std::vector<ResolvedSlot<T>>& slots, int num_gather_rows,
              const std::vector<ResolvedOutput<T>>& outputs, T* reduce_out,
              int64_t count) {
  if (count <= 0) return;
  const int64_t row_elements = std::min(kFusedBlockElements, count);
  int max_rank = 0;
  for (const ResolvedSlot<T>& slot : slots) {
    if (slot.access) {
      max_rank = std::max(max_rank, static_cast<int>(slot.access->dims.size()));
    }
  }
  for (const ResolvedOutput<T>& o : outputs) {
    if (o.store) {
      max_rank = std::max(max_rank, static_cast<int>(o.store->dims.size()));
    }
  }
  const bool has_reduce = program.reduce.kind != MicroReduceKind::kNone;
  const ReduceAccumKind rkind = AccumKindOf(program.reduce.kind);

  struct Scratch {
    std::vector<T> rows;
    std::vector<int64_t> coord;
  };
  // Scratch is the program's num_rows rows — a few however long the
  // instruction list is.
  const size_t scratch_rows =
      num_gather_rows + static_cast<size_t>(program.num_rows);
  auto make_scratch = [&]() {
    return Scratch{std::vector<T>(scratch_rows * row_elements),
                   std::vector<int64_t>(std::max(max_rank, 1))};
  };

  // `partial`, when non-null, receives the reduction source over this block.
  auto interpret_block = [&](Scratch& s, int64_t base, int64_t len,
                             T* partial) {
    T* gather_rows = s.rows.data();
    T* inst_rows = gather_rows + num_gather_rows * row_elements;
    auto src = [&](int32_t r) -> std::pair<const T*, int> {
      if (r < program.num_operands) {
        const ResolvedSlot<T>& slot = slots[r];
        if (slot.gather >= 0) {
          return {gather_rows + slot.gather * row_elements, 1};
        }
        return {slot.base + (slot.stride != 0 ? base : 0), slot.stride};
      }
      return {inst_rows + (r - program.num_operands) * row_elements, 1};
    };
    for (int32_t r = 0; r < program.num_operands; ++r) {
      const ResolvedSlot<T>& slot = slots[r];
      if (slot.gather >= 0) {
        GatherBlock(*slot.access, slot.base, base, len,
                    gather_rows + slot.gather * row_elements, s.coord);
      }
    }
    for (size_t j = 0; j < program.insts.size(); ++j) {
      const MicroInst& inst = program.insts[j];
      auto [pa, sa] = src(inst.a);
      T* out = inst_rows + (inst.dst - program.num_operands) * row_elements;
      if (MicroOpArity(inst.opcode) == 2) {
        auto [pb, sb] = src(inst.b);
        using namespace functors;  // NOLINT(build/namespaces)
        switch (inst.opcode) {
#define TFE_FUSED_BINARY_CASE(code, F)        \
  case MicroOpCode::code:                     \
    BinaryBlock<F, T>(pa, sa, pb, sb, out, len); \
    break;
          TFE_FUSED_BINARY_CASE(kAdd, AddF)
          TFE_FUSED_BINARY_CASE(kSub, SubF)
          TFE_FUSED_BINARY_CASE(kMul, MulF)
          TFE_FUSED_BINARY_CASE(kDiv, DivF)
          TFE_FUSED_BINARY_CASE(kMaximum, MaximumF)
          TFE_FUSED_BINARY_CASE(kMinimum, MinimumF)
          TFE_FUSED_BINARY_CASE(kSquaredDifference, SquaredDifferenceF)
          TFE_FUSED_BINARY_CASE(kPow, PowF)
#undef TFE_FUSED_BINARY_CASE
          default:
            break;  // unreachable; arity == 2 covers exactly these
        }
      } else {
        using namespace functors;  // NOLINT(build/namespaces)
        switch (inst.opcode) {
#define TFE_FUSED_UNARY_CASE(code, F) \
  case MicroOpCode::code:             \
    UnaryBlock<F, T>(pa, sa, out, len); \
    break;
          TFE_FUSED_UNARY_CASE(kNeg, NegF)
          TFE_FUSED_UNARY_CASE(kAbs, AbsF)
          TFE_FUSED_UNARY_CASE(kSquare, SquareF)
          TFE_FUSED_UNARY_CASE(kSign, SignF)
          TFE_FUSED_UNARY_CASE(kRelu, ReluF)
          TFE_FUSED_UNARY_CASE(kExp, ExpF)
          TFE_FUSED_UNARY_CASE(kLog, LogF)
          TFE_FUSED_UNARY_CASE(kSqrt, SqrtF)
          TFE_FUSED_UNARY_CASE(kRsqrt, RsqrtF)
          TFE_FUSED_UNARY_CASE(kTanh, TanhF)
          TFE_FUSED_UNARY_CASE(kSigmoid, SigmoidF)
          TFE_FUSED_UNARY_CASE(kSin, SinF)
          TFE_FUSED_UNARY_CASE(kCos, CosF)
          TFE_FUSED_UNARY_CASE(kReciprocal, ReciprocalF)
          TFE_FUSED_UNARY_CASE(kFloor, FloorF)
#undef TFE_FUSED_UNARY_CASE
          case MicroOpCode::kCast:
            // Identity: foreign operands were converted to T up front. With
            // compact row reuse the source row may be reassigned as the
            // destination, making the copy an exact self-copy — skip it.
            if (sa == 1) {
              if (pa != out) std::copy(pa, pa + len, out);
            } else {
              std::fill(out, out + len, pa[0]);
            }
            break;
          default:
            break;  // unreachable; Verify bounds the opcode
        }
      }
    }
    for (const ResolvedOutput<T>& o : outputs) {
      auto [p, stride] = src(o.reg);
      switch (o.kind) {
        case MicroAccessKind::kScalar:
          if (base == 0) o.data[0] = p[0];
          break;
        case MicroAccessKind::kStrided:
          ScatterBlock(*o.store, o.data, base, len, p,
                       static_cast<int64_t>(stride), s.coord);
          break;
        case MicroAccessKind::kContiguous: {
          T* dst = o.data + base;
          if (stride == 1) {
            std::copy(p, p + len, dst);
          } else {
            std::fill(dst, dst + len, p[0]);
          }
          break;
        }
      }
    }
    if (partial) {
      auto [p, stride] = src(program.reduce.src);
      ReduceAccumulate(rkind, *partial, p, static_cast<int64_t>(stride), len);
    }
  };

  if (!has_reduce) {
    const int64_t num_blocks =
        (count + kFusedBlockElements - 1) / kFusedBlockElements;
    const int64_t min_blocks =
        std::max<int64_t>(1, kFusedGrainElements / kFusedBlockElements);
    ParallelFor(ectx, num_blocks, min_blocks,
                [&](int64_t block_begin, int64_t block_end) {
                  Scratch s = make_scratch();
                  for (int64_t block = block_begin; block < block_end;
                       ++block) {
                    const int64_t base = block * kFusedBlockElements;
                    interpret_block(s, base,
                                    std::min(kFusedBlockElements, count - base),
                                    nullptr);
                  }
                });
    return;
  }

  // Map-reduce: the evaluation space is out_count strips of reduce_count
  // contiguous elements. Each strip uses the canonical chunk/tree geometry
  // from reduce_util.h, so the result is bitwise identical to the standalone
  // reduction kernel, serial or sharded.
  const int64_t rc = program.reduce.reduce_count;
  const int64_t out_count = count / rc;
  const int64_t nc = ReduceChunkCount(rc);
  const T init = ReduceInit<T>(rkind);
  const bool is_mean = program.reduce.kind == MicroReduceKind::kMean;
  if (out_count > 1) {
    // Shards own whole strips (partials, tree, and finalize included).
    const int64_t min_strips =
        std::max<int64_t>(1, kFusedGrainElements / std::max<int64_t>(rc, 1));
    ParallelFor(ectx, out_count, min_strips,
                [&](int64_t strip_begin, int64_t strip_end) {
                  Scratch s = make_scratch();
                  std::vector<T> partials(nc);
                  for (int64_t strip = strip_begin; strip < strip_end;
                       ++strip) {
                    std::fill(partials.begin(), partials.end(), init);
                    int64_t off = 0;
                    while (off < rc) {
                      const int64_t len =
                          std::min(kFusedBlockElements, rc - off);
                      interpret_block(s, strip * rc + off, len,
                                      &partials[off / kReduceChunkElements]);
                      off += len;
                    }
                    T acc = ReduceCombineTree(rkind, partials.data(), nc);
                    if (is_mean) acc /= static_cast<T>(rc);
                    reduce_out[strip] = acc;
                  }
                });
    return;
  }
  // Full reduction (one strip): shards own disjoint chunk ranges writing a
  // shared partial array, then a single serial tree combine after the
  // ParallelFor barrier.
  std::vector<T> partials(nc, init);
  const int64_t min_chunks =
      std::max<int64_t>(1, kFusedGrainElements / kReduceChunkElements);
  ParallelFor(ectx, nc, min_chunks, [&](int64_t c_begin, int64_t c_end) {
    Scratch s = make_scratch();
    for (int64_t c = c_begin; c < c_end; ++c) {
      T acc = init;
      const int64_t begin = c * kReduceChunkElements;
      const int64_t end = std::min(rc, begin + kReduceChunkElements);
      for (int64_t off = begin; off < end; off += kFusedBlockElements) {
        interpret_block(s, off, std::min(kFusedBlockElements, end - off),
                        &acc);
      }
      partials[c] = acc;
    }
  });
  T acc = ReduceCombineTree(rkind, partials.data(), nc);
  if (is_mean) acc /= static_cast<T>(rc);
  reduce_out[0] = acc;
}

Status FusedElementwiseKernel(KernelContext* ctx) {
  const CompiledRun* run = ctx->prepared();
  if (run == nullptr) {
    return InvalidArgument(
        "FusedElementwise runs only a program the runtime compiled; it "
        "cannot be dispatched");
  }
  const MicroProgram& program = run->program;
  const DType dtype = run->dtype;
  const std::vector<Tensor>& inputs = ctx->inputs();

  const int64_t count = ProductOf(program.eval_dims);
  for (const MicroOperandSlot& slot : program.slots) {
    if (slot.input >= static_cast<int64_t>(inputs.size())) {
      return InvalidArgument("FusedElementwise slot input out of range");
    }
    const Tensor& input = inputs[slot.input];
    switch (slot.access.kind) {
      case MicroAccessKind::kScalar:
        if (input.num_elements() != 1) {
          return InvalidArgument(
              "FusedElementwise scalar slot reads a non-scalar input");
        }
        break;
      case MicroAccessKind::kStrided:
        if (MaxAccessOffset(slot.access) >= input.num_elements()) {
          return InvalidArgument(
              "FusedElementwise strided slot escapes its input");
        }
        break;
      case MicroAccessKind::kContiguous:
        if (input.num_elements() != count) {
          return InvalidArgument(
              "FusedElementwise slot does not cover the evaluation space");
        }
        break;
    }
  }

  // A foreign-dtype operand is legal only as a kCast source; it gets
  // converted to the run dtype before interpretation.
  std::vector<bool> foreign(inputs.size(), false);
  for (const MicroOperandSlot& slot : program.slots) {
    const Tensor& input = inputs[slot.input];
    if (input.dtype() == dtype) continue;
    if (!MicroOpSupports(MicroOpCode::kCast, input.dtype())) {
      return InvalidArgument("FusedElementwise operand dtype mismatch");
    }
    foreign[slot.input] = true;
  }
  const auto reads_foreign = [&](int32_t r) {
    return r < program.num_operands && foreign[program.slots[r].input];
  };
  for (const MicroInst& inst : program.insts) {
    if (!MicroOpSupports(inst.opcode, dtype)) {
      return InvalidArgument("FusedElementwise opcode unsupported for dtype");
    }
    if (inst.opcode == MicroOpCode::kCast) continue;
    if (reads_foreign(inst.a) ||
        (MicroOpArity(inst.opcode) == 2 && reads_foreign(inst.b))) {
      return InvalidArgument(
          "FusedElementwise foreign-dtype operand read by a non-cast op");
    }
  }
  // Published registers (outputs, reduce source) must carry the run dtype.
  for (const MicroOutputSpec& spec : program.output_specs) {
    if (reads_foreign(spec.reg)) {
      return InvalidArgument(
          "FusedElementwise foreign-dtype operand published as an output");
    }
  }
  if (program.reduce.kind != MicroReduceKind::kNone &&
      reads_foreign(program.reduce.src)) {
    return InvalidArgument(
        "FusedElementwise foreign-dtype operand fed to the reduction");
  }

  // Donation plan: output k writes donations[k]'s buffer in place (-1 or
  // absent = fresh allocation). CompileFusedRun proved the plan safe for
  // the program; the donor itself must still carry the run dtype and the
  // evaluation count.
  const std::vector<int>& donations = run->donations;
  if (donations.size() > program.output_specs.size()) {
    return InvalidArgument("FusedElementwise donation plan length mismatch");
  }
  for (int donor : donations) {
    if (donor < 0) continue;
    if (donor >= static_cast<int>(inputs.size())) {
      return InvalidArgument("FusedElementwise donor index out of range");
    }
    if (inputs[donor].dtype() != dtype ||
        inputs[donor].num_elements() != count) {
      return InvalidArgument("FusedElementwise unsafe donation");
    }
  }

  EagerContext* ectx = ctx->eager_context();
  ectx->stats().fused_runs.fetch_add(1, std::memory_order_relaxed);
  ectx->stats().fused_ops.fetch_add(program.insts.size(),
                                    std::memory_order_relaxed);
  if (program.reduce.kind != MicroReduceKind::kNone) {
    static profiler::Counter* reduce_runs =
        profiler::Metrics().GetCounter("fusion.reduce_runs");
    static const uint32_t reduce_name_id = profiler::Intern("fused_reduce_run");
    reduce_runs->Increment();
    profiler::RecordInstant(profiler::EventKind::kFusionRun, reduce_name_id,
                            static_cast<int64_t>(program.insts.size()) + 1);
  }
  if (run->dag) {
    static profiler::Counter* dag_runs =
        profiler::Metrics().GetCounter("fusion.dag_runs");
    static const uint32_t dag_name_id = profiler::Intern("dag_fused_run");
    dag_runs->Increment();
    ectx->stats().fused_dag_runs.fetch_add(1, std::memory_order_relaxed);
    profiler::RecordInstant(profiler::EventKind::kFusionRun, dag_name_id,
                            static_cast<int64_t>(program.insts.size()));
  }

  TFE_SWITCH_NUMERIC(dtype, T, {
    // Pre-converted storage for foreign (cast-source) operands; the
    // conversion applies the exact static_cast the standalone Cast kernel
    // does, so folded runs stay bitwise identical to op-at-a-time.
    std::vector<std::vector<T>> converted(inputs.size());
    std::vector<const T*> input_ptrs(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Tensor& input = inputs[i];
      if (foreign[i]) {
        std::vector<T> buffer(input.num_elements());
        TFE_SWITCH_NUMERIC(input.dtype(), TIn, {
          const TIn* in = input.data<TIn>();
          for (int64_t k = 0; k < input.num_elements(); ++k) {
            buffer[k] = static_cast<T>(in[k]);
          }
        });
        converted[i] = std::move(buffer);
        input_ptrs[i] = converted[i].data();
      } else {
        input_ptrs[i] = input.data<T>();
      }
    }
    std::vector<ResolvedSlot<T>> slots(program.slots.size());
    int num_gather_rows = 0;
    for (size_t s = 0; s < program.slots.size(); ++s) {
      const MicroOperandSlot& slot = program.slots[s];
      slots[s].base = input_ptrs[slot.input];
      switch (slot.access.kind) {
        case MicroAccessKind::kScalar:
          slots[s].stride = 0;
          break;
        case MicroAccessKind::kStrided:
          slots[s].gather = num_gather_rows++;
          slots[s].access = &slot.access;
          break;
        case MicroAccessKind::kContiguous:
          slots[s].stride = 1;
          break;
      }
    }
    std::vector<ResolvedOutput<T>> outputs;
    outputs.reserve(program.output_specs.size());
    for (size_t o = 0; o < program.output_specs.size(); ++o) {
      const MicroOutputSpec& spec = program.output_specs[o];
      const int donor = o < donations.size() ? donations[o] : -1;
      Tensor out = donor >= 0 ? DonateOutput(ctx, static_cast<int>(o), dtype,
                                             Shape(spec.shape), inputs[donor])
                              : ctx->AllocateOutput(static_cast<int>(o), dtype,
                                                    Shape(spec.shape));
      ResolvedOutput<T> res;
      res.data = out.mutable_data<T>();
      res.kind = spec.store.kind;
      if (spec.store.kind == MicroAccessKind::kStrided) res.store = &spec.store;
      res.reg = spec.reg;
      outputs.push_back(res);
    }
    T* reduce_out = nullptr;
    if (program.reduce.kind != MicroReduceKind::kNone) {
      Tensor out = ctx->AllocateOutput(
          static_cast<int>(program.output_specs.size()),
                                       dtype, Shape(program.reduce.shape));
      reduce_out = out.mutable_data<T>();
    }
    RunTyped<T>(ectx, program, slots, num_gather_rows, outputs, reduce_out,
                count);
  });
  return Status::OK();
}

}  // namespace

void RegisterFusedElementwiseKernels() {
  RegisterKernel("FusedElementwise", FusedElementwiseKernel);
}

}  // namespace kernels
}  // namespace tfe
