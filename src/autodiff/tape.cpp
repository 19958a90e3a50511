#include "autodiff/tape.h"

#include "ops/op_def.h"
#include "runtime/dispatch.h"
#include "staging/trace_context.h"
#include "support/strings.h"

namespace tfe {

namespace {

thread_local std::vector<GradientTape*> g_tape_stack;

StatusOr<Tensor> OnesLikeOf(const Tensor& tensor) {
  return DispatchSingle({.op_name = "OnesLike", .inputs = {tensor}});
}

StatusOr<Tensor> ZerosLikeOf(const Tensor& tensor) {
  return DispatchSingle({.op_name = "ZerosLike", .inputs = {tensor}});
}

StatusOr<Tensor> AddGradients(const Tensor& a, const Tensor& b) {
  return DispatchSingle({.op_name = "Add", .inputs = {a, b}});
}

}  // namespace

GradientTape::GradientTape(bool persistent)
    : persistent_(persistent), trace_depth_(TraceContext::Depth()) {
  g_tape_stack.push_back(this);
}

GradientTape::~GradientTape() { StopRecording(); }

void GradientTape::StopRecording() {
  if (!recording_) return;
  recording_ = false;
  // Remove from the stack (tapes normally unwind LIFO, but StopRecording may
  // be called early).
  for (auto it = g_tape_stack.rbegin(); it != g_tape_stack.rend(); ++it) {
    if (*it == this) {
      g_tape_stack.erase(std::next(it).base());
      break;
    }
  }
}

void GradientTape::watch(const Tensor& tensor) {
  TFE_CHECK(tensor.defined());
  tracked_.insert(tensor.id());
}

bool GradientTape::TracksAny(const std::vector<Tensor>& tensors) const {
  for (const Tensor& tensor : tensors) {
    if (tensor.defined() && tracked_.count(tensor.id()) > 0) return true;
  }
  return false;
}

void GradientTape::RecordOperation(const OpDef& op, const AttrMap& attrs,
                                   const std::vector<Tensor>& inputs,
                                   const std::vector<Tensor>& outputs,
                                   const std::string& device) {
  // Variable access auto-watch (paper §4.3, Listing 2) — any depth.
  if (op.variable_op && op.read_only && !inputs.empty()) {
    WatchResourceOnAllTapes(inputs[0]);
  }
  if (g_tape_stack.empty()) return;
  const int depth = TraceContext::Depth();
  for (GradientTape* tape : g_tape_stack) {
    if (tape->paused_ || !tape->recording_ || tape->trace_depth_ != depth) {
      continue;
    }
    if (!tape->TracksAny(inputs)) continue;
    tape->entries_.push_back({&op, attrs, inputs, outputs, device});
    for (const Tensor& output : outputs) {
      if (output.defined()) tape->tracked_.insert(output.id());
    }
  }
}

void GradientTape::WatchResourceOnAllTapes(const Tensor& resource) {
  if (!resource.defined() || !resource.is_resource()) return;
  for (GradientTape* tape : g_tape_stack) {
    if (tape->recording_ && !tape->paused_) {
      tape->tracked_.insert(resource.id());
    }
  }
}

bool GradientTape::WouldRecord(const std::vector<Tensor>& inputs) {
  const int depth = TraceContext::Depth();
  for (GradientTape* tape : g_tape_stack) {
    if (!tape->paused_ && tape->recording_ && tape->trace_depth_ == depth &&
        tape->TracksAny(inputs)) {
      return true;
    }
  }
  return false;
}

StatusOr<std::vector<Tensor>> GradientTape::gradient(
    const Tensor& target, const std::vector<Tensor>& sources,
    const std::vector<Tensor>& output_gradients) {
  if (used_ && !persistent_) {
    return FailedPrecondition(
        "A non-persistent GradientTape can only compute one gradient; "
        "construct with persistent=true to compute several");
  }
  used_ = true;
  if (!target.defined()) return InvalidArgument("gradient() of undefined target");

  // Entering the backward pass is a sync point for async eager (paper §5):
  // wait for the target's producer and surface a deferred failure as this
  // call's Status instead of letting it poison the gradient chain. The
  // recorded forward tensors materialize lazily as gradient kernels read
  // them; backward ops themselves dispatch asynchronously like any others.
  TFE_RETURN_IF_ERROR(target.Materialize());

  // The backward pass must not record onto this tape (it *is* recorded by
  // enclosing tapes and traces — that is how higher-order and staged
  // gradients compose).
  paused_ = true;
  struct Unpause {
    GradientTape* tape;
    ~Unpause() { tape->paused_ = false; }
  } unpause{this};

  // Seed.
  std::unordered_map<int64_t, Tensor> grads;
  if (!output_gradients.empty()) {
    if (output_gradients.size() != 1 || !output_gradients[0].defined()) {
      return InvalidArgument("output_gradients must hold one defined tensor");
    }
    grads[target.id()] = output_gradients[0];
  } else {
    TFE_ASSIGN_OR_RETURN(grads[target.id()], OnesLikeOf(target));
  }

  // Needed-set pruning: walk backwards from the target so unrelated recorded
  // ops are not differentiated.
  std::vector<bool> needed(entries_.size(), false);
  std::unordered_set<int64_t> need_ids = {target.id()};
  for (int i = static_cast<int>(entries_.size()) - 1; i >= 0; --i) {
    const TapeEntry& entry = entries_[i];
    bool produces_needed = false;
    for (const Tensor& output : entry.outputs) {
      if (output.defined() && need_ids.count(output.id()) > 0) {
        produces_needed = true;
        break;
      }
    }
    if (!produces_needed) continue;
    needed[i] = true;
    for (const Tensor& input : entry.inputs) {
      if (input.defined()) need_ids.insert(input.id());
    }
  }

  for (int i = static_cast<int>(entries_.size()) - 1; i >= 0; --i) {
    if (!needed[i]) continue;
    const TapeEntry& entry = entries_[i];

    std::vector<Tensor> grad_outputs(entry.outputs.size());
    bool any_grad = false;
    for (size_t j = 0; j < entry.outputs.size(); ++j) {
      if (!entry.outputs[j].defined()) continue;
      auto it = grads.find(entry.outputs[j].id());
      if (it != grads.end()) {
        grad_outputs[j] = it->second;
        any_grad = true;
      }
    }
    if (!any_grad) continue;

    const OpDef& op = *entry.op;
    if (!op.gradient) {
      if (!op.differentiable) continue;  // gradient is zero
      return Unimplemented(strings::StrCat("No gradient registered for op ",
                                           op.name,
                                           " (op is marked differentiable)"));
    }

    // Aggregate-with-zeros: gradient functions may rely on every output
    // gradient being present.
    for (size_t j = 0; j < grad_outputs.size(); ++j) {
      if (!grad_outputs[j].defined() && entry.outputs[j].defined() &&
          !entry.outputs[j].is_resource()) {
        TFE_ASSIGN_OR_RETURN(grad_outputs[j], ZerosLikeOf(entry.outputs[j]));
      }
    }

    TFE_ASSIGN_OR_RETURN(std::vector<Tensor> grad_inputs,
                         op.gradient(entry, grad_outputs));
    if (grad_inputs.size() != entry.inputs.size()) {
      return Internal(strings::StrCat("Gradient for ", op.name,
                                      " returned ", grad_inputs.size(),
                                      " gradients for ", entry.inputs.size(),
                                      " inputs"));
    }
    for (size_t j = 0; j < grad_inputs.size(); ++j) {
      if (!grad_inputs[j].defined()) continue;
      int64_t id = entry.inputs[j].id();
      auto it = grads.find(id);
      if (it == grads.end()) {
        grads[id] = grad_inputs[j];
      } else {
        TFE_ASSIGN_OR_RETURN(it->second,
                             AddGradients(it->second, grad_inputs[j]));
      }
    }
  }

  std::vector<Tensor> results;
  results.reserve(sources.size());
  for (const Tensor& source : sources) {
    if (!source.defined()) {
      results.emplace_back();
      continue;
    }
    auto it = grads.find(source.id());
    results.push_back(it == grads.end() ? Tensor() : it->second);
  }
  return results;
}

}  // namespace tfe
