// GradientTape: trace-based reverse-mode automatic differentiation
// (paper §4.2).
//
// Tapes are composable: a thread-local stack holds every active tape, so
// "multiple tapes can be active simultaneously, and higher-order gradients
// can be computed by having one tape recording while another tape computes a
// gradient". Because the backward pass executes primitive operations through
// the same dispatcher, it is recorded by enclosing tapes (higher-order
// derivatives) and by active traces (staged backward passes) with no special
// cases.
//
// Tapes are stage-scoped: a tape only records operations executed at the
// trace depth where it was created (eager tapes do not record the internals
// of a trace — they record the function *call*), but variable accesses at
// any depth watch the variable on every active tape, mirroring TF Eager.
#ifndef TFE_AUTODIFF_TAPE_H_
#define TFE_AUTODIFF_TAPE_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ops/attr_value.h"
#include "support/status.h"
#include "tensor/tensor.h"

namespace tfe {

struct OpDef;

// One recorded operation. Holding the input/output tensors keeps their
// buffers alive for the backward pass, exactly like eager-mode TF.
struct TapeEntry {
  const OpDef* op = nullptr;  // the registry entry the dispatcher resolved
  AttrMap attrs;
  std::vector<Tensor> inputs;
  std::vector<Tensor> outputs;
  std::string device;
};

class GradientTape {
 public:
  // Pushes onto the active-tape stack. `persistent` allows multiple
  // gradient() calls (paper API parity).
  explicit GradientTape(bool persistent = false);
  ~GradientTape();

  GradientTape(const GradientTape&) = delete;
  GradientTape& operator=(const GradientTape&) = delete;

  // Marks `tensor` (or, for resource tensors, the variable it handles) as a
  // differentiation source; ops consuming tracked tensors are recorded.
  void watch(const Tensor& tensor);

  // Ends recording early (the `with` block's exit). Idempotent; the
  // destructor calls it.
  void StopRecording();

  // d(target)/d(sources). `output_gradients`, if provided, seeds the
  // backward pass; otherwise ones are used. Returns one tensor per source;
  // a source that `target` does not depend on yields an undefined Tensor
  // (the None analog).
  StatusOr<std::vector<Tensor>> gradient(
      const Tensor& target, const std::vector<Tensor>& sources,
      const std::vector<Tensor>& output_gradients = {});

  bool persistent() const { return persistent_; }
  int num_entries() const { return static_cast<int>(entries_.size()); }

  // ---- dispatcher hooks ------------------------------------------------------

  // Offers an executed/recorded op to every active tape at the current trace
  // depth. Called by Dispatch() for both stages.
  static void RecordOperation(const OpDef& op, const AttrMap& attrs,
                              const std::vector<Tensor>& inputs,
                              const std::vector<Tensor>& outputs,
                              const std::string& device);

  // Variable access auto-watch (paper §4.3): watches the resource handle on
  // every active tape, regardless of trace depth.
  static void WatchResourceOnAllTapes(const Tensor& resource);

  // True if some active tape at the current trace depth would record an op
  // with these inputs — the trigger for building a function's forward
  // variant (paper §4.2: "the first time a graph function is called when a
  // tape is both active and watching one of its inputs...").
  static bool WouldRecord(const std::vector<Tensor>& inputs);

 private:
  bool TracksAny(const std::vector<Tensor>& tensors) const;

  bool persistent_;
  bool used_ = false;
  bool recording_ = true;
  bool paused_ = false;  // while this tape computes its own gradient
  int trace_depth_;
  // Sources plus everything computed from them while recording.
  std::unordered_set<int64_t> tracked_;
  std::vector<TapeEntry> entries_;
};

}  // namespace tfe

#endif  // TFE_AUTODIFF_TAPE_H_
