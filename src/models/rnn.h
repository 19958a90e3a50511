// Recurrent models — the paper's motivating dynamic workloads ("some
// researchers use it to implement dynamic language models", §7; host
// control flow makes data-dependent models easy, §3).
//
// Two drivers over the same LSTM cell:
//  * UnrolledRnn — a host loop over time steps: tracing unrolls it into the
//    graph (paper §4.1), fixed sequence length per trace, differentiable.
//  * DynamicRnn — a staged while_loop whose iteration count is a *runtime*
//    tensor (the sequence length): one trace serves any length, the
//    tf.while story of §4.1. Differentiable like the unrolled form — the
//    While gradient runs the staged step function's backward per time step
//    in reverse, over the values the forward loop stacked.
#ifndef TFE_MODELS_RNN_H_
#define TFE_MODELS_RNN_H_

#include <memory>
#include <utility>

#include "api/tfe.h"

namespace tfe {
namespace models {

class LSTMCell : public Checkpointable {
 public:
  LSTMCell(int64_t input_size, int64_t hidden_size, int64_t seed = 0,
           const std::string& name = "lstm");

  struct State {
    Tensor h;  // [batch, hidden]
    Tensor c;  // [batch, hidden]
  };

  // One step: x [batch, input_size] -> next state.
  State operator()(const Tensor& x, const State& state) const;

  // Zero state for a batch.
  State ZeroState(int64_t batch) const;

  int64_t hidden_size() const { return hidden_size_; }
  std::vector<Variable> variables() const { return {kernel_, bias_}; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Variable kernel_;  // [input+hidden, 4*hidden]
  Variable bias_;    // [4*hidden]
};

// Runs the cell over `sequence` [batch, time, input] for all `time` steps
// with a host loop (unrolls under tracing). Returns the final hidden state
// [batch, hidden]. Differentiable.
Tensor UnrolledRnn(const LSTMCell& cell, const Tensor& sequence);

// Runs the cell for `length` (scalar int32 tensor, <= time) steps using a
// staged while_loop: the iteration count is decided by the *value* of
// `length` at execution time, so one trace handles every length.
// Differentiable: the While gradient runs the step function's staged
// backward once per executed time step in reverse, reading the forward
// loop's stack, so d(output)/d(cell variables) matches the unrolled loop's
// tape gradient.
Tensor DynamicRnn(const LSTMCell& cell, const Tensor& sequence,
                  const Tensor& length);

}  // namespace models
}  // namespace tfe

#endif  // TFE_MODELS_RNN_H_
