// L2HMC (Levy, Hoffman & Sohl-Dickstein, 2018) — the paper's small-op
// benchmark (§6, Figure 4): a learned Hamiltonian Monte Carlo sampler over a
// 2-dimensional target distribution with a 10-step leapfrog integrator.
//
// The model is a composition of hundreds of *tiny* operations per step, so
// imperative execution is dispatch-bound and staging the update function
// recovers an order of magnitude — exactly the regime Figure 4 probes. The
// host loop over leapfrog steps is fully unrolled by tracing, as the paper
// describes for Python loops (§4.1) — or, with Config::staged_loop, staged
// as a single While node whose body is one cached graph function, so a
// whole training step (forward, While gradient, SGD update) is ONE graph
// whose size no longer grows with leapfrog_steps.
#ifndef TFE_MODELS_L2HMC_H_
#define TFE_MODELS_L2HMC_H_

#include <memory>
#include <vector>

#include "api/tfe.h"
#include "models/mlp.h"

namespace tfe {
namespace models {

// The per-leapfrog learned functions: given (position-like input, momentum-
// like input), produce (scale, translation, transformation), each [n, dim].
// Mirrors the reference implementation's three-headed network.
class L2hmcNetwork : public Checkpointable {
 public:
  L2hmcNetwork(int64_t dim, int64_t hidden, int64_t seed,
               const std::string& name);

  struct Heads {
    Tensor scale;
    Tensor translation;
    Tensor transformation;
  };
  Heads operator()(const Tensor& x, const Tensor& v) const;

  void CollectVariables(std::vector<Variable>* out) const;

 private:
  std::unique_ptr<Dense> input_x_, input_v_, hidden_;
  std::unique_ptr<Dense> scale_head_, translation_head_, transform_head_;
};

class L2hmcDynamics : public Checkpointable {
 public:
  struct Config {
    int64_t dim = 2;
    int64_t hidden = 10;
    int64_t leapfrog_steps = 10;  // the paper's setting
    double step_size = 0.1;
    int64_t seed = 17;
    // Stage the leapfrog integrator as one While node instead of unrolling
    // the host loop into the trace. The loop body is traced once and its
    // execution plan is reused across iterations; differentiating
    // through it uses the While gradient (the per-iteration backward over
    // the forward loop's stack).
    bool staged_loop = false;
    // When nonzero, the momentum and Metropolis draws use the deterministic
    // Philox streams (sample_seed, sample_seed + 1) instead of the
    // context's stateful stream, making staged-loop and unrolled
    // transitions bitwise-comparable.
    int64_t sample_seed = 0;
  };
  L2hmcDynamics() : L2hmcDynamics(Config()) {}
  explicit L2hmcDynamics(const Config& config);

  // Log-density of the 2-D strongly-correlated Gaussian target.
  Tensor LogProb(const Tensor& x) const;

  struct Proposal {
    Tensor x_out;        // accepted positions [n, dim]
    Tensor accept_prob;  // [n]
  };
  // One full L2HMC transition for a batch of `n` chains: sample momenta,
  // run the learned leapfrog integrator, Metropolis accept/reject.
  Proposal Transition(const Tensor& x) const;

  // The expected-squared-jump-distance training loss of the reference
  // implementation (minimize reciprocal ESJD minus ESJD term).
  Tensor Loss(const Tensor& x) const;

  // One SGD step over the sampler parameters; returns the loss.
  Tensor TrainStep(const Tensor& x, double lr) const;

  std::vector<Variable> variables() const;
  const Config& config() const { return config_; }

 private:
  struct LeapfrogState {
    Tensor x;
    Tensor v;
    Tensor log_jacobian;
  };
  // One learned leapfrog update (v half-step, x full step, v half-step),
  // shared by the unrolled host loop and the staged while_loop body.
  LeapfrogState LeapfrogStep(const LeapfrogState& state) const;

  Config config_;
  std::unique_ptr<L2hmcNetwork> position_net_;
  std::unique_ptr<L2hmcNetwork> momentum_net_;
  // Lazily-built staged-loop functions (Config::staged_loop); mutable so
  // their trace caches persist across const Transition calls.
  mutable std::unique_ptr<Function> leapfrog_cond_;
  mutable std::unique_ptr<Function> leapfrog_body_;
};

}  // namespace models
}  // namespace tfe

#endif  // TFE_MODELS_L2HMC_H_
