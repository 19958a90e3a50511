#include "models/l2hmc.h"

#include "staging/control_flow.h"
#include "support/strings.h"

namespace tfe {
namespace models {

namespace {
using ops::operator+;
using ops::operator-;
using ops::operator*;
using ops::operator/;

Tensor Scalar(double value) { return ops::fill(DType::kFloat32, {}, value); }
}  // namespace

L2hmcNetwork::L2hmcNetwork(int64_t dim, int64_t hidden, int64_t seed,
                           const std::string& name) {
  input_x_ = std::make_unique<Dense>(dim, hidden, false, seed + 1,
                                     name + "/input_x");
  input_v_ = std::make_unique<Dense>(dim, hidden, false, seed + 2,
                                     name + "/input_v");
  hidden_ = std::make_unique<Dense>(hidden, hidden, true, seed + 3,
                                    name + "/hidden");
  scale_head_ = std::make_unique<Dense>(hidden, dim, false, seed + 4,
                                        name + "/scale");
  translation_head_ = std::make_unique<Dense>(hidden, dim, false, seed + 5,
                                              name + "/translation");
  transform_head_ = std::make_unique<Dense>(hidden, dim, false, seed + 6,
                                            name + "/transform");
  TrackChild("input_x", input_x_.get());
  TrackChild("input_v", input_v_.get());
  TrackChild("hidden", hidden_.get());
  TrackChild("scale", scale_head_.get());
  TrackChild("translation", translation_head_.get());
  TrackChild("transform", transform_head_.get());
}

L2hmcNetwork::Heads L2hmcNetwork::operator()(const Tensor& x,
                                             const Tensor& v) const {
  Tensor h = ops::relu((*input_x_)(x) + (*input_v_)(v));
  h = (*hidden_)(h);
  Heads heads;
  heads.scale = ops::tanh((*scale_head_)(h));
  heads.translation = (*translation_head_)(h);
  heads.transformation = ops::tanh((*transform_head_)(h));
  return heads;
}

void L2hmcNetwork::CollectVariables(std::vector<Variable>* out) const {
  for (const Dense* layer :
       {input_x_.get(), input_v_.get(), hidden_.get(), scale_head_.get(),
        translation_head_.get(), transform_head_.get()}) {
    for (const Variable& v : layer->variables()) out->push_back(v);
  }
}

L2hmcDynamics::L2hmcDynamics(const Config& config) : config_(config) {
  position_net_ = std::make_unique<L2hmcNetwork>(
      config.dim, config.hidden, config.seed, "l2hmc/position_net");
  momentum_net_ = std::make_unique<L2hmcNetwork>(
      config.dim, config.hidden, config.seed + 100, "l2hmc/momentum_net");
  TrackChild("position_net", position_net_.get());
  TrackChild("momentum_net", momentum_net_.get());
}

Tensor L2hmcDynamics::LogProb(const Tensor& x) const {
  // Strongly-correlated 2-D Gaussian: the reference benchmark's target.
  // log p(x) = -1/2 sum over the quadratic form with variances (100, 0.1)
  // along the rotated axes.
  Tensor sum = ops::slice(x, {0, 0}, {-1, 1}) + ops::slice(x, {0, 1}, {-1, 1});
  Tensor diff = ops::slice(x, {0, 0}, {-1, 1}) - ops::slice(x, {0, 1}, {-1, 1});
  Tensor quad = ops::square(sum) / Scalar(200.0) +
                ops::square(diff) / Scalar(0.2);
  return ops::neg(ops::squeeze(quad, {1}) * Scalar(0.5));
}

L2hmcDynamics::LeapfrogState L2hmcDynamics::LeapfrogStep(
    const LeapfrogState& state) const {
  const double eps = config_.step_size;
  Tensor x = state.x;
  Tensor v = state.v;
  Tensor log_jacobian = state.log_jacobian;
  // The learned leapfrog integrator: v half-step (momentum net), x full
  // step (position net), v half-step. The log-Jacobian of the scale terms
  // accumulates into the acceptance ratio.
  //
  // Half-step momentum update.
  {
    GradientTape tape;
    tape.watch(x);
    Tensor energy = ops::reduce_sum(LogProb(x));
    tape.StopRecording();
    auto grads = tape.gradient(energy, {x});
    grads.status().ThrowIfError();
    Tensor grad_x = (*grads)[0];
    L2hmcNetwork::Heads heads = (*momentum_net_)(x, grad_x);
    Tensor scale = ops::exp(heads.scale * Scalar(0.5 * eps));
    v = v * scale +
        Scalar(0.5 * eps) * (grad_x * ops::exp(heads.transformation) +
                             heads.translation);
    log_jacobian =
        log_jacobian + ops::reduce_sum(heads.scale * Scalar(0.5 * eps), {1});
  }
  // Full-step position update.
  {
    L2hmcNetwork::Heads heads = (*position_net_)(x, v);
    Tensor scale = ops::exp(heads.scale * Scalar(eps));
    x = x * scale +
        Scalar(eps) * (v * ops::exp(heads.transformation) +
                       heads.translation);
    log_jacobian =
        log_jacobian + ops::reduce_sum(heads.scale * Scalar(eps), {1});
  }
  // Half-step momentum update.
  {
    GradientTape tape;
    tape.watch(x);
    Tensor energy = ops::reduce_sum(LogProb(x));
    tape.StopRecording();
    auto grads = tape.gradient(energy, {x});
    grads.status().ThrowIfError();
    Tensor grad_x = (*grads)[0];
    L2hmcNetwork::Heads heads = (*momentum_net_)(x, grad_x);
    Tensor scale = ops::exp(heads.scale * Scalar(0.5 * eps));
    v = v * scale +
        Scalar(0.5 * eps) * (grad_x * ops::exp(heads.transformation) +
                             heads.translation);
    log_jacobian =
        log_jacobian + ops::reduce_sum(heads.scale * Scalar(0.5 * eps), {1});
  }
  return {x, v, log_jacobian};
}

L2hmcDynamics::Proposal L2hmcDynamics::Transition(const Tensor& x0) const {
  const int64_t n = x0.shape().dim(0);
  const int64_t dim = config_.dim;

  Tensor x = x0;
  Tensor v = config_.sample_seed == 0
                 ? ops::random_normal({n, dim})
                 : ops::random_normal({n, dim}, 0.0, 1.0,
                                      config_.sample_seed);
  Tensor log_prob0 = LogProb(x);
  Tensor kinetic0 = ops::reduce_sum(ops::square(v), {1}) * Scalar(0.5);

  LeapfrogState state{x, v, ops::zeros(DType::kFloat32, {n})};
  if (config_.staged_loop) {
    // One While node over {step, x, v, log_jacobian}; the body is the same
    // LeapfrogStep the unrolled path runs, traced once. The +1 on
    // maximum_iterations pays for the final (false) cond evaluation; it is
    // also the bound on the While's forward stack.
    if (leapfrog_body_ == nullptr) {
      leapfrog_cond_ = std::make_unique<Function>(
          [steps = config_.leapfrog_steps](
              const std::vector<Tensor>& vars) -> std::vector<Tensor> {
            return {ops::less(vars[0],
                              ops::fill(DType::kInt32, {},
                                        static_cast<double>(steps)))};
          },
          "l2hmc_leapfrog_cond");
      leapfrog_body_ = std::make_unique<Function>(
          [this](const std::vector<Tensor>& vars) -> std::vector<Tensor> {
            LeapfrogState next = LeapfrogStep({vars[1], vars[2], vars[3]});
            return {ops::add(vars[0], ops::fill(DType::kInt32, {}, 1.0)),
                    next.x, next.v, next.log_jacobian};
          },
          "l2hmc_leapfrog_body");
    }
    std::vector<Tensor> out = ops::while_loop(
        *leapfrog_cond_, *leapfrog_body_,
        {ops::fill(DType::kInt32, {}, 0.0), state.x, state.v,
         state.log_jacobian},
        config_.leapfrog_steps + 1);
    state = {out[1], out[2], out[3]};
  } else {
    for (int64_t step = 0; step < config_.leapfrog_steps; ++step) {
      state = LeapfrogStep(state);
    }
  }
  x = state.x;
  v = state.v;
  Tensor log_jacobian = state.log_jacobian;

  // Metropolis-Hastings correction.
  Tensor log_prob1 = LogProb(x);
  Tensor kinetic1 = ops::reduce_sum(ops::square(v), {1}) * Scalar(0.5);
  Tensor log_accept =
      (log_prob1 - kinetic1) - (log_prob0 - kinetic0) + log_jacobian;
  Tensor accept_prob =
      ops::minimum(ops::exp(ops::minimum(log_accept, ops::zeros_like(log_accept))),
                   ops::ones_like(log_accept));
  Tensor uniform = config_.sample_seed == 0
                       ? ops::random_uniform({n})
                       : ops::random_uniform({n}, 0.0, 1.0,
                                             config_.sample_seed + 1);
  Tensor accept_mask =
      ops::cast(ops::less(uniform, accept_prob), DType::kFloat32);
  Tensor mask2d = ops::expand_dims(accept_mask, 1);

  Proposal proposal;
  proposal.x_out =
      x * mask2d + x0 * (ops::ones_like(mask2d) - mask2d);
  proposal.accept_prob = accept_prob;
  return proposal;
}

Tensor L2hmcDynamics::Loss(const Tensor& x) const {
  Proposal proposal = Transition(x);
  // Expected squared jump distance, weighted by acceptance probability.
  Tensor jump = ops::reduce_sum(ops::square(proposal.x_out - x), {1});
  Tensor esjd = proposal.accept_prob * jump + Scalar(1e-4);
  const double scale = 0.1;
  Tensor loss_terms =
      Scalar(scale) / esjd - esjd / Scalar(scale);
  return ops::reduce_mean(loss_terms);
}

Tensor L2hmcDynamics::TrainStep(const Tensor& x, double lr) const {
  GradientTape tape;
  Tensor loss = Loss(x);
  tape.StopRecording();
  std::vector<Variable> vars = variables();
  std::vector<Tensor> grads = gradient(tape, loss, vars);
  ApplySgd(vars, grads, lr);
  return loss;
}

std::vector<Variable> L2hmcDynamics::variables() const {
  std::vector<Variable> variables;
  position_net_->CollectVariables(&variables);
  momentum_net_->CollectVariables(&variables);
  return variables;
}

}  // namespace models
}  // namespace tfe
