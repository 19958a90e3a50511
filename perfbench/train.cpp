// L2HMC training workloads (the paper's Fig. 4 configuration: 2-D target,
// 10 leapfrog steps, 25 chains), one per execution mode:
//
//   eager_train        synchronous eager dispatch under a GradientTape
//   eager_async_train  the same step with EagerContext::Options::async
//   staged_loop_train  the step as one tfe::function, leapfrog as a While
//
// The output check trains a fresh model a few steps in the workload's own
// mode and in a second mode, and requires bitwise-equal parameters that
// moved away from their initial values.
#include <cmath>
#include <cstring>
#include <random>

#include "bench.h"
#include "models/l2hmc.h"
#include "models/mlp.h"
#include "support/random.h"

namespace perfbench {
namespace {

constexpr int64_t kChains = 25;
constexpr int64_t kDim = 2;
constexpr double kLearningRate = 1e-3;
// Network init under which proposals are accepted (mean acceptance ~0.27
// at this configuration), so gradients are nonzero and parameters move.
// The library default (17) rejects every proposal.
constexpr int64_t kNetSeed = 3;
constexpr int kWarmupSteps = 5;
constexpr int kCheckSteps = 5;

enum class Mode { kEager, kAsync, kStagedLoop, kStagedUnrolled };

bool IsStaged(Mode mode) {
  return mode == Mode::kStagedLoop || mode == Mode::kStagedUnrolled;
}

// One fresh model trained in one mode on the global context.
class Trainer {
 public:
  Trainer(Mode mode, const std::vector<float>& chains, int64_t sample_seed) {
    tfe::set_async(mode == Mode::kAsync);
    tfe::models::L2hmcDynamics::Config config;
    config.seed = kNetSeed;
    config.sample_seed = sample_seed;
    config.staged_loop = mode == Mode::kStagedLoop;
    dynamics_ = std::make_unique<tfe::models::L2hmcDynamics>(config);
    x_ = tfe::ops::constant<float>(chains, tfe::Shape({kChains, kDim}));
    if (IsStaged(mode)) {
      staged_ = std::make_unique<tfe::Function>(
          [dynamics = dynamics_.get()](const std::vector<tfe::Tensor>& args) {
            return std::vector<tfe::Tensor>{
                dynamics->TrainStep(args[0], kLearningRate)};
          },
          "perfbench_l2hmc_step");
    }
  }

  // One training step; returns the loss. Throws tfe::RuntimeError.
  float Step(Tracer* tracer, int64_t id, int64_t* tape_entries) {
    ScopedSpan step(tracer, "step", id);
    tfe::Tensor loss;
    if (staged_ != nullptr) {
      if (tracer != nullptr) {
        ScopedSpan lookup(tracer, "lookup", id);
        staged_->GetConcreteFunction({x_}).status().ThrowIfError();
      }
      ScopedSpan call(tracer, "call", id);
      loss = (*staged_)({x_})[0];
    } else {
      // L2hmcDynamics::TrainStep, split at the module boundaries the
      // per-layer spans time.
      tfe::GradientTape tape;
      {
        ScopedSpan forward(tracer, "forward", id);
        loss = dynamics_->Loss(x_);
      }
      tape.StopRecording();
      if (tracer != nullptr) *tape_entries += tape.num_entries();
      std::vector<tfe::Variable> vars = dynamics_->variables();
      std::vector<tfe::Tensor> grads;
      {
        ScopedSpan gradient(tracer, "gradient", id);
        grads = tfe::gradient(tape, loss, vars);
      }
      ScopedSpan apply(tracer, "apply", id);
      tfe::models::ApplySgd(vars, grads, kLearningRate);
    }
    {
      ScopedSpan sync(tracer, "sync", id);
      tfe::sync().ThrowIfError();
    }
    return loss.scalar<float>();
  }

  std::vector<std::vector<float>> Parameters() const {
    std::vector<std::vector<float>> params;
    for (const tfe::Variable& v : dynamics_->variables()) {
      params.push_back(tfe::tensor_util::ToVector<float>(v.value()));
    }
    return params;
  }

 private:
  std::unique_ptr<tfe::models::L2hmcDynamics> dynamics_;
  std::unique_ptr<tfe::Function> staged_;
  tfe::Tensor x_;
};

// ops::add on 8 floats minus EagerContext::ExecuteKernel("Add") on the same
// inputs: the eager dispatch layer's fixed cost per op, in microseconds.
double MeasureDispatchOverheadUs() {
  constexpr int kIters = 20000;
  constexpr int kRounds = 5;
  tfe::EagerContext* ctx = tfe::EagerContext::Global();
  tfe::Tensor x = tfe::ops::constant<float>({1, 2, 3, 4, 5, 6, 7, 8},
                                            tfe::Shape({8}));
  tfe::AttrMap attrs;
  std::vector<double> dispatch_us, kernel_us;
  for (int round = 0; round < kRounds; ++round) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      ctx->ExecuteKernel("Add", {x, x}, attrs, ctx->HostCpu(),
                         /*compiled=*/false, /*start_ns=*/0)
          .status()
          .ThrowIfError();
    }
    kernel_us.push_back(SecondsSince(start) * 1e6 / kIters);
    start = Clock::now();
    for (int i = 0; i < kIters; ++i) tfe::ops::add(x, x);
    dispatch_us.push_back(SecondsSince(start) * 1e6 / kIters);
  }
  return Median(dispatch_us) - Median(kernel_us);
}

class TrainWorkload : public Workload {
 public:
  TrainWorkload(Mode mode, uint64_t seed) : mode_(mode) {
    // The workload seed draws the input chains and the Philox streams of
    // the momentum and Metropolis draws.
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> normal(0.0f, 1.0f);
    for (int64_t i = 0; i < kChains * kDim; ++i) chains_.push_back(normal(rng));
    sample_seed_ =
        1 + static_cast<int64_t>(tfe::random::SplitMix64(seed) % (1u << 30));
  }

  Traits traits() const override {
    Traits t;
    t.eager = !IsStaged(mode_);
    t.node_span = "call";
    t.examples_per_unit = kChains;
    return t;
  }

  void SetUp() override {
    trainer_.reset();
    ClearProcessCaches();
    trainer_ = std::make_unique<Trainer>(mode_, chains_, sample_seed_);
    int64_t ignored = 0;
    for (int i = 0; i < kWarmupSteps; ++i) trainer_->Step(nullptr, -1, &ignored);
  }

  double Step(Tracer* tracer, int64_t id) override {
    const Clock::time_point start = Clock::now();
    bool ok = false;
    try {
      ok = std::isfinite(trainer_->Step(tracer, id, &tape_entries_));
    } catch (const std::exception&) {
      ok = false;
    }
    Count(ok);
    return SecondsSince(start);
  }

  double DispatchOverheadUs() override {
    return mode_ == Mode::kEager ? MeasureDispatchOverheadUs() : 0;
  }

  void Check(bool corrupt_reference) override {
    trainer_.reset();
    std::vector<std::vector<float>> initial;
    std::vector<std::vector<float>> trained = TrainFresh(mode_, &initial);
    // Eager sync is checked against the unrolled staged step; the other
    // modes against eager sync.
    const Mode reference_mode =
        mode_ == Mode::kEager ? Mode::kStagedUnrolled : Mode::kEager;
    std::vector<std::vector<float>> reference = TrainFresh(reference_mode, nullptr);
    if (corrupt_reference && !reference.empty() && !reference[0].empty()) {
      uint32_t bits;
      std::memcpy(&bits, &reference[0][0], sizeof(bits));
      bits ^= 1u;
      std::memcpy(&reference[0][0], &bits, sizeof(bits));
    }
    bool same = trained.size() == reference.size();
    bool moved = false;
    for (size_t i = 0; same && i < trained.size(); ++i) {
      same = BitwiseEqual(trained[i], reference[i]);
      moved = moved || !BitwiseEqual(trained[i], initial[i]);
    }
    Count(same);
    Count(moved);
  }

 private:
  std::vector<std::vector<float>> TrainFresh(
      Mode mode, std::vector<std::vector<float>>* initial) {
    Trainer trainer(mode, chains_, sample_seed_);
    if (initial != nullptr) *initial = trainer.Parameters();
    int64_t ignored = 0;
    for (int i = 0; i < kCheckSteps; ++i) {
      Count(std::isfinite(trainer.Step(nullptr, -1, &ignored)));
    }
    return trainer.Parameters();
  }

  Mode mode_;
  std::vector<float> chains_;
  int64_t sample_seed_ = 0;
  std::unique_ptr<Trainer> trainer_;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainWorkload(const std::string& name,
                                            uint64_t seed) {
  if (name == "eager_train") {
    return std::make_unique<TrainWorkload>(Mode::kEager, seed);
  }
  if (name == "eager_async_train") {
    return std::make_unique<TrainWorkload>(Mode::kAsync, seed);
  }
  if (name == "staged_loop_train") {
    return std::make_unique<TrainWorkload>(Mode::kStagedLoop, seed);
  }
  return nullptr;
}

}  // namespace perfbench
