// serve_mlp: tfe::serving::Serving with 4 sessions over bench_serving's
// 24-layer, 16-wide staged MLP. One generator thread keeps a fixed number
// of requests in flight (a closed loop: it submits the next request only
// after collecting the oldest). Every response must equal, bitwise, a
// direct unbatched call on its row, computed during set-up.
#include <cstring>
#include <deque>
#include <random>

#include "bench.h"

namespace perfbench {
namespace {

constexpr int kSessions = 4;
constexpr size_t kInFlight = 16;
constexpr int kPoolRows = 64;
constexpr int64_t kFeatures = 16;
constexpr int kLayers = 24;
constexpr int kMaxBatch = 8;
constexpr int kQueueDelayUs = 200;
constexpr int kWarmupRequests = 400;

namespace serving = tfe::serving;

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(uint64_t seed) : rng_(seed) {
    // The workload seed draws the request-row pool and the order in which
    // rows are requested; the model weights are fixed.
    std::normal_distribution<float> normal(0.0f, 1.0f);
    pool_.resize(kPoolRows);
    for (auto& row : pool_) {
      for (int64_t i = 0; i < kFeatures; ++i) row.push_back(normal(rng_));
    }
  }

  ~ServeWorkload() override { TearDown(); }

  Traits traits() const override {
    Traits t;
    t.node_span = "await";
    t.max_batch = kMaxBatch;
    t.examples_per_unit = 1;
    return t;
  }

  void SetUp() override {
    TearDown();
    ClearProcessCaches();
    tfe::set_async(true);
    namespace ops = tfe::ops;
    tfe::Tensor w_in = ops::random_normal({kFeatures, 16}, 0, 0.1, /*seed=*/1);
    std::vector<tfe::Tensor> hidden_w, hidden_b;
    for (int layer = 0; layer < kLayers; ++layer) {
      hidden_w.push_back(ops::random_normal({16, 16}, 0, 0.1, 10 + layer));
      hidden_b.push_back(ops::random_normal({16}, 0, 0.1, 40 + layer));
    }
    tfe::Tensor w_out = ops::random_normal({16, 16}, 0, 0.1, /*seed=*/3);
    fn_ = std::make_unique<tfe::Function>(
        [w_in, hidden_w, hidden_b, w_out](const std::vector<tfe::Tensor>& args) {
          tfe::Tensor h = ops::matmul(args[0], w_in);
          for (size_t layer = 0; layer < hidden_w.size(); ++layer) {
            h = ops::relu(
                ops::add(ops::matmul(h, hidden_w[layer]), hidden_b[layer]));
          }
          return std::vector<tfe::Tensor>{ops::softmax(ops::matmul(h, w_out))};
        },
        "perfbench_serve_mlp");

    // Reference outputs: one direct, unbatched call per pool row.
    rows_.clear();
    references_.clear();
    for (const auto& row : pool_) {
      rows_.push_back(ops::constant<float>(row, tfe::Shape({1, kFeatures})));
      tfe::Tensor out = (*fn_)({rows_.back()})[0];
      tfe::sync().ThrowIfError();
      references_.push_back(tfe::tensor_util::ToVector<float>(out));
    }

    serving::ServingOptions options;
    options.max_batch_size = kMaxBatch;
    options.max_queue_delay_us = kQueueDelayUs;
    server_ = std::make_unique<serving::Serving>(options);
    sessions_.clear();
    for (int s = 0; s < kSessions; ++s) {
      sessions_.push_back(server_->OpenSession().value());
    }

    // Warm-up ramps the in-flight depth from 1 to the full window, so every
    // padded batch shape is traced before measurement.
    for (int i = 0; i < kWarmupRequests; ++i) {
      const size_t depth = 1 + static_cast<size_t>(i) * kInFlight / kWarmupRequests;
      while (inflight_.size() < depth) Submit(NextRow());
      Complete(nullptr);
    }
    Drain();
  }

  double Step(Tracer* tracer, int64_t id) override {
    while (inflight_.size() < kInFlight) Submit(NextRow());
    return Complete(tracer);
  }

  void Drain() override {
    while (!inflight_.empty()) Complete(nullptr);
  }

  void Check(bool corrupt_reference) override {
    if (corrupt_reference) references_[0][0] = -references_[0][0] - 1.0f;
    // Every pool row once more through the batcher, at full depth.
    for (int row = 0; row < kPoolRows; ++row) {
      if (inflight_.size() == kInFlight) Complete(nullptr);
      Submit(row);
    }
    Drain();
    TearDown();
  }

 private:
  struct Request {
    int64_t id;
    int row;
    Clock::time_point submitted;
    Clock::time_point accepted;  // Submit returned
    tfe::StatusOr<std::vector<tfe::Tensor>> outputs;
  };

  int NextRow() { return static_cast<int>(rng_() % kPoolRows); }

  void Submit(int row) {
    const int64_t id = next_id_++;
    const Clock::time_point submitted = Clock::now();
    auto outputs =
        server_->Submit(sessions_[id % kSessions], *fn_, {rows_[row]});
    inflight_.push_back({id, row, submitted, Clock::now(), std::move(outputs)});
  }

  // Collects the oldest request; returns its Submit-to-resolved latency.
  double Complete(Tracer* tracer) {
    Request request = std::move(inflight_.front());
    inflight_.pop_front();
    bool ok = request.outputs.ok() &&
              serving::Serving::Await(*request.outputs).ok();
    const Clock::time_point done = Clock::now();
    ok = ok && BitwiseEqual(
                   tfe::tensor_util::ToVector<float>((*request.outputs)[0]),
                   references_[request.row]);
    Count(ok);
    if (tracer != nullptr) {
      const int parent =
          tracer->Add("request", -1, request.id, request.submitted, done);
      tracer->Add("submit", parent, request.id, request.submitted,
                  request.accepted);
      tracer->Add("await", parent, request.id, request.accepted, done);
    }
    return std::chrono::duration<double>(done - request.submitted).count();
  }

  // Serving first (it drains the batcher), then what its calls reference.
  void TearDown() {
    Drain();
    server_.reset();
    fn_.reset();
    rows_.clear();
  }

  std::mt19937_64 rng_;
  std::vector<std::vector<float>> pool_;
  std::vector<std::vector<float>> references_;
  std::vector<tfe::Tensor> rows_;
  std::unique_ptr<tfe::Function> fn_;
  std::unique_ptr<serving::Serving> server_;
  std::vector<serving::SessionId> sessions_;
  std::deque<Request> inflight_;
  int64_t next_id_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed);
}

}  // namespace perfbench
