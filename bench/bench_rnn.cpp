// Staged-loop RNN benchmark: the dynamic-model workload of paper §4.1/§7
// where one while_loop trace serves every sequence length.
//
// Four series over the same LSTM cell, batch 8, sequence lengths
// {4, 8, 16, 32, 64}:
//  * "TFE"              — eager unrolled host loop: per-op dispatch cost,
//                         the interpreter-bound baseline.
//  * "TFE retrace"      — per-iteration re-tracing: the LSTM step is
//                         staged, but into a FRESH function every time
//                         step, so each iteration pays a full trace. This
//                         is the naive pattern staged loops exist to kill.
//  * "TFE + while"      — DynamicRnn inside ONE traced function: the graph
//                         contains a While node; the body's execution
//                         variant is resolved once per loop and reused
//                         across iterations.
//  * "TFE + unrolled"   — UnrolledRnn traced: the time loop unrolls into
//                         the graph, one trace per length.
//
// BENCH_rnn.json gates: the staged while loop must beat per-call
// re-tracing by >= 3x at the longest sequence, and the loop-body
// execution-variant cache must hit on >= 90% of iterations.
//
//   build/bench/bench_rnn
#include "bench/bench_util.h"
#include "models/rnn.h"
#include "profiler/metrics.h"

using tfe::Tensor;
namespace ops = tfe::ops;
namespace bench = tfe::bench;

int main() {
  tfe::EagerContext::Options options;
  options.host_profile = tfe::HostProfile::Python();
  options.async = true;  // eager baselines dispatch through the op queues
  tfe::EagerContext::ResetGlobal(options);

  constexpr int64_t kBatch = 8;
  constexpr int64_t kInput = 16;
  constexpr int64_t kHidden = 32;
  const std::vector<int64_t> lengths = {4, 8, 16, 32, 64};

  std::printf("LSTM sequence models on CPU: staged while_loop vs "
              "re-tracing vs unrolling\n");
  std::printf("batch %lld, input %lld, hidden %lld; %d iterations averaged "
              "over %d runs\n",
              static_cast<long long>(kBatch), static_cast<long long>(kInput),
              static_cast<long long>(kHidden), bench::kIterations,
              bench::kRuns);

  tfe::models::LSTMCell cell(kInput, kHidden, /*seed=*/7);

  // Under TFE_PROFILE, execute one staged While up front (eager while_loop
  // is just a host loop — only a traced function actually runs the While
  // kernel): the per-thread event buffers are bounded and the measurement
  // sweep floods them, so the "staged_loop" trace evidence must land before
  // the flood, not after.
  {
    Tensor warm_seq =
        ops::random_normal({1, 2, kInput}, 0, 1, /*seed=*/99);
    tfe::Function warm = tfe::function(
        [&cell, warm_seq](const std::vector<Tensor>& args)
            -> std::vector<Tensor> {
          return {tfe::models::DynamicRnn(cell, warm_seq, args[0])};
        },
        "bench_rnn_warm_loop");
    warm({ops::fill(tfe::DType::kInt32, {}, 2.0)});
  }

  bench::Series eager_series{"TFE", {}};
  bench::Series retrace_series{"TFE retrace", {}};
  bench::Series while_series{"TFE + while", {}};
  bench::Series unrolled_series{"TFE + unrolled", {}};

  tfe::profiler::Counter* loop_iterations =
      tfe::profiler::Metrics().GetCounter("loop.iterations");
  tfe::profiler::Counter* loop_body_hits =
      tfe::profiler::Metrics().GetCounter("loop.body_cache_hit");
  uint64_t iters_before = loop_iterations->value();
  uint64_t hits_before = loop_body_hits->value();

  for (int64_t T : lengths) {
    Tensor sequence =
        ops::random_normal({kBatch, T, kInput}, 0, 1, /*seed=*/100 + T);
    Tensor length = ops::fill(tfe::DType::kInt32, {}, static_cast<double>(T));
    // Sequences (examples) processed per measured window: batch * iterations.
    const double examples = static_cast<double>(kBatch) * bench::kIterations;

    {
      auto step = [&] { tfe::models::UnrolledRnn(cell, sequence); };
      step();
      eager_series.examples_per_second.push_back(
          examples / bench::MeasureVirtualSeconds(step));
    }
    {
      // Per-iteration re-tracing: wrap the cell step in a fresh Function
      // each time step, so every iteration traces anew. No warm-up can
      // amortize it — the trace cost recurs inside the measured window.
      auto step = [&] {
        tfe::models::LSTMCell::State state = cell.ZeroState(kBatch);
        for (int64_t t = 0; t < T; ++t) {
          Tensor x = ops::reshape(
              ops::slice(sequence, {0, t, 0}, {-1, 1, -1}), {kBatch, kInput});
          tfe::Function step_fn = tfe::function(
              [&cell](const std::vector<Tensor>& args)
                  -> std::vector<Tensor> {
                auto next = cell(args[0], {args[1], args[2]});
                return {next.h, next.c};
              },
              "bench_rnn_retrace_step");
          std::vector<Tensor> out = step_fn({x, state.h, state.c});
          state = {out[0], out[1]};
        }
      };
      step();
      retrace_series.examples_per_second.push_back(
          examples / bench::MeasureVirtualSeconds(step));
    }
    {
      tfe::Function staged = tfe::function(
          [&cell, sequence](const std::vector<Tensor>& args)
              -> std::vector<Tensor> {
            return {tfe::models::DynamicRnn(cell, sequence, args[0])};
          },
          "bench_rnn_while");
      auto step = [&] { staged({length}); };
      step();  // trace once; the While node and its body now live in a graph
      while_series.examples_per_second.push_back(
          examples / bench::MeasureVirtualSeconds(step));
    }
    {
      tfe::Function staged = tfe::function(
          [&cell](const std::vector<Tensor>& args) -> std::vector<Tensor> {
            return {tfe::models::UnrolledRnn(cell, args[0])};
          },
          "bench_rnn_unrolled");
      auto step = [&] { staged({sequence}); };
      step();
      unrolled_series.examples_per_second.push_back(
          examples / bench::MeasureVirtualSeconds(step));
    }
    std::printf("  T=%-3lld done\n", static_cast<long long>(T));
  }

  uint64_t loop_iters = loop_iterations->value() - iters_before;
  uint64_t loop_hits = loop_body_hits->value() - hits_before;
  double hit_rate = loop_iters > 0
                        ? static_cast<double>(loop_hits) /
                              static_cast<double>(loop_iters)
                        : 0.0;

  bench::PrintTable("Sequences/second, LSTM over time (Python host model)",
                    "seq length", lengths,
                    {eager_series, retrace_series, while_series,
                     unrolled_series});

  const size_t last = lengths.size() - 1;
  double staged_vs_retrace = while_series.examples_per_second[last] /
                             retrace_series.examples_per_second[last];
  std::printf("\nstaged while vs per-call re-tracing at T=%lld: %.1fx\n",
              static_cast<long long>(lengths[last]), staged_vs_retrace);
  std::printf("loop body execution-variant hit rate: %.1f%% "
              "(%llu of %llu iterations)\n",
              100.0 * hit_rate, static_cast<unsigned long long>(loop_hits),
              static_cast<unsigned long long>(loop_iters));

  bench::JsonReport report("rnn");
  for (const bench::Series& s : {eager_series, retrace_series, while_series,
                                 unrolled_series}) {
    report.AddSeries(lengths, s);
  }
  report.Add("staged_vs_retrace_speedup", staged_vs_retrace);
  report.Add("loop_body_cache_hit_rate", hit_rate);
  report.Add("gate_staged_loop_3x", staged_vs_retrace >= 3.0 ? 1 : 0);
  report.Add("gate_body_cache_90", hit_rate >= 0.9 ? 1 : 0);
  report.AddProfilerMetrics();
  report.Write();
  return 0;
}
