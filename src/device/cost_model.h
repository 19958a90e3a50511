// Analytic (roofline) kernel cost model for the simulated accelerators.
//
// The paper's Figure 3 / Table 1 numbers come from real hardware we do not
// have (GTX 1080, Cloud TPU). We reproduce their *shape* mechanistically:
// per-op FLOP and byte counts are derived from the op and its shapes, and a
// device converts them to virtual nanoseconds via a roofline
//   t = launch + max(flops / (peak_flops * efficiency), bytes / bandwidth).
// DESIGN.md §2 documents this substitution; EXPERIMENTS.md records the
// calibrated constants.
#ifndef TFE_DEVICE_COST_MODEL_H_
#define TFE_DEVICE_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "tensor/shape.h"

namespace tfe {

struct OpCost {
  double flops = 0;  // floating-point operations
  double bytes = 0;  // memory traffic (reads + writes)
};

// Per-device roofline and dispatch-path constants.
struct DeviceCostParams {
  double flops_per_second = 1e12;
  double bytes_per_second = 1e11;
  double efficiency = 1.0;          // achieved fraction of peak FLOPs
  uint64_t kernel_launch_ns = 0;    // fixed per-kernel device overhead
  uint64_t executor_node_ns = 0;    // staged runtime per-node overhead
  // Eager extras (paper §4.4: per-op TPU compile & dispatch are expensive):
  uint64_t eager_dispatch_ns = 0;   // device-side per-op eager dispatch
  uint64_t per_op_compile_ns = 0;   // one-time per op signature (TPU)
  double fused_discount = 1.0;      // staged whole-function compilation gain
  // Async devices: fraction of each kernel's time the *eager* host also
  // pays (imperfect pipelining — the interpreter cannot enqueue
  // unboundedly far ahead). Staged execution is not affected.
  double eager_host_sync_fraction = 0.0;
  // Fixed cost per compiled whole-function invocation (host->accelerator
  // launch + infeed/outfeed round trip). Paper's Table 1 implies ~40 ms per
  // TPU step at batch 1.
  uint64_t compiled_call_overhead_ns = 0;
};

// The formula that prices an op (OpDef::cost, set where the op is
// registered). Every class counts bytes as inputs + outputs.
enum class OpCostClass {
  kElementwise,     // one FLOP per output element; also data movement
  kTranscendental,  // exp/log/trig/pow/random: 8 FLOPs per element
  kMatMul,          // 2*m*n*k
  kConv2D,          // 2 * |output| * kh*kw*cin
  kConv2DBackpropInput,   // the same MAC count, read off filter and dy
  kConv2DBackpropFilter,  // the same MAC count, read off dfilter and dy
  kBatchNorm,       // 4 FLOPs per input and output element
  kSoftmax,         // exp + reductions: 6 FLOPs per input element
  kPool,            // 2 FLOPs per input element
};

// Estimates FLOPs/bytes for one execution of an op of `cost_class` from its
// shapes.
OpCost EstimateOpCost(OpCostClass cost_class,
                      const std::vector<Shape>& input_shapes,
                      const std::vector<Shape>& output_shapes,
                      size_t dtype_size);

// Roofline conversion. `compiled` applies the fused discount (staged
// whole-function execution) and skips eager dispatch overhead.
uint64_t KernelTimeNs(const OpCost& cost, const DeviceCostParams& params,
                      bool compiled);

}  // namespace tfe

#endif  // TFE_DEVICE_COST_MODEL_H_
