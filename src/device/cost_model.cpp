#include "device/cost_model.h"

#include <algorithm>
#include <cmath>

namespace tfe {

namespace {

double TotalElements(const std::vector<Shape>& shapes) {
  double total = 0;
  for (const Shape& shape : shapes) {
    if (shape.IsFullyDefined()) {
      total += static_cast<double>(shape.num_elements());
    }
  }
  return total;
}

}  // namespace

OpCost EstimateOpCost(OpCostClass cost_class,
                      const std::vector<Shape>& input_shapes,
                      const std::vector<Shape>& output_shapes,
                      size_t dtype_size) {
  OpCost cost;
  const double in_elems = TotalElements(input_shapes);
  const double out_elems = TotalElements(output_shapes);
  cost.bytes = (in_elems + out_elems) * static_cast<double>(dtype_size);

  switch (cost_class) {
    case OpCostClass::kMatMul:
      // [m,k] x [k,n] -> [m,n]: 2*m*n*k FLOPs. Transposes do not change it.
      if (input_shapes.size() >= 2 && input_shapes[0].rank() == 2 &&
          output_shapes.size() >= 1 && output_shapes[0].rank() == 2 &&
          input_shapes[0].IsFullyDefined() &&
          output_shapes[0].IsFullyDefined()) {
        double m = static_cast<double>(output_shapes[0].dim(0));
        double n = static_cast<double>(output_shapes[0].dim(1));
        double k0 = static_cast<double>(input_shapes[0].dim(0));
        double k1 = static_cast<double>(input_shapes[0].dim(1));
        // The contraction dim is whichever input-0 dim is not an output dim.
        double k = (k0 == m) ? k1 : k0;
        cost.flops = 2.0 * m * n * k;
      } else {
        cost.flops = out_elems * 128;  // partial shapes: coarse fallback
      }
      return cost;
    case OpCostClass::kConv2D:
    case OpCostClass::kConv2DBackpropInput:
    case OpCostClass::kConv2DBackpropFilter: {
      // All three conv variants perform the same MAC count:
      //   2 * |output activations| * (kh * kw * cin).
      // Locate the filter [kh,kw,cin,cout] and the output-activation volume
      // for each variant (forward: output; backprops: the dy operand).
      const Shape* filter = nullptr;
      const Shape* activations = nullptr;
      if (cost_class == OpCostClass::kConv2D && input_shapes.size() >= 2 &&
          !output_shapes.empty()) {
        filter = &input_shapes[1];
        activations = &output_shapes[0];
      } else if (cost_class == OpCostClass::kConv2DBackpropInput &&
                 input_shapes.size() >= 2) {
        filter = &input_shapes[0];
        activations = &input_shapes[1];  // dy
      } else if (cost_class == OpCostClass::kConv2DBackpropFilter &&
                 input_shapes.size() >= 2 && !output_shapes.empty()) {
        filter = &output_shapes[0];      // filter gradient
        activations = &input_shapes[1];  // dy
      }
      if (filter != nullptr && filter->rank() == 4 &&
          filter->IsFullyDefined() && activations != nullptr &&
          activations->IsFullyDefined()) {
        double window = static_cast<double>(filter->dim(0)) *
                        filter->dim(1) * filter->dim(2);
        cost.flops =
            2.0 * static_cast<double>(activations->num_elements()) * window;
      } else {
        cost.flops = out_elems * 256;
      }
      return cost;
    }
    case OpCostClass::kBatchNorm:
      cost.flops = (in_elems + out_elems) * 4;
      return cost;
    case OpCostClass::kSoftmax:
      cost.flops = in_elems * 6;
      return cost;
    case OpCostClass::kPool:
      cost.flops = in_elems * 2;
      return cost;
    case OpCostClass::kTranscendental:
      cost.flops = std::max(in_elems, out_elems) * 8;
      return cost;
    case OpCostClass::kElementwise:
      break;
  }
  cost.flops = std::max(out_elems, 1.0);
  return cost;
}

uint64_t KernelTimeNs(const OpCost& cost, const DeviceCostParams& params,
                      bool compiled) {
  double compute_s =
      cost.flops / (params.flops_per_second * params.efficiency);
  double memory_s = cost.bytes / params.bytes_per_second;
  double roofline_s = std::max(compute_s, memory_s);
  if (compiled) roofline_s *= params.fused_discount;
  double total_ns = roofline_s * 1e9 + static_cast<double>(
                                           params.kernel_launch_ns);
  if (!compiled) total_ns += static_cast<double>(params.eager_dispatch_ns);
  return static_cast<uint64_t>(total_ns);
}

}  // namespace tfe
