#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace rwc::sim {

using util::Gbps;

te::TrafficMatrix gravity_matrix(const graph::Graph& graph,
                                 const GravityParams& params,
                                 util::Rng& rng) {
  RWC_EXPECTS(params.total.value >= 0.0);
  RWC_EXPECTS(params.sparsity >= 0.0 && params.sparsity < 1.0);
  const std::size_t n = graph.node_count();
  RWC_EXPECTS(n >= 2);

  std::vector<double> mass(n, 1.0);
  if (params.mass_log_sigma > 0.0)
    for (double& m : mass) m = rng.lognormal(0.0, params.mass_log_sigma);

  // One slot per ordered pair, exact without sparsity: growing by doubling
  // leaves up to half the matrix's capacity unused while callers keep it.
  te::TrafficMatrix demands;
  demands.reserve(n * (n - 1));
  double weight_sum = 0.0;
  std::vector<double> weights;
  weights.reserve(n * (n - 1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (params.sparsity > 0.0 && rng.bernoulli(params.sparsity)) continue;
      const double w = mass[i] * mass[j];
      weights.push_back(w);
      weight_sum += w;
      demands.push_back(te::Demand{
          graph::NodeId{static_cast<std::int32_t>(i)},
          graph::NodeId{static_cast<std::int32_t>(j)},
          Gbps{0.0},
          params.priority,
      });
    }
  }
  RWC_CHECK(weight_sum > 0.0);
  for (std::size_t k = 0; k < demands.size(); ++k)
    demands[k].volume = Gbps{params.total.value * weights[k] / weight_sum};
  return demands;
}

te::TrafficMatrix scale_matrix(const te::TrafficMatrix& base, double factor) {
  RWC_EXPECTS(factor >= 0.0);
  te::TrafficMatrix scaled = base;
  for (te::Demand& d : scaled) d.volume = d.volume * factor;
  return scaled;
}

te::TrafficMatrix demand_aware_matrix(const graph::Graph& graph,
                                      const DemandAwareParams& params,
                                      util::Rng& rng) {
  RWC_EXPECTS(params.total.value >= 0.0);
  RWC_EXPECTS(params.elephant_share >= 0.0 && params.elephant_share <= 1.0);
  RWC_EXPECTS(params.sparsity >= 0.0 && params.sparsity < 1.0);
  const std::size_t n = graph.node_count();
  RWC_EXPECTS(n >= 2);

  te::TrafficMatrix demands;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      demands.push_back(te::Demand{
          graph::NodeId{static_cast<std::int32_t>(i)},
          graph::NodeId{static_cast<std::int32_t>(j)},
          Gbps{0.0},
          params.priority,
      });
    }

  // Draw the elephant pairs without replacement (partial Fisher-Yates on
  // the pair indices).
  const std::size_t pairs = demands.size();
  const std::size_t elephants = std::min(params.elephants, pairs);
  std::vector<std::size_t> order(pairs);
  for (std::size_t k = 0; k < pairs; ++k) order[k] = k;
  for (std::size_t k = 0; k < elephants; ++k) {
    const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(k), static_cast<std::int64_t>(pairs - 1)));
    std::swap(order[k], order[pick]);
  }

  // Zipf weights among the elephants.
  double zipf_sum = 0.0;
  std::vector<double> zipf(elephants, 0.0);
  for (std::size_t k = 0; k < elephants; ++k) {
    zipf[k] = std::pow(static_cast<double>(k + 1), -params.skew);
    zipf_sum += zipf[k];
  }
  const double elephant_total =
      elephants > 0 ? params.total.value * params.elephant_share : 0.0;
  for (std::size_t k = 0; k < elephants; ++k)
    demands[order[k]].volume = Gbps{elephant_total * zipf[k] / zipf_sum};

  // Mouse background: surviving non-elephant pairs split the remainder.
  std::vector<std::size_t> mice;
  for (std::size_t k = elephants; k < pairs; ++k)
    if (!(params.sparsity > 0.0 && rng.bernoulli(params.sparsity)))
      mice.push_back(order[k]);
  const double mouse_total = params.total.value - elephant_total;
  if (!mice.empty() && mouse_total > 0.0) {
    const double each = mouse_total / static_cast<double>(mice.size());
    for (const std::size_t k : mice) demands[k].volume = Gbps{each};
  }
  return demands;
}

te::TrafficMatrix rotate_elephants(const te::TrafficMatrix& base,
                                   std::size_t epoch, std::size_t step) {
  if (epoch == 0 || base.empty()) return base;
  const std::size_t shift = (epoch * step) % base.size();
  te::TrafficMatrix rotated = base;
  for (std::size_t k = 0; k < base.size(); ++k)
    rotated[(k + shift) % base.size()].volume = base[k].volume;
  return rotated;
}

double diurnal_factor(util::Seconds t, double trough, double peak_hour) {
  RWC_EXPECTS(trough >= 0.0 && trough <= 1.0);
  const double hour = std::fmod(t / util::kHour, 24.0);
  const double phase =
      2.0 * std::numbers::pi * (hour - peak_hour) / 24.0;
  // cos(phase) = 1 at the peak hour.
  return trough + (1.0 - trough) * 0.5 * (1.0 + std::cos(phase));
}

}  // namespace rwc::sim
