#include "te/mcf_te.hpp"

#include <algorithm>
#include <numeric>

#include "fault/registry.hpp"
#include "flow/decompose.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace rwc::te {

using util::Gbps;

FlowAssignment McfTe::solve(const graph::Graph& graph,
                            const TrafficMatrix& demands) const {
  return run(graph, demands, nullptr, nullptr);
}

FlowAssignment McfTe::solve_traced(const graph::Graph& graph,
                                   const TrafficMatrix& demands,
                                   const TrialBase* base,
                                   SolveTrace& trace) const {
  if (base != nullptr && fault::Registry::global().armed()) {
    trace = SolveTrace{};
    return run(graph, demands, nullptr, nullptr);
  }
  return run(graph, demands, base, &trace);
}

FlowAssignment McfTe::run(const graph::Graph& graph,
                          const TrafficMatrix& demands, const TrialBase* base,
                          SolveTrace* trace) const {
  static auto& solves = obs::Registry::global().counter("te.mcf.solves");
  static auto& seconds =
      obs::Registry::global().histogram("te.mcf.solve_seconds");
  solves.add();
  obs::ScopedTimer timer(seconds);

  FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];

  // Serve demands by priority (desc), then input order.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].priority > demands[b].priority;
                   });

  std::vector<double> remaining(graph.edge_count());
  for (graph::EdgeId edge : graph.edge_ids())
    remaining[static_cast<std::size_t>(edge.value)] =
        graph.edge(edge).capacity.value;

  std::size_t first_solved = 0;  // positions before it are copied
  if (trace != nullptr) {
    *trace = SolveTrace{};
    trace->first_won.assign(graph.edge_count(), SolveTrace::kNever);
  }
  if (base != nullptr) {
    RWC_EXPECTS(trace != nullptr);
    RWC_EXPECTS(base->edge_map.size() == base->trace.first_won.size());
    RWC_EXPECTS(base->assignment.routings.size() == demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i)
      RWC_EXPECTS(base->assignment.routings[i].demand == demands[i]);
    // A demand solve is bit-identical on the trial graph until a removed
    // edge has won a relaxation (flow::min_cost_max_flow, `won`).
    first_solved = order.size();
    std::int32_t last_kept = -1;
    for (std::size_t e = 0; e < base->edge_map.size(); ++e) {
      const std::uint32_t won_at = base->trace.first_won[e];
      const graph::EdgeId to = base->edge_map[e];
      if (!to.valid()) {
        first_solved = std::min<std::size_t>(first_solved, won_at);
        continue;
      }
      RWC_EXPECTS(to.value > last_kept);  // relative order kept
      last_kept = to.value;
      trace->first_won[static_cast<std::size_t>(to.value)] = won_at;
    }
    RWC_EXPECTS(static_cast<std::size_t>(last_kept + 1) ==
                graph.edge_count());
    // Positions from first_solved on are re-solved and re-traced.
    for (std::uint32_t& won_at : trace->first_won)
      if (won_at != SolveTrace::kNever && won_at >= first_solved)
        won_at = SolveTrace::kNever;

    // Copy the prefix's routings onto trial edge ids and replay their
    // capacity subtractions in the original order, so `remaining` matches
    // a full solve's bit for bit.
    for (std::size_t position = 0; position < first_solved; ++position) {
      const std::size_t index = order[position];
      const auto& from = base->assignment.routings[index];
      if (demands[index].volume.value <= flow::kFlowEps) continue;
      auto& routing = result.routings[index];
      for (const auto& [base_path, volume] : from.paths) {
        graph::Path path;
        path.weight = base_path.weight;
        path.edges.reserve(base_path.edges.size());
        for (graph::EdgeId edge : base_path.edges) {
          const graph::EdgeId to =
              base->edge_map[static_cast<std::size_t>(edge.value)];
          RWC_CHECK_MSG(to.valid(), "reused demand routes a removed edge");
          path.edges.push_back(to);
          remaining[static_cast<std::size_t>(to.value)] -= volume.value;
        }
        routing.paths.emplace_back(std::move(path), volume);
      }
      ++trace->demands_reused;
    }
  }

  // One network per call, arc pair i = edge i. Before each demand it is
  // reset to the remaining capacities, which leaves it bit-identical to a
  // fresh build against them.
  flow::ResidualNetwork net(graph.node_count());
  for (graph::EdgeId edge : graph.edge_ids()) {
    const graph::Edge& e = graph.edge(edge);
    net.add_arc(e.src.value, e.dst.value, 0.0, e.cost);
  }
  std::vector<std::uint8_t> won;
  for (std::size_t position = first_solved; position < order.size();
       ++position) {
    const std::size_t index = order[position];
    const Demand& demand = demands[index];
    RWC_EXPECTS(demand.volume.value >= 0.0);
    if (demand.volume.value <= flow::kFlowEps) continue;
    RWC_EXPECTS(demand.src != demand.dst);

    net.set_capacities(remaining);
    std::vector<std::uint8_t>* won_out = trace != nullptr ? &won : nullptr;
    if (options_.warm_start && base == nullptr) {
      // Exact record/replay keyed by the network fingerprint; replay is
      // bit-identical to the cold solve (see flow/mincost.hpp). On an
      // exact miss, a structurally matching recording (same arcs, costs,
      // terminals; perturbed residuals — the dirty-link case) feeds the
      // solver's verified partial-repair path instead of solving cold.
      const flow::NetworkFingerprints prints = flow::network_fingerprints(
          net, demand.src.value, demand.dst.value);
      auto cached = warm_cache_.find(prints.exact);
      if (cached == nullptr && options_.partial_repair) {
        cached = warm_cache_.find_structural(prints.structural);
        // A structural hit that resolves to this exact network would turn
        // a forced exact-miss into a replay; treat it as absent.
        if (cached != nullptr && cached->fingerprint == prints.exact)
          cached = nullptr;
      }
      flow::MinCostWarmStart warm;
      if (cached != nullptr) warm = *cached;
      min_cost_max_flow(net, demand.src.value, demand.dst.value,
                        demand.volume.value, &warm,
                        flow::kDefaultMaxAugmentations, won_out);
      // Re-store when the recording now describes THIS network (cold
      // re-record, verified repair, or resumed extension) and is new or
      // changed; a pure replay and a prefix-bound repair (the recording
      // still carries the old fingerprint) leave the cache untouched.
      if (warm.fingerprint == prints.exact &&
          (cached == nullptr || cached->fingerprint != prints.exact ||
           warm.augmentations.size() != cached->augmentations.size() ||
           warm.exhausted != cached->exhausted)) {
        warm_cache_.store(
            std::make_shared<flow::MinCostWarmStart>(std::move(warm)));
      }
    } else {
      min_cost_max_flow(net, demand.src.value, demand.dst.value,
                        demand.volume.value, nullptr,
                        flow::kDefaultMaxAugmentations, won_out);
    }
    if (trace != nullptr) {
      // Arc pair i is edge i.
      for (std::size_t edge = 0; edge < won.size(); ++edge)
        if (won[edge] != 0 && trace->first_won[edge] == SolveTrace::kNever)
          trace->first_won[edge] = static_cast<std::uint32_t>(position);
      ++trace->demands_solved;
    }

    // Arc index order matches edge id order: arc 2*i is edge i.
    const auto decomposition =
        flow::decompose_flow(net, demand.src.value, demand.dst.value);
    auto& routing = result.routings[index];
    for (const flow::PathFlow& pf : decomposition.paths) {
      graph::Path path;
      for (int arc : pf.arcs) {
        const graph::EdgeId edge{arc / 2};
        path.edges.push_back(edge);
        path.weight += graph.edge(edge).weight;
        remaining[static_cast<std::size_t>(edge.value)] -= pf.amount;
      }
      routing.paths.emplace_back(std::move(path), Gbps{pf.amount});
    }
  }
  finalize_assignment(graph, result);
  return result;
}

}  // namespace rwc::te
