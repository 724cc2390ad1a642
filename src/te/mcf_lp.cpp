#include "te/mcf_lp.hpp"

#include <set>

#include "flow/decompose.hpp"
#include "flow/network.hpp"
#include "lp/simplex.hpp"
#include "util/check.hpp"

namespace rwc::te {

using util::Gbps;

FlowAssignment McfLpTe::solve(const graph::Graph& graph,
                              const TrafficMatrix& demands) const {
  FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];

  const int edges = static_cast<int>(graph.edge_count());
  const int commodities = static_cast<int>(demands.size());
  if (edges == 0 || commodities == 0) {
    finalize_assignment(graph, result);
    return result;
  }
  auto var = [&](int k, int e) { return k * edges + e; };

  // Net outflow of commodity k at its source, as LP terms.
  auto source_terms = [&](int k) {
    std::vector<lp::Term> terms;
    const graph::NodeId src = demands[static_cast<std::size_t>(k)].src;
    for (graph::EdgeId e : graph.out_edges(src))
      terms.push_back({var(k, e.value), 1.0});
    for (graph::EdgeId e : graph.in_edges(src))
      terms.push_back({var(k, e.value), -1.0});
    return terms;
  };

  auto add_shared = [&](lp::LpProblem& problem) {
    // Conservation at interior nodes, per commodity.
    for (int k = 0; k < commodities; ++k) {
      const Demand& demand = demands[static_cast<std::size_t>(k)];
      RWC_EXPECTS(demand.src != demand.dst);
      for (graph::NodeId node : graph.node_ids()) {
        if (node == demand.src || node == demand.dst) continue;
        std::vector<lp::Term> terms;
        for (graph::EdgeId e : graph.out_edges(node))
          terms.push_back({var(k, e.value), 1.0});
        for (graph::EdgeId e : graph.in_edges(node))
          terms.push_back({var(k, e.value), -1.0});
        if (!terms.empty())
          problem.add_constraint(std::move(terms), lp::Relation::kEqual, 0.0);
      }
      // 0 <= served_k <= volume_k.
      problem.add_constraint(source_terms(k), lp::Relation::kLessEqual,
                             demand.volume.value);
      problem.add_constraint(source_terms(k), lp::Relation::kGreaterEqual,
                             0.0);
    }
    // Shared edge capacities.
    for (graph::EdgeId e : graph.edge_ids()) {
      std::vector<lp::Term> terms;
      for (int k = 0; k < commodities; ++k)
        terms.push_back({var(k, e.value), 1.0});
      problem.add_constraint(std::move(terms), lp::Relation::kLessEqual,
                             graph.edge(e).capacity.value);
    }
  };

  std::set<int, std::greater<>> classes;
  for (const Demand& d : demands) classes.insert(d.priority);
  std::vector<std::pair<int, double>> locked;

  auto add_locked = [&](lp::LpProblem& problem) {
    for (const auto& [priority, throughput] : locked) {
      std::vector<lp::Term> terms;
      for (int k = 0; k < commodities; ++k)
        if (demands[static_cast<std::size_t>(k)].priority == priority)
          for (const lp::Term& t : source_terms(k)) terms.push_back(t);
      if (!terms.empty())
        problem.add_constraint(std::move(terms),
                               lp::Relation::kGreaterEqual,
                               throughput - 1e-7);
    }
  };

  for (int priority : classes) {
    lp::LpProblem maximize(lp::Sense::kMaximize);
    std::vector<double> objective(
        static_cast<std::size_t>(commodities * edges), 0.0);
    for (int k = 0; k < commodities; ++k) {
      if (demands[static_cast<std::size_t>(k)].priority != priority)
        continue;
      for (const lp::Term& t : source_terms(k))
        objective[static_cast<std::size_t>(t.variable)] += t.coefficient;
    }
    for (double c : objective) maximize.add_variable(c);
    add_shared(maximize);
    add_locked(maximize);
    const auto solution = maximize.solve();
    RWC_CHECK_MSG(solution.optimal(), "mcf-lp throughput pass not optimal");
    locked.emplace_back(priority, solution.objective);
  }

  // Final pass: minimize cost at the locked throughputs.
  lp::LpProblem minimize(lp::Sense::kMinimize);
  for (int k = 0; k < commodities; ++k)
    for (graph::EdgeId e : graph.edge_ids())
      minimize.add_variable(graph.edge(e).cost);
  add_shared(minimize);
  add_locked(minimize);
  const auto solution = minimize.solve();
  RWC_CHECK_MSG(solution.optimal(), "mcf-lp cost pass not optimal");

  // Extract per-commodity edge flows; decompose into paths.
  for (int k = 0; k < commodities; ++k) {
    flow::ResidualNetwork net(graph.node_count());
    for (graph::EdgeId e : graph.edge_ids()) {
      const double f = solution.values[static_cast<std::size_t>(
          var(k, e.value))];
      const graph::Edge& edge = graph.edge(e);
      const int arc =
          net.add_arc(edge.src.value, edge.dst.value, std::max(0.0, f));
      net.push(arc, std::max(0.0, f));  // saturate: flow == capacity
    }
    const Demand& demand = demands[static_cast<std::size_t>(k)];
    const auto decomposition =
        flow::decompose_flow(net, demand.src.value, demand.dst.value);
    for (const flow::PathFlow& pf : decomposition.paths) {
      if (pf.amount <= 1e-7) continue;
      graph::Path path;
      for (int arc : pf.arcs) {
        const graph::EdgeId edge{arc / 2};
        path.edges.push_back(edge);
        path.weight += graph.edge(edge).weight;
      }
      result.routings[static_cast<std::size_t>(k)].paths.emplace_back(
          std::move(path), Gbps{pf.amount});
    }
  }
  finalize_assignment(graph, result);
  return result;
}

}  // namespace rwc::te
