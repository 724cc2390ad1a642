// Consolidation-trial prefix reuse in te::McfTe (docs/SOLVERS.md §6): a
// trial solve on the base graph minus some edges must equal a plain
// McfTe::solve on that reduced graph bit for bit — routings, path edges,
// weights, volumes, totals — and its trace must equal a fresh traced
// solve's, so an accepted trial can serve as the next base.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "graph/graph.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc::te {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Gbps;

struct Instance {
  graph::Graph graph;
  TrafficMatrix demands;
};

/// Seeded random network. Edge cost = base cost + phi(dst) - phi(src) for
/// random node potentials phi, so edges may be negative (Bellman-Ford
/// runs) while every cycle costs >= 0. Parallel "fake" copies of some
/// edges at a higher cost are appended after all others, as Algorithm 1
/// appends its headroom edges.
Instance make_instance(std::uint64_t seed, int nodes = 14,
                       bool negative = true) {
  util::Rng rng(seed);
  Instance instance;
  std::vector<double> phi(static_cast<std::size_t>(nodes), 0.0);
  for (int v = 0; v < nodes; ++v) {
    instance.graph.add_node("n" + std::to_string(v));
    if (negative) phi[static_cast<std::size_t>(v)] = rng.uniform(0.0, 3.0);
  }
  const auto cost = [&](int u, int v, double base) {
    return base + phi[static_cast<std::size_t>(v)] -
           phi[static_cast<std::size_t>(u)];
  };
  std::vector<std::pair<int, int>> links;
  for (int u = 0; u < nodes; ++u)
    for (int v = 0; v < nodes; ++v) {
      if (u == v || !rng.bernoulli(0.25)) continue;
      instance.graph.add_edge(NodeId{u}, NodeId{v},
                              Gbps{rng.uniform(10.0, 60.0)},
                              cost(u, v, rng.uniform(0.0, 2.0)),
                              rng.uniform(1.0, 5.0));
      links.emplace_back(u, v);
    }
  for (const auto& [u, v] : links) {
    if (!rng.bernoulli(0.4)) continue;
    instance.graph.add_edge(NodeId{u}, NodeId{v},
                            Gbps{rng.uniform(5.0, 40.0)},
                            cost(u, v, rng.uniform(2.0, 6.0)),
                            rng.uniform(1.0, 5.0));
  }
  for (int d = 0; d < 14; ++d) {
    const int src = static_cast<int>(rng.uniform_int(0, nodes - 1));
    int dst = static_cast<int>(rng.uniform_int(0, nodes - 2));
    if (dst >= src) ++dst;
    instance.demands.push_back(Demand{NodeId{src}, NodeId{dst},
                                      Gbps{rng.uniform(5.0, 40.0)},
                                      static_cast<int>(rng.uniform_int(0, 2))});
  }
  return instance;
}

/// `graph` minus `removed`, with the base -> reduced edge map.
struct Reduced {
  graph::Graph graph;
  std::vector<EdgeId> edge_map;
};

Reduced remove_edges(const graph::Graph& graph,
                     const std::set<std::int32_t>& removed) {
  Reduced reduced;
  for (NodeId node : graph.node_ids())
    reduced.graph.add_node(graph.node_name(node));
  for (EdgeId edge : graph.edge_ids()) {
    if (removed.contains(edge.value)) {
      reduced.edge_map.emplace_back();
      continue;
    }
    const graph::Edge& e = graph.edge(edge);
    reduced.edge_map.push_back(
        reduced.graph.add_edge(e.src, e.dst, e.capacity, e.cost, e.weight));
  }
  return reduced;
}

void expect_bitwise_equal(const FlowAssignment& expected,
                          const FlowAssignment& got) {
  ASSERT_EQ(expected.routings.size(), got.routings.size());
  for (std::size_t i = 0; i < expected.routings.size(); ++i) {
    const auto& a = expected.routings[i];
    const auto& b = got.routings[i];
    EXPECT_EQ(a.demand, b.demand) << "demand " << i;
    EXPECT_EQ(a.routed.value, b.routed.value) << "demand " << i;
    ASSERT_EQ(a.paths.size(), b.paths.size()) << "demand " << i;
    for (std::size_t p = 0; p < a.paths.size(); ++p) {
      EXPECT_EQ(a.paths[p].first.edges, b.paths[p].first.edges)
          << "demand " << i << " path " << p;
      EXPECT_EQ(a.paths[p].first.weight, b.paths[p].first.weight)
          << "demand " << i << " path " << p;
      EXPECT_EQ(a.paths[p].second.value, b.paths[p].second.value)
          << "demand " << i << " path " << p;
    }
  }
  EXPECT_EQ(expected.edge_load_gbps, got.edge_load_gbps);
  EXPECT_EQ(expected.total_routed.value, got.total_routed.value);
  EXPECT_EQ(expected.total_cost, got.total_cost);
}

std::uint64_t positive_demands(const TrafficMatrix& demands) {
  return static_cast<std::uint64_t>(
      std::count_if(demands.begin(), demands.end(), [](const Demand& d) {
        return d.volume.value > 0.0;
      }));
}

McfTe cold_engine() {
  McfTe::Options options;
  options.warm_start = false;
  return McfTe(options);
}

struct TrialOutcome {
  FlowAssignment assignment;
  SolveTrace trace;
};

/// Runs the trial of `base` on `graph` minus `removed` and checks it
/// against a plain solve and a fresh traced solve on the reduced graph.
TrialOutcome check_trial(const McfTe& engine, const Instance& instance,
                         const FlowAssignment& base_assignment,
                         const SolveTrace& base_trace,
                         const std::set<std::int32_t>& removed) {
  const Reduced reduced = remove_edges(instance.graph, removed);
  const TrialBase base{base_assignment, base_trace, reduced.edge_map};
  TrialOutcome trial;
  trial.assignment = engine.solve_traced(reduced.graph, instance.demands,
                                         &base, trial.trace);

  const McfTe reference = cold_engine();
  expect_bitwise_equal(reference.solve(reduced.graph, instance.demands),
                       trial.assignment);
  SolveTrace fresh;
  reference.solve_traced(reduced.graph, instance.demands, nullptr, fresh);
  EXPECT_EQ(fresh.first_won, trial.trace.first_won);
  EXPECT_EQ(trial.trace.demands_reused + trial.trace.demands_solved,
            positive_demands(instance.demands));
  return trial;
}

TEST(McfTrial, MatchesReducedSolveOnRandomNetworks) {
  std::uint64_t reused = 0;
  std::uint64_t solved = 0;
  bool negative_won = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Instance instance = make_instance(seed);
    const McfTe engine = cold_engine();
    SolveTrace trace;
    const FlowAssignment base =
        engine.solve_traced(instance.graph, instance.demands, nullptr, trace);
    expect_bitwise_equal(engine.solve(instance.graph, instance.demands),
                         base);
    ASSERT_EQ(trace.first_won.size(), instance.graph.edge_count());
    for (EdgeId edge : instance.graph.edge_ids())
      if (instance.graph.edge(edge).cost < 0.0 &&
          trace.first_won[static_cast<std::size_t>(edge.value)] !=
              SolveTrace::kNever)
        negative_won = true;

    util::Rng pick(seed * 7919);
    const auto random_edge = [&]() {
      return static_cast<std::int32_t>(pick.uniform_int(
          0, static_cast<std::int64_t>(instance.graph.edge_count()) - 1));
    };
    for (int round = 0; round < 4; ++round) {
      std::set<std::int32_t> removed;
      const int count = 1 + round % 3;
      while (static_cast<int>(removed.size()) < count)
        removed.insert(random_edge());
      SCOPED_TRACE("seed " + std::to_string(seed) + " round " +
                   std::to_string(round));
      const TrialOutcome trial =
          check_trial(engine, instance, base, trace, removed);
      reused += trial.trace.demands_reused;
      solved += trial.trace.demands_solved;

      // Chained trial: the accepted trial's trace is the next base.
      if (round == 0) {
        std::set<std::int32_t> next = removed;
        next.insert(random_edge());
        const Reduced first = remove_edges(instance.graph, removed);
        const Reduced second = remove_edges(instance.graph, next);
        std::vector<EdgeId> chain(first.graph.edge_count());
        for (std::size_t e = 0; e < first.edge_map.size(); ++e)
          if (first.edge_map[e].valid())
            chain[static_cast<std::size_t>(first.edge_map[e].value)] =
                second.edge_map[e];
        const TrialBase from_trial{trial.assignment, trial.trace, chain};
        SolveTrace chained;
        expect_bitwise_equal(
            cold_engine().solve(second.graph, instance.demands),
            engine.solve_traced(second.graph, instance.demands, &from_trial,
                                chained));
      }
    }
  }
  // Non-vacuous: the trials reused work, solved work, and Bellman-Ford ran.
  EXPECT_GT(reused, 0u);
  EXPECT_GT(solved, 0u);
  EXPECT_TRUE(negative_won);
}

TEST(McfTrial, RemovedEdgeWonAtPositionZeroReusesNothing) {
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const Instance instance = make_instance(seed);
    const McfTe engine = cold_engine();
    SolveTrace trace;
    const FlowAssignment base =
        engine.solve_traced(instance.graph, instance.demands, nullptr, trace);
    const auto first = std::find(trace.first_won.begin(),
                                 trace.first_won.end(), 0u);
    ASSERT_NE(first, trace.first_won.end());
    const std::set<std::int32_t> removed{
        static_cast<std::int32_t>(first - trace.first_won.begin())};
    const TrialOutcome trial =
        check_trial(engine, instance, base, trace, removed);
    EXPECT_EQ(trial.trace.demands_reused, 0u);
  }
}

TEST(McfTrial, RemovedEdgeNeverWonReusesEverything) {
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    Instance instance = make_instance(seed);
    // An edge out of a node nothing reaches never wins a relaxation.
    // A negative one still counts as won by every solve that runs
    // Bellman-Ford, since removing it could switch Bellman-Ford off.
    const NodeId orphan = instance.graph.add_node("orphan");
    const EdgeId dead = instance.graph.add_edge(orphan, NodeId{0},
                                                Gbps{50.0}, 1.0, 1.0);
    const EdgeId negative = instance.graph.add_edge(orphan, NodeId{1},
                                                    Gbps{50.0}, -1.0, 1.0);
    const McfTe engine = cold_engine();
    SolveTrace trace;
    const FlowAssignment base =
        engine.solve_traced(instance.graph, instance.demands, nullptr, trace);
    ASSERT_EQ(trace.first_won[static_cast<std::size_t>(dead.value)],
              SolveTrace::kNever);
    ASSERT_EQ(trace.first_won[static_cast<std::size_t>(negative.value)], 0u);
    const TrialOutcome trial =
        check_trial(engine, instance, base, trace, {dead.value});
    EXPECT_EQ(trial.trace.demands_reused, positive_demands(instance.demands));
    EXPECT_EQ(trial.trace.demands_solved, 0u);
    const TrialOutcome without_negative =
        check_trial(engine, instance, base, trace, {negative.value});
    EXPECT_EQ(without_negative.trace.demands_reused, 0u);
  }
}

TEST(McfTrial, ReuseStopsAtTheFirstWarmReplayedDemand) {
  // Two disjoint random components A (nodes 0..13) and B (14..27).
  // Demand 0 goes A -> B and routes nothing: its cold solve explores A
  // only. A warm engine first solves the matrix with a different demand 0;
  // the traced solve then runs demand 0 cold and replays every later
  // demand from the cache (their networks recur bit for bit), and a
  // replayed solve counts every edge as won.
  const Instance a = make_instance(50, 14, true);
  const Instance b = make_instance(51, 14, true);
  Instance instance;
  for (int v = 0; v < 28; ++v) instance.graph.add_node("n" + std::to_string(v));
  for (const auto* part : {&a, &b}) {
    const int offset = part == &a ? 0 : 14;
    for (EdgeId edge : part->graph.edge_ids()) {
      const graph::Edge& e = part->graph.edge(edge);
      instance.graph.add_edge(NodeId{e.src.value + offset},
                              NodeId{e.dst.value + offset}, e.capacity,
                              e.cost, e.weight);
    }
  }
  // An edge no cold solve can win: it leaves a node nothing reaches.
  const NodeId orphan = instance.graph.add_node("orphan");
  const EdgeId dead =
      instance.graph.add_edge(orphan, NodeId{14}, Gbps{50.0}, 1.0, 1.0);
  instance.demands.push_back(Demand{NodeId{0}, NodeId{14}, Gbps{10.0}, 0});
  for (Demand demand : b.demands) {
    demand.src.value += 14;
    demand.dst.value += 14;
    demand.priority = 0;
    instance.demands.push_back(demand);
  }

  const McfTe engine;  // warm start on
  TrafficMatrix warmup = instance.demands;
  warmup[0].src = NodeId{1};
  engine.solve(instance.graph, warmup);
  SolveTrace trace;
  const FlowAssignment base =
      engine.solve_traced(instance.graph, instance.demands, nullptr, trace);
  for (std::uint32_t won_at : trace.first_won) EXPECT_LE(won_at, 1u);
  ASSERT_EQ(trace.first_won[static_cast<std::size_t>(dead.value)], 1u);

  const TrialOutcome trial =
      check_trial(engine, instance, base, trace, {dead.value});
  EXPECT_EQ(trial.trace.demands_reused, 1u);
  EXPECT_EQ(trial.trace.demands_solved,
            positive_demands(instance.demands) - 1);
}

TEST(McfTrial, ArmedFaultPlanRunsAFullSolveWithoutTrace) {
  const Instance instance = make_instance(60);
  const McfTe engine = cold_engine();
  SolveTrace trace;
  const FlowAssignment base =
      engine.solve_traced(instance.graph, instance.demands, nullptr, trace);
  const Reduced reduced = remove_edges(instance.graph, {0});
  const fault::ScopedPlan plan(
      fault::FaultPlan::parse("flow.mincost%4@1:budget=3"));
  const FlowAssignment expected =
      engine.solve(reduced.graph, instance.demands);
  const TrialBase from{base, trace, reduced.edge_map};
  SolveTrace trial_trace;
  expect_bitwise_equal(expected,
                       engine.solve_traced(reduced.graph, instance.demands,
                                           &from, trial_trace));
  EXPECT_TRUE(trial_trace.empty());
}

}  // namespace
}  // namespace rwc::te
