// Consolidation-trial prefix reuse in te::McfTe (docs/SOLVERS.md §6): a
// trial solve on the base graph minus some edges must equal a plain
// McfTe::solve on that reduced graph bit for bit — routings, path edges,
// weights, volumes, totals — and its trace must equal a fresh traced
// solve's, so an accepted trial can serve as the next base.
//
// The McfTrial.*FreshNetworkReference tests are a differential oracle for
// McfTe's one-network-per-call loop: a test-local loop that builds a fresh
// flow::ResidualNetwork for every demand must give the same routings,
// traces and warm recordings, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "flow/decompose.hpp"
#include "flow/mincost.hpp"
#include "graph/graph.hpp"
#include "obs/registry.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
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

/// A 16-18-node Waxman WAN as consolidation sees it: zero-cost links, then
/// a costlier parallel headroom edge per link appended after all of them,
/// and a gravity matrix (two priority classes) large enough to spill onto
/// the headroom.
Instance make_wan(std::uint64_t seed, int nodes) {
  util::Rng rng(seed);
  const graph::Graph topology = sim::waxman(nodes, rng);
  Instance instance;
  for (NodeId node : topology.node_ids())
    instance.graph.add_node(topology.node_name(node));
  for (EdgeId edge : topology.edge_ids()) {
    const graph::Edge& e = topology.edge(edge);
    instance.graph.add_edge(e.src, e.dst, e.capacity, 0.0, e.weight);
  }
  for (EdgeId edge : topology.edge_ids()) {
    const graph::Edge& e = topology.edge(edge);
    instance.graph.add_edge(e.src, e.dst, Gbps{e.capacity.value * 0.5},
                            rng.uniform(1.0, 4.0), e.weight);
  }
  sim::GravityParams gravity;
  gravity.total = Gbps{topology.total_capacity().value * 0.8};
  instance.demands = sim::gravity_matrix(topology, gravity, rng);
  for (Demand& demand : instance.demands)
    demand.priority = static_cast<int>(rng.uniform_int(0, 1));
  return instance;
}

/// McfTe's per-demand loop as it was before the engine reused one network
/// per call: a fresh network against the remaining capacities for every
/// demand. With `cache`, it records and replays (exact, then partial
/// repair) through that cache exactly as a warm engine does.
FlowAssignment reference_solve(const graph::Graph& graph,
                               const TrafficMatrix& demands,
                               flow::WarmStartCache* cache,
                               SolveTrace& trace) {
  FlowAssignment result;
  result.routings.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i)
    result.routings[i].demand = demands[i];
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].priority > demands[b].priority;
                   });
  std::vector<double> remaining;
  for (EdgeId edge : graph.edge_ids())
    remaining.push_back(graph.edge(edge).capacity.value);
  trace = SolveTrace{};
  trace.first_won.assign(graph.edge_count(), SolveTrace::kNever);
  std::vector<std::uint8_t> won;
  for (std::size_t position = 0; position < order.size(); ++position) {
    const Demand& demand = demands[order[position]];
    if (demand.volume.value <= flow::kFlowEps) continue;
    const int src = demand.src.value;
    const int dst = demand.dst.value;
    flow::ResidualNetwork net(graph.node_count());
    for (EdgeId edge : graph.edge_ids()) {
      const graph::Edge& e = graph.edge(edge);
      net.add_arc(e.src.value, e.dst.value,
                  remaining[static_cast<std::size_t>(edge.value)], e.cost);
    }
    flow::MinCostWarmStart warm;
    std::shared_ptr<const flow::MinCostWarmStart> cached;
    flow::NetworkFingerprints prints;
    if (cache != nullptr) {
      prints = flow::network_fingerprints(net, src, dst);
      cached = cache->find(prints.exact);
      if (cached == nullptr) {
        cached = cache->find_structural(prints.structural);
        if (cached != nullptr && cached->fingerprint == prints.exact)
          cached = nullptr;
      }
      if (cached != nullptr) warm = *cached;
    }
    flow::min_cost_max_flow(net, src, dst, demand.volume.value,
                            cache != nullptr ? &warm : nullptr,
                            flow::kDefaultMaxAugmentations, &won);
    if (cache != nullptr && warm.fingerprint == prints.exact &&
        (cached == nullptr || cached->fingerprint != prints.exact ||
         warm.augmentations.size() != cached->augmentations.size() ||
         warm.exhausted != cached->exhausted))
      cache->store(std::make_shared<flow::MinCostWarmStart>(std::move(warm)));
    for (std::size_t edge = 0; edge < won.size(); ++edge)
      if (won[edge] != 0 && trace.first_won[edge] == SolveTrace::kNever)
        trace.first_won[edge] = static_cast<std::uint32_t>(position);
    ++trace.demands_solved;
    for (const flow::PathFlow& pf : flow::decompose_flow(net, src, dst).paths) {
      graph::Path path;
      for (int arc : pf.arcs) {
        const EdgeId edge{arc / 2};
        path.edges.push_back(edge);
        path.weight += graph.edge(edge).weight;
        remaining[static_cast<std::size_t>(edge.value)] -= pf.amount;
      }
      result.routings[order[position]].paths.emplace_back(std::move(path),
                                                          Gbps{pf.amount});
    }
  }
  finalize_assignment(graph, result);
  return result;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_recordings(const flow::WarmStartCache& expected,
                            const flow::WarmStartCache& got) {
  const auto a = expected.snapshot();
  const auto b = got.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->fingerprint, b[i]->fingerprint) << "recording " << i;
    EXPECT_EQ(a[i]->struct_fingerprint, b[i]->struct_fingerprint);
    EXPECT_EQ(a[i]->exhausted, b[i]->exhausted);
    EXPECT_EQ(bits(a[i]->final_potential), bits(b[i]->final_potential));
    EXPECT_EQ(bits(a[i]->initial_residuals), bits(b[i]->initial_residuals));
    ASSERT_EQ(a[i]->augmentations.size(), b[i]->augmentations.size());
    for (std::size_t k = 0; k < a[i]->augmentations.size(); ++k) {
      const auto& x = a[i]->augmentations[k];
      const auto& y = b[i]->augmentations[k];
      EXPECT_EQ(x.arcs, y.arcs);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.bottleneck),
                std::bit_cast<std::uint64_t>(y.bottleneck));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x.path_cost),
                std::bit_cast<std::uint64_t>(y.path_cost));
    }
  }
}

void expect_same_trace(const SolveTrace& expected, const SolveTrace& got) {
  EXPECT_EQ(expected.first_won, got.first_won);
  EXPECT_EQ(expected.demands_solved, got.demands_solved);
  EXPECT_EQ(got.demands_reused, 0u);
}

/// Solves `instance` through `engine` (solve, then solve_traced) and
/// through the reference with `cache` in the same order, so a warm engine
/// and the reference's cache see the same solve sequence.
void expect_matches_reference(const McfTe& engine, const Instance& instance,
                              flow::WarmStartCache* cache) {
  SolveTrace expected_trace;
  expect_bitwise_equal(
      reference_solve(instance.graph, instance.demands, cache, expected_trace),
      engine.solve(instance.graph, instance.demands));
  const FlowAssignment expected =
      reference_solve(instance.graph, instance.demands, cache, expected_trace);
  SolveTrace trace;
  expect_bitwise_equal(expected, engine.solve_traced(
                                     instance.graph, instance.demands,
                                     nullptr, trace));
  expect_same_trace(expected_trace, trace);
}

/// Trials removing up to three headroom edges that won a relaxation must
/// match the reference on the reduced graph, trace included.
void expect_trials_match_reference(const McfTe& engine,
                                   const Instance& instance,
                                   std::uint64_t seed) {
  SolveTrace base_trace;
  const FlowAssignment base = engine.solve_traced(
      instance.graph, instance.demands, nullptr, base_trace);
  std::vector<std::int32_t> won_headroom;
  for (std::size_t e = instance.graph.edge_count() / 2;
       e < instance.graph.edge_count(); ++e)
    if (base_trace.first_won[e] != SolveTrace::kNever)
      won_headroom.push_back(static_cast<std::int32_t>(e));
  ASSERT_FALSE(won_headroom.empty());
  util::Rng pick(seed);
  for (int trial = 0; trial < 3; ++trial) {
    const std::int32_t edge = won_headroom[static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(won_headroom.size()) -
                                1))];
    const Reduced reduced = remove_edges(instance.graph, {edge});
    const TrialBase from{base, base_trace, reduced.edge_map};
    SolveTrace trace;
    const FlowAssignment got =
        engine.solve_traced(reduced.graph, instance.demands, &from, trace);
    SolveTrace expected_trace;
    expect_bitwise_equal(reference_solve(reduced.graph, instance.demands,
                                         nullptr, expected_trace),
                         got);
    EXPECT_EQ(expected_trace.first_won, trace.first_won);
    EXPECT_EQ(trace.demands_reused + trace.demands_solved,
              expected_trace.demands_solved);
  }
}

McfTe warm_engine() {
  McfTe::Options options;
  options.warm_start = true;
  options.partial_repair = true;
  return McfTe(options);
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

constexpr std::uint64_t kWanSeeds[] = {1, 20171130, 7};

TEST(McfTrial, ColdSolvesMatchFreshNetworkReference) {
  for (std::uint64_t seed : kWanSeeds)
    for (int nodes = 16; nodes <= 18; ++nodes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " nodes " +
                   std::to_string(nodes));
      const Instance instance = make_wan(seed, nodes);
      const McfTe engine = cold_engine();
      expect_matches_reference(engine, instance, nullptr);
      expect_trials_match_reference(engine, instance, seed);
    }
}

TEST(McfTrial, WarmSolvesMatchFreshNetworkReference) {
  const std::uint64_t warm_before = counter_value("solver.warm_starts");
  for (std::uint64_t seed : kWanSeeds)
    for (int nodes = 16; nodes <= 18; ++nodes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " nodes " +
                   std::to_string(nodes));
      const Instance instance = make_wan(seed, nodes);
      const McfTe engine = warm_engine();
      flow::WarmStartCache cache(engine.options().warm_cache_entries);
      // The first pass records, the second replays every demand exactly.
      expect_matches_reference(engine, instance, &cache);
      expect_matches_reference(engine, instance, &cache);
      expect_same_recordings(cache, engine.warm_cache());
      expect_trials_match_reference(engine, instance, seed);
    }
  EXPECT_GT(counter_value("solver.warm_starts"), warm_before);
}

TEST(McfTrial, PartialRepairRollbackMatchesFreshNetworkReference) {
  std::uint64_t rollbacks = 0;
  for (std::uint64_t seed : kWanSeeds)
    for (int nodes = 16; nodes <= 18; ++nodes) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " nodes " +
                   std::to_string(nodes));
      Instance instance = make_wan(seed, nodes);
      const McfTe engine = warm_engine();
      flow::WarmStartCache cache(engine.options().warm_cache_entries);
      expect_matches_reference(engine, instance, &cache);
      // Step the busiest link down to nothing: the recordings still match
      // structurally, but the link's support changed, so repairs that saw
      // it roll back and solve cold.
      SolveTrace unused;
      const FlowAssignment loads = engine.solve_traced(
          instance.graph, instance.demands, nullptr, unused);
      reference_solve(instance.graph, instance.demands, &cache, unused);
      const auto busiest = std::max_element(loads.edge_load_gbps.begin(),
                                            loads.edge_load_gbps.end());
      ASSERT_GT(*busiest, 0.0);
      instance.graph.edge(EdgeId{static_cast<std::int32_t>(
                              busiest - loads.edge_load_gbps.begin())})
          .capacity = Gbps{0.0};
      const std::uint64_t before = counter_value("solver.partial_rollbacks");
      SolveTrace trace;
      const FlowAssignment got =
          engine.solve_traced(instance.graph, instance.demands, nullptr, trace);
      rollbacks += counter_value("solver.partial_rollbacks") - before;
      SolveTrace expected_trace;
      expect_bitwise_equal(reference_solve(instance.graph, instance.demands,
                                           &cache, expected_trace),
                           got);
      expect_same_trace(expected_trace, trace);
      expect_same_recordings(cache, engine.warm_cache());
    }
  EXPECT_GT(rollbacks, 0u);
}

}  // namespace
}  // namespace rwc::te
