// Tests for the residual network and Dinic max-flow, including the
// max-flow = min-cut property on random graphs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "flow/decompose.hpp"
#include "flow/graph_adapter.hpp"
#include "flow/maxflow.hpp"
#include "flow/mincost.hpp"
#include "flow/network.hpp"
#include "sim/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rwc::flow {
namespace {

TEST(ResidualNetwork, ArcPairingAndPush) {
  ResidualNetwork net(2);
  const int arc = net.add_arc(0, 1, 10.0, 2.0);
  EXPECT_EQ(net.target(arc), 1);
  EXPECT_EQ(net.source(arc), 0);
  EXPECT_EQ(net.residual(arc), 10.0);
  EXPECT_EQ(net.residual(arc ^ 1), 0.0);
  EXPECT_EQ(net.cost(arc), 2.0);
  EXPECT_EQ(net.cost(arc ^ 1), -2.0);

  net.push(arc, 4.0);
  EXPECT_DOUBLE_EQ(net.residual(arc), 6.0);
  EXPECT_DOUBLE_EQ(net.residual(arc ^ 1), 4.0);
  EXPECT_DOUBLE_EQ(net.flow(arc), 4.0);
  EXPECT_DOUBLE_EQ(net.total_cost(), 8.0);
  EXPECT_DOUBLE_EQ(net.net_outflow(0), 4.0);
  EXPECT_DOUBLE_EQ(net.net_outflow(1), -4.0);

  net.reset();
  EXPECT_DOUBLE_EQ(net.flow(arc), 0.0);
}

TEST(ResidualNetwork, PushBeyondResidualThrows) {
  ResidualNetwork net(2);
  const int arc = net.add_arc(0, 1, 1.0);
  EXPECT_THROW(net.push(arc, 2.0), util::CheckError);
}

/// Bit patterns of `values`, so that equality is bitwise (-0.0 != 0.0).
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

TEST(ResidualNetwork, SetCapacitiesMatchesFreshBuild) {
  util::Rng rng(17);
  const graph::Graph g = sim::waxman(12, rng);
  std::vector<double> costs;
  std::vector<double> before;
  std::vector<double> after;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    costs.push_back(rng.uniform(0.5, 3.0));
    before.push_back(rng.uniform(5.0, 40.0));
    after.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform(5.0, 40.0));
  }
  const auto build = [&](std::span<const double> capacities) {
    ResidualNetwork net(g.node_count());
    for (graph::EdgeId id : g.edge_ids()) {
      const auto e = static_cast<std::size_t>(id.value);
      net.add_arc(g.edge(id).src.value, g.edge(id).dst.value, capacities[e],
                  costs[e]);
    }
    return net;
  };
  const int source = 0;
  const int sink = 11;

  // The reused network carries a solve's flow, then pushes rolled back by
  // restore_residuals, before it is reset.
  ResidualNetwork reused = build(before);
  ASSERT_GT(min_cost_max_flow(reused, source, sink).flow, 0.0);
  const std::vector<double> solved = reused.residuals();
  for (int arc = 0; arc < static_cast<int>(reused.arc_count()); ++arc)
    reused.push(arc, reused.residual(arc) / 2.0);
  reused.restore_residuals(solved);
  ASSERT_GT(reused.total_cost(), 0.0);
  reused.set_capacities(after);
  ResidualNetwork fresh = build(after);

  EXPECT_EQ(bits(fresh.residuals()), bits(reused.residuals()));
  ASSERT_EQ(fresh.arc_count(), reused.arc_count());
  for (int arc = 0; arc < static_cast<int>(fresh.arc_count()); ++arc) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.initial_capacity(arc)),
              std::bit_cast<std::uint64_t>(reused.initial_capacity(arc)))
        << "arc " << arc;
  }
  const NetworkFingerprints fresh_prints =
      network_fingerprints(fresh, source, sink);
  const NetworkFingerprints reused_prints =
      network_fingerprints(reused, source, sink);
  EXPECT_EQ(fresh_prints.exact, reused_prints.exact);
  EXPECT_EQ(fresh_prints.structural, reused_prints.structural);

  const auto solve = [&](ResidualNetwork& net, std::vector<std::uint8_t>& won) {
    return min_cost_max_flow(net, source, sink,
                             std::numeric_limits<double>::infinity(), nullptr,
                             kDefaultMaxAugmentations, &won);
  };
  std::vector<std::uint8_t> fresh_won;
  std::vector<std::uint8_t> reused_won;
  const MinCostFlowResult expected = solve(fresh, fresh_won);
  const MinCostFlowResult got = solve(reused, reused_won);
  ASSERT_GT(expected.flow, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.flow),
            std::bit_cast<std::uint64_t>(got.flow));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected.cost),
            std::bit_cast<std::uint64_t>(got.cost));
  EXPECT_EQ(expected.status, got.status);
  EXPECT_EQ(fresh_won, reused_won);
  EXPECT_EQ(bits(fresh.residuals()), bits(reused.residuals()));

  const Decomposition expected_paths = decompose_flow(fresh, source, sink);
  const Decomposition got_paths = decompose_flow(reused, source, sink);
  ASSERT_EQ(expected_paths.paths.size(), got_paths.paths.size());
  for (std::size_t p = 0; p < expected_paths.paths.size(); ++p) {
    EXPECT_EQ(expected_paths.paths[p].arcs, got_paths.paths[p].arcs);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected_paths.paths[p].amount),
              std::bit_cast<std::uint64_t>(got_paths.paths[p].amount));
  }

  EXPECT_THROW(reused.set_capacities(std::span(after).first(after.size() - 1)),
               util::CheckError);
  after[after.size() / 2] = -1.0;
  EXPECT_THROW(reused.set_capacities(after), util::CheckError);
}

TEST(MaxFlow, SimpleSeriesParallel) {
  // s -> a -> t (cap 3) parallel with s -> b -> t (cap 5).
  ResidualNetwork net(4);
  net.add_arc(0, 1, 3.0);
  net.add_arc(1, 3, 3.0);
  net.add_arc(0, 2, 5.0);
  net.add_arc(2, 3, 7.0);
  EXPECT_DOUBLE_EQ(max_flow_dinic(net, 0, 3), 8.0);
}

TEST(MaxFlow, ClassicCrossEdgeInstance) {
  // The classic 6-node instance with a cross edge; max flow = 19.
  ResidualNetwork net(6);
  net.add_arc(0, 1, 10.0);
  net.add_arc(0, 2, 10.0);
  net.add_arc(1, 2, 2.0);
  net.add_arc(1, 3, 4.0);
  net.add_arc(1, 4, 8.0);
  net.add_arc(2, 4, 9.0);
  net.add_arc(4, 3, 6.0);
  net.add_arc(3, 5, 10.0);
  net.add_arc(4, 5, 10.0);
  EXPECT_DOUBLE_EQ(max_flow_dinic(net, 0, 5), 19.0);
}

TEST(MaxFlow, DisconnectedSinkYieldsZero) {
  ResidualNetwork net(3);
  net.add_arc(0, 1, 5.0);
  EXPECT_DOUBLE_EQ(max_flow_dinic(net, 0, 2), 0.0);
}

TEST(MaxFlow, ZeroCapacityArcCarriesNothing) {
  ResidualNetwork net(2);
  net.add_arc(0, 1, 0.0);
  EXPECT_DOUBLE_EQ(max_flow_dinic(net, 0, 1), 0.0);
}

TEST(MaxFlow, FlowConservationAtInteriorNodes) {
  util::Rng rng(3);
  graph::Graph g = sim::waxman(10, rng);
  auto view = make_network(g);
  max_flow_dinic(view.net, 0, 9);
  for (int node = 1; node < 9; ++node)
    EXPECT_NEAR(view.net.net_outflow(node), 0.0, 1e-9);
}

class MaxFlowMinCutSweep : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowMinCutSweep, MaxFlowEqualsMinCut) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  graph::Graph g = sim::waxman(14, rng);
  // Heterogeneous capacities.
  for (graph::EdgeId e : g.edge_ids())
    g.edge(e).capacity = util::Gbps{rng.uniform(1.0, 20.0)};

  auto view = make_network(g);
  const int source = 0;
  const int sink = 13;
  const double flow = max_flow_dinic(view.net, source, sink);
  const auto side = min_cut_source_side(view.net, source);
  EXPECT_TRUE(side[static_cast<std::size_t>(source)]);
  EXPECT_FALSE(side[static_cast<std::size_t>(sink)]);
  EXPECT_NEAR(flow, cut_capacity(view.net, side), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowMinCutSweep, ::testing::Range(1, 16));

TEST(GraphAdapter, EdgeFlowsMapBack) {
  graph::Graph g;
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto e = g.add_edge(a, b, util::Gbps{5.0});
  auto view = make_network(g);
  max_flow_dinic(view.net, 0, 1);
  EXPECT_DOUBLE_EQ(view.edge_flow(e), 5.0);
  const auto flows = edge_flows(g, view);
  EXPECT_DOUBLE_EQ(flows[0], 5.0);
}

}  // namespace
}  // namespace rwc::flow
