// Consolidation with prefix-reusing trials (docs/SOLVERS.md §6) against
// consolidation with full trials. A controller on te::McfTe runs its
// trials through McfTe::solve_traced; a controller on a forwarding engine
// that only overrides solve() gets the default solve_traced, which keeps no
// trace, so every one of its trials is a full solve. The two must produce
// bit-identical RoundReports at every pool size, with the options that
// switch prefix reuse off (gadget mode, an armed flow.mincost plan) and
// with the ones that leave it on (protected flows, hysteresis).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/controller.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "fault/registry.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "support/round_signature.hpp"
#include "te/mcf_te.hpp"
#include "util/rng.hpp"

namespace rwc::core {
namespace {

using Report = DynamicCapacityController::RoundReport;

/// Forwards solve() to an inner engine and nothing else.
class Forwarding final : public te::TeAlgorithm {
 public:
  explicit Forwarding(const te::TeAlgorithm& inner) : inner_(inner) {}
  std::string name() const override { return "forwarding"; }
  te::FlowAssignment solve(const graph::Graph& graph,
                           const te::TrafficMatrix& demands) const override {
    return inner_.solve(graph, demands);
  }

 private:
  const te::TeAlgorithm& inner_;
};

enum class Variant { kPlain, kGadget, kProtected, kHysteresis, kFault };

const char* name_of(Variant variant) {
  switch (variant) {
    case Variant::kPlain: return "plain";
    case Variant::kGadget: return "gadget";
    case Variant::kProtected: return "protected";
    case Variant::kHysteresis: return "hysteresis";
    case Variant::kFault: return "fault";
  }
  return "?";
}

struct Instance {
  graph::Graph topology;
  te::TrafficMatrix demands;
  /// One SNR vector per round; both directions of a link share a value
  /// between the 100 G and 200 G thresholds, so most links are variable.
  std::vector<std::vector<util::Db>> snr;
};

Instance make_instance(std::uint64_t seed, int nodes, int rounds) {
  util::Rng rng = util::Rng::stream(seed, static_cast<std::uint64_t>(nodes));
  Instance instance;
  instance.topology = sim::waxman(nodes, rng);
  sim::GravityParams gravity;
  gravity.total = util::Gbps{instance.topology.total_capacity().value * 0.5};
  // About 60 demanded pairs at every size keeps the full-trial twin cheap.
  gravity.sparsity = 1.0 - 60.0 / (nodes * (nodes - 1.0));
  instance.demands = sim::gravity_matrix(instance.topology, gravity, rng);
  const std::size_t edges = instance.topology.edge_count();
  for (int round = 0; round < rounds; ++round) {
    std::vector<util::Db> snr(edges);
    for (std::size_t e = 0; e + 1 < edges; e += 2) {
      snr[e] = util::Db{rng.uniform(7.0, 16.0)};
      snr[e + 1] = snr[e];
    }
    instance.snr.push_back(std::move(snr));
  }
  return instance;
}

ControllerOptions options_for(Variant variant, const Instance& instance,
                              exec::ThreadPool& pool) {
  ControllerOptions options;
  options.pool = &pool;
  if (variant == Variant::kGadget) options.augment.unsplittable_gadget = true;
  if (variant == Variant::kHysteresis)
    options.hysteresis = HysteresisParams{util::Db{0.5}, 1};
  if (variant == Variant::kProtected) {
    const graph::EdgeId first{0};
    ProtectedFlow flow;
    flow.path.edges = {first};
    flow.volume = util::Gbps{
        instance.topology.edge(first).capacity.value * 0.25};
    options.protected_flows = {flow};
  }
  return options;
}

void expect_assignments_equal(const te::FlowAssignment& a,
                              const te::FlowAssignment& b,
                              const std::string& where) {
  ASSERT_EQ(a.routings.size(), b.routings.size()) << where;
  for (std::size_t i = 0; i < a.routings.size(); ++i) {
    const auto& x = a.routings[i];
    const auto& y = b.routings[i];
    EXPECT_EQ(x.demand, y.demand) << where;
    EXPECT_EQ(x.routed.value, y.routed.value) << where << " demand " << i;
    ASSERT_EQ(x.paths.size(), y.paths.size()) << where << " demand " << i;
    for (std::size_t p = 0; p < x.paths.size(); ++p) {
      EXPECT_EQ(x.paths[p].first.edges, y.paths[p].first.edges) << where;
      EXPECT_EQ(x.paths[p].first.weight, y.paths[p].first.weight) << where;
      EXPECT_EQ(x.paths[p].second.value, y.paths[p].second.value) << where;
    }
  }
  EXPECT_EQ(a.edge_load_gbps, b.edge_load_gbps) << where;
  EXPECT_EQ(a.total_routed.value, b.total_routed.value) << where;
  EXPECT_EQ(a.total_cost, b.total_cost) << where;
}

void expect_flaps_equal(const std::vector<LinkFlap>& a,
                        const std::vector<LinkFlap>& b,
                        const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edge, b[i].edge) << where;
    EXPECT_EQ(a[i].from.value, b[i].from.value) << where;
    EXPECT_EQ(a[i].to.value, b[i].to.value) << where;
  }
}

void expect_reports_equal(const Report& full, const Report& reused,
                          const std::string& where) {
  const prop::InvariantResult signatures = prop::check_signatures_equal(
      prop::signature_of(full), prop::signature_of(reused), where);
  EXPECT_TRUE(signatures.ok) << signatures.detail;
  expect_flaps_equal(full.reductions, reused.reductions, where);
  expect_flaps_equal(full.restorations, reused.restorations, where);
  ASSERT_EQ(full.plan.upgrades.size(), reused.plan.upgrades.size()) << where;
  for (std::size_t i = 0; i < full.plan.upgrades.size(); ++i) {
    const CapacityChange& x = full.plan.upgrades[i];
    const CapacityChange& y = reused.plan.upgrades[i];
    EXPECT_EQ(x.edge, y.edge) << where;
    EXPECT_EQ(x.from.value, y.from.value) << where;
    EXPECT_EQ(x.to.value, y.to.value) << where;
    EXPECT_EQ(x.upgrade_traffic.value, y.upgrade_traffic.value) << where;
    EXPECT_EQ(x.penalty_paid, y.penalty_paid) << where;
  }
  EXPECT_EQ(full.plan.total_penalty, reused.plan.total_penalty) << where;
  expect_assignments_equal(full.plan.physical_assignment,
                           reused.plan.physical_assignment, where);
  EXPECT_EQ(full.total_routed.value, reused.total_routed.value) << where;
  EXPECT_EQ(full.total_penalty, reused.total_penalty) << where;
  EXPECT_EQ(full.transition_valid, reused.transition_valid) << where;
  // Same pool size, same acceptance sequence: the same trials ran.
  EXPECT_EQ(full.stats.evaluations, reused.stats.evaluations) << where;
  EXPECT_EQ(full.stats.trial_demands_reused, 0u) << where;
  EXPECT_EQ(full.stats.trial_demands_solved, 0u) << where;
}

/// Runs every instance round by round on both controllers; returns the
/// demand solves the McfTe controller's trials reused and ran.
std::pair<std::uint64_t, std::uint64_t> run_variant(Variant variant) {
  std::uint64_t reused = 0;
  std::uint64_t solved = 0;
  const int sizes[] = {10, 20, 30};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const int nodes = sizes[seed - 1];
    const Instance instance = make_instance(seed, nodes, 2);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      exec::ThreadPool pool(threads);
      const te::McfTe full_engine;
      const Forwarding forwarding(full_engine);
      const te::McfTe engine;
      const ControllerOptions options =
          options_for(variant, instance, pool);
      DynamicCapacityController full(instance.topology,
                                     optical::ModulationTable::standard(),
                                     forwarding, options);
      DynamicCapacityController reusing(instance.topology,
                                        optical::ModulationTable::standard(),
                                        engine, options);
      for (std::size_t round = 0; round < instance.snr.size(); ++round) {
        const std::string where =
            std::string(name_of(variant)) + " seed " + std::to_string(seed) +
            " nodes " + std::to_string(nodes) + " pool " +
            std::to_string(threads) + " round " + std::to_string(round);
        const Report expected =
            full.run_round(instance.snr[round], instance.demands);
        const Report got =
            reusing.run_round(instance.snr[round], instance.demands);
        expect_reports_equal(expected, got, where);
        reused += got.stats.trial_demands_reused;
        solved += got.stats.trial_demands_solved;
      }
    }
  }
  return {reused, solved};
}

TEST(ConsolidateTrial, PlainRoundsMatchFullTrials) {
  const auto [reused, solved] = run_variant(Variant::kPlain);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(solved, 0u);
}

TEST(ConsolidateTrial, ProtectedFlowRoundsMatchFullTrials) {
  const auto [reused, solved] = run_variant(Variant::kProtected);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(solved, 0u);
}

TEST(ConsolidateTrial, HysteresisRoundsMatchFullTrials) {
  const auto [reused, solved] = run_variant(Variant::kHysteresis);
  EXPECT_GT(reused, 0u);
  EXPECT_GT(solved, 0u);
}

TEST(ConsolidateTrial, GadgetRoundsRunFullTrials) {
  const auto [reused, solved] = run_variant(Variant::kGadget);
  EXPECT_EQ(reused, 0u);
  EXPECT_EQ(solved, 0u);
}

TEST(ConsolidateTrial, ArmedMincostBudgetRunsFullTrials) {
  const fault::ScopedPlan plan(
      fault::FaultPlan::parse("flow.mincost%4@1:budget=3"));
  const auto [reused, solved] = run_variant(Variant::kFault);
  EXPECT_EQ(reused, 0u);
  EXPECT_EQ(solved, 0u);
  EXPECT_GT(fault::Registry::global().injected("flow.mincost"), 0u);
}

}  // namespace
}  // namespace rwc::core
