// Tests for the device-backed reconfiguration orchestrator.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/controller.hpp"
#include "core/orchestrator.hpp"
#include "sim/topology.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"

namespace rwc::core {
namespace {

using graph::EdgeId;
using graph::NodeId;
using util::Db;
using util::Gbps;
using namespace util::literals;

/// Controller round on a single upgradable link, returning everything the
/// orchestrator needs.
struct Scenario {
  graph::Graph base;
  graph::Graph after;
  te::FlowAssignment before;
  ReconfigurationPlan plan;
};

Scenario make_upgrade_scenario() {
  Scenario scenario;
  const NodeId a = scenario.base.add_node("A");
  const NodeId b = scenario.base.add_node("B");
  scenario.base.add_edge(a, b, 100_Gbps);

  te::McfTe engine;
  ControllerOptions options;
  options.snr_margin = 0_dB;
  DynamicCapacityController controller(
      scenario.base, optical::ModulationTable::standard(), engine, options);

  // Round 1 establishes "before" traffic; round 2 upgrades.
  const std::vector<Db> snr = {16.0_dB};
  controller.run_round(snr, {{a, b, 90_Gbps, 0}});
  scenario.before = controller.last_assignment();
  const auto report = controller.run_round(snr, {{a, b, 150_Gbps, 0}});
  scenario.plan = report.plan;
  scenario.after = controller.current_topology();
  return scenario;
}

TEST(Orchestrator, DeviceArrayMatchesTopology) {
  const graph::Graph g = sim::fig7_square();
  auto devices = make_device_array(g, optical::ModulationTable::standard(),
                                   7, 15.0_dB);
  ASSERT_EQ(devices.size(), g.edge_count());
  for (auto& device : devices) {
    EXPECT_TRUE(device.laser_on());
    EXPECT_TRUE(device.carrier_locked());
    EXPECT_EQ(device.active_capacity(), 100_Gbps);
  }
}

TEST(Orchestrator, ExecutesUpgradeEndToEnd) {
  Scenario scenario = make_upgrade_scenario();
  ASSERT_EQ(scenario.plan.upgrades.size(), 1u);
  auto devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 16.0_dB);

  ReconfigurationOrchestrator::Options options;
  options.procedure = bvt::Procedure::kEfficient;
  const ReconfigurationOrchestrator orchestrator(options);
  const auto report = orchestrator.execute(scenario.after, scenario.before,
                                           scenario.plan, devices);
  EXPECT_TRUE(report.success);
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_LT(report.makespan, 1.0);  // hitless: well under a second
  // The device now runs at the upgraded rate.
  EXPECT_EQ(devices[0].active_capacity(), 200_Gbps);
  // 90 G of prior traffic was parked for the downtime.
  EXPECT_GT(report.parked_gbps_seconds, 0.0);
  EXPECT_LT(report.parked_gbps_seconds, 90.0 * 1.0);
}

TEST(Orchestrator, StandardProcedureDominatesMakespan) {
  Scenario scenario = make_upgrade_scenario();
  auto hitless_devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 16.0_dB);
  auto standard_devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 16.0_dB);

  ReconfigurationOrchestrator::Options hitless_options;
  hitless_options.procedure = bvt::Procedure::kEfficient;
  ReconfigurationOrchestrator::Options standard_options;
  standard_options.procedure = bvt::Procedure::kStandard;
  const auto hitless = ReconfigurationOrchestrator(hitless_options)
                           .execute(scenario.after, scenario.before,
                                    scenario.plan, hitless_devices);
  const auto standard = ReconfigurationOrchestrator(standard_options)
                            .execute(scenario.after, scenario.before,
                                     scenario.plan, standard_devices);
  EXPECT_GT(standard.makespan, 10.0);
  EXPECT_GT(standard.makespan, 50.0 * hitless.makespan);
  EXPECT_GT(standard.parked_gbps_seconds,
            50.0 * hitless.parked_gbps_seconds);
}

std::size_t count_events(const ExecutionReport& report,
                         OrchestratorEvent::Kind kind) {
  return static_cast<std::size_t>(
      std::count_if(report.timeline.begin(), report.timeline.end(),
                    [kind](const OrchestratorEvent& event) {
                      return event.kind == kind;
                    }));
}

TEST(Orchestrator, StandardProcedureDrainsKeptPathOnDarkLink) {
  // The 90 G path A-B is kept (it grows to 150 G). The hitless procedure
  // leaves it on the link; laser cycling darkens A-B, so the kept path is
  // drained first and restored whole onto the new rate.
  Scenario scenario = make_upgrade_scenario();
  ReconfigurationOrchestrator::Options hitless_options;
  hitless_options.procedure = bvt::Procedure::kEfficient;
  ReconfigurationOrchestrator::Options standard_options;
  standard_options.procedure = bvt::Procedure::kStandard;
  auto hitless_devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 16.0_dB);
  auto standard_devices = hitless_devices;
  const auto hitless = ReconfigurationOrchestrator(hitless_options)
                           .execute(scenario.after, scenario.before,
                                    scenario.plan, hitless_devices);
  const auto standard = ReconfigurationOrchestrator(standard_options)
                            .execute(scenario.after, scenario.before,
                                     scenario.plan, standard_devices);
  EXPECT_TRUE(hitless.success);
  EXPECT_TRUE(standard.success);
  EXPECT_EQ(count_events(hitless, OrchestratorEvent::Kind::kDrainStep), 0u);
  EXPECT_EQ(count_events(hitless, OrchestratorEvent::Kind::kRestoreStep), 1u);
  ASSERT_EQ(count_events(standard, OrchestratorEvent::Kind::kDrainStep), 1u);
  EXPECT_EQ(count_events(standard, OrchestratorEvent::Kind::kRestoreStep),
            1u);
  for (const auto& event : standard.timeline) {
    if (event.kind == OrchestratorEvent::Kind::kDrainStep) {
      EXPECT_NE(event.description.find("drain 90"), std::string::npos)
          << event.description;
    } else if (event.kind == OrchestratorEvent::Kind::kRestoreStep) {
      EXPECT_NE(event.description.find("restore 150"), std::string::npos)
          << event.description;
    }
  }
}

TEST(Orchestrator, InfeasibleScheduleIsUnsuccessful) {
  // The topology claims A-B stays at 100 G, but the plan routes 150 G on
  // it: no update schedule reaches that state.
  Scenario scenario = make_upgrade_scenario();
  scenario.after.edge(EdgeId{0}).capacity = 100_Gbps;
  auto devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 16.0_dB);
  const auto report = ReconfigurationOrchestrator({}).execute(
      scenario.after, scenario.before, scenario.plan, devices);
  EXPECT_FALSE(report.success);
}

TEST(Orchestrator, TimelinePhasesAreOrdered) {
  Scenario scenario = make_upgrade_scenario();
  auto devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 16.0_dB);
  const ReconfigurationOrchestrator orchestrator({});
  const auto report = orchestrator.execute(scenario.after, scenario.before,
                                           scenario.plan, devices);
  // Timestamps non-decreasing; every drain precedes every restore.
  double last_drain = -1.0;
  double first_restore = 1e18;
  double previous = -1.0;
  for (const auto& event : report.timeline) {
    EXPECT_GE(event.at, previous);
    previous = event.at;
    if (event.kind == OrchestratorEvent::Kind::kDrainStep)
      last_drain = std::max(last_drain, event.at);
    if (event.kind == OrchestratorEvent::Kind::kRestoreStep)
      first_restore = std::min(first_restore, event.at);
  }
  if (last_drain >= 0.0 && first_restore < 1e18) {
    EXPECT_LE(last_drain, first_restore);
  }
  // Reconfigure start precedes its done event.
  double start_at = -1.0, done_at = -1.0;
  for (const auto& event : report.timeline) {
    if (event.kind == OrchestratorEvent::Kind::kReconfigureStart)
      start_at = event.at;
    if (event.kind == OrchestratorEvent::Kind::kReconfigureDone)
      done_at = event.at;
  }
  ASSERT_GE(start_at, 0.0);
  ASSERT_GE(done_at, 0.0);
  EXPECT_LT(start_at, done_at);
}

TEST(Orchestrator, ReportsLockFailureWhenSnrTooLow) {
  Scenario scenario = make_upgrade_scenario();
  // Devices see much worse SNR than the controller believed.
  auto devices = make_device_array(
      scenario.base, optical::ModulationTable::standard(), 3, 8.0_dB);
  const ReconfigurationOrchestrator orchestrator({});
  const auto report = orchestrator.execute(scenario.after, scenario.before,
                                           scenario.plan, devices);
  EXPECT_FALSE(report.success);
  bool saw_failure = false;
  for (const auto& event : report.timeline)
    if (event.kind == OrchestratorEvent::Kind::kReconfigureFailed)
      saw_failure = true;
  EXPECT_TRUE(saw_failure);
  EXPECT_EQ(devices[0].active_capacity(), 0_Gbps);
}

TEST(Orchestrator, NoUpgradesMeansRoutingOnlyTimeline) {
  // A plan without upgrades: pure consistent-update execution.
  graph::Graph base = sim::fig7_square();
  te::McfTe engine;
  ControllerOptions options;
  options.snr_margin = 0_dB;
  DynamicCapacityController controller(
      base, optical::ModulationTable::standard(), engine, options);
  const std::vector<Db> snr(base.edge_count(), 7.0_dB);  // no headroom
  const auto a = *base.find_node("A");
  const auto b = *base.find_node("B");
  controller.run_round(snr, {{a, b, 60_Gbps, 0}});
  const auto before = controller.last_assignment();
  const auto report2 = controller.run_round(snr, {{a, b, 90_Gbps, 0}});
  ASSERT_TRUE(report2.plan.upgrades.empty());

  auto devices = make_device_array(
      base, optical::ModulationTable::standard(), 3, 7.0_dB);
  const ReconfigurationOrchestrator orchestrator({});
  const auto execution = orchestrator.execute(
      controller.current_topology(), before, report2.plan, devices);
  EXPECT_TRUE(execution.success);
  EXPECT_EQ(execution.parked_gbps_seconds, 0.0);
  for (const auto& event : execution.timeline)
    EXPECT_TRUE(event.kind == OrchestratorEvent::Kind::kDrainStep ||
                event.kind == OrchestratorEvent::Kind::kRestoreStep);
}

TEST(Orchestrator, RejectsMismatchedDeviceArray) {
  Scenario scenario = make_upgrade_scenario();
  DeviceArray devices;  // empty
  const ReconfigurationOrchestrator orchestrator({});
  EXPECT_THROW(orchestrator.execute(scenario.after, scenario.before,
                                    scenario.plan, devices),
               util::CheckError);
}

}  // namespace
}  // namespace rwc::core
