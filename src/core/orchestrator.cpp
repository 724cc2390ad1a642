#include "core/orchestrator.hpp"

#include <algorithm>
#include <sstream>

#include "obs/timer.hpp"
#include "update/schedule.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace rwc::core {

using graph::EdgeId;
using util::Seconds;

DeviceArray make_device_array(const graph::Graph& topology,
                              const optical::ModulationTable& table,
                              std::uint64_t seed, util::Db initial_snr) {
  DeviceArray devices;
  devices.reserve(topology.edge_count());
  for (EdgeId edge : topology.edge_ids()) {
    bvt::BvtDevice device(table, seed ^ (0xD3u + static_cast<std::uint64_t>(
                                                     edge.value) *
                                                     0x9E3779B9u));
    device.mdio_write(bvt::Register::kControl,
                      bvt::control::kLaserEnable | bvt::control::kTxEnable);
    device.set_link_snr(initial_snr);
    devices.push_back(std::move(device));
  }
  return devices;
}

ExecutionReport ReconfigurationOrchestrator::execute(
    const graph::Graph& topology_after, const te::FlowAssignment& before,
    const ReconfigurationPlan& plan, DeviceArray& devices) const {
  RWC_EXPECTS(devices.size() == topology_after.edge_count());
  // Wall-clock execute span; the simulated-time results (makespan, parked
  // traffic) flush at the end (docs/OBSERVABILITY.md: orchestrator.*).
  obs::Span execute_span("orchestrator.execute");

  ExecutionReport report;

  // Drain/restore steps: the rwc::update schedule over the same transition,
  // from the pre-upgrade rates to `topology_after`'s.
  std::vector<util::Gbps> capacity_after;
  capacity_after.reserve(topology_after.edge_count());
  for (EdgeId edge : topology_after.edge_ids())
    capacity_after.push_back(topology_after.edge(edge).capacity);
  std::vector<util::Gbps> capacity_before = capacity_after;
  for (const CapacityChange& change : plan.upgrades)
    capacity_before[static_cast<std::size_t>(change.edge.value)] =
        change.from;
  update::SchedulerConfig config;
  config.procedure = options_.procedure;
  config.sampled_durations = false;  // phase 2 drives the devices instead
  const update::UpdateSchedule schedule =
      update::plan_schedule(topology_after, capacity_before, capacity_after,
                            before, plan.physical_assignment, config);
  report.success = schedule.feasible;
  std::vector<const update::Move*> removes;
  std::vector<const update::Move*> adds;
  for (const update::UpdateRound& round : schedule.rounds)
    for (const update::Move& move : round.moves) {
      if (move.kind == update::Move::Kind::kRouteRemove)
        removes.push_back(&move);
      else if (move.kind == update::Move::Kind::kRouteAdd)
        adds.push_back(&move);
    }

  Seconds now = 0.0;
  auto emit = [&](OrchestratorEvent::Kind kind, EdgeId edge,
                  std::string description) {
    report.timeline.push_back(
        OrchestratorEvent{now, kind, edge, std::move(description)});
  };

  // Phase 1: drain — every route removal of the schedule.
  for (const update::Move* move : removes) {
    std::ostringstream os;
    os << "drain " << move->volume << " from "
       << graph::path_to_string(topology_after, move->path);
    emit(OrchestratorEvent::Kind::kDrainStep, EdgeId{}, os.str());
    now += options_.routing_step_latency;
  }

  // Phase 2: modulation changes, in parallel. Each device samples its own
  // downtime; the phase ends when the slowest lock completes.
  const Seconds phase2_start = now;
  Seconds phase2_end = now;
  for (const CapacityChange& change : plan.upgrades) {
    auto& device = devices[static_cast<std::size_t>(change.edge.value)];
    emit(OrchestratorEvent::Kind::kReconfigureStart, change.edge,
         "reconfigure to " +
             util::format_double(change.to.value, 0) + "G");
    const auto result =
        device.change_modulation(change.to, options_.procedure);
    const Seconds done_at = phase2_start + result.downtime;
    phase2_end = std::max(phase2_end, done_at);
    // Traffic that was on the link before the change is parked while the
    // modulation switches.
    const auto e = static_cast<std::size_t>(change.edge.value);
    const double previous_load =
        e < before.edge_load_gbps.size() ? before.edge_load_gbps[e] : 0.0;
    report.parked_gbps_seconds += previous_load * result.downtime;
    const Seconds saved_now = now;
    now = done_at;
    if (result.success) {
      emit(OrchestratorEvent::Kind::kReconfigureDone, change.edge,
           "locked at " + util::format_double(change.to.value, 0) + "G");
    } else {
      report.success = false;
      emit(OrchestratorEvent::Kind::kReconfigureFailed, change.edge,
           "carrier failed to lock");
    }
    now = saved_now;
  }
  now = phase2_end;

  // Phase 3: restore — every route addition, onto the new capacities.
  for (const update::Move* move : adds) {
    std::ostringstream os;
    os << "restore " << move->volume << " onto "
       << graph::path_to_string(topology_after, move->path);
    emit(OrchestratorEvent::Kind::kRestoreStep, EdgeId{}, os.str());
    now += options_.routing_step_latency;
  }

  std::stable_sort(report.timeline.begin(), report.timeline.end(),
                   [](const OrchestratorEvent& a, const OrchestratorEvent& b) {
                     return a.at < b.at;
                   });
  report.makespan = now;

  static auto& registry = obs::Registry::global();
  static auto& executions = registry.counter("orchestrator.executions");
  static auto& drain_steps = registry.counter("orchestrator.drain_steps");
  static auto& restore_steps =
      registry.counter("orchestrator.restore_steps");
  static auto& makespan_seconds =
      registry.histogram("orchestrator.makespan_seconds");
  static auto& parked = registry.gauge("orchestrator.parked_gbps_seconds");
  executions.add();
  drain_steps.add(removes.size());
  restore_steps.add(adds.size());
  makespan_seconds.observe(report.makespan);
  parked.add(report.parked_gbps_seconds);
  return report;
}

}  // namespace rwc::core
