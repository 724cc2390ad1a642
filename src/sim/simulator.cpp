#include "sim/simulator.hpp"

#include <algorithm>
#include <vector>

#include "core/controller.hpp"
#include "core/orchestrator.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "sim/workload.hpp"
#include "util/check.hpp"

namespace rwc::sim {

using graph::EdgeId;
using util::Db;
using util::Gbps;
using util::Seconds;

const char* to_string(CapacityPolicy policy) {
  switch (policy) {
    case CapacityPolicy::kStatic:
      return "static-100";
    case CapacityPolicy::kStaticAggressive:
      return "static-aggressive";
    case CapacityPolicy::kDynamic:
      return "dynamic";
    case CapacityPolicy::kDynamicHitless:
      return "dynamic-hitless";
  }
  return "unknown";
}

WanSimulator::WanSimulator(graph::Graph topology,
                           const te::TeAlgorithm& engine,
                           SimulationConfig config)
    : topology_(std::move(topology)), engine_(engine), config_(config) {
  RWC_EXPECTS(topology_.edge_count() % 2 == 0);
  RWC_EXPECTS(config_.horizon > 0.0);
  RWC_EXPECTS(config_.te_interval > 0.0);
}

SimulationMetrics WanSimulator::run(const te::TrafficMatrix& base_demands) {
  const auto table = optical::ModulationTable::standard();
  const std::size_t edges = topology_.edge_count();

  // One fiber per bidirectional pair, one wavelength per direction.
  telemetry::SnrFleetGenerator::FleetParams fleet_params;
  fleet_params.fiber_count = static_cast<int>(edges / 2);
  fleet_params.wavelengths_per_fiber = 2;
  fleet_params.duration = config_.horizon + config_.te_interval;
  fleet_params.interval = config_.te_interval;
  fleet_params.model = config_.snr_model;
  telemetry::SnrFleetGenerator fleet(fleet_params, config_.seed);
  // Traces are pure per (fiber, lambda), so the fleet can be generated in
  // parallel with results landing in edge order — identical to the serial
  // loop at every pool size.
  exec::ThreadPool& pool =
      config_.pool != nullptr ? *config_.pool : exec::ThreadPool::global();
  const std::vector<telemetry::SnrTrace> traces = exec::parallel_map(
      pool, edges, [&](std::size_t e) {
        return fleet.generate_trace(static_cast<int>(e / 2),
                                    static_cast<int>(e % 2));
      });

  const bool dynamic = config_.policy == CapacityPolicy::kDynamic ||
                       config_.policy == CapacityPolicy::kDynamicHitless;
  const bvt::Procedure procedure =
      config_.policy == CapacityPolicy::kDynamicHitless
          ? bvt::Procedure::kEfficient
          : bvt::Procedure::kStandard;
  const bvt::LatencyModel latency(config_.latency);
  util::Rng latency_rng(config_.seed ^ 0x1A7E9C5ull);

  // Dynamic policies share one controller across rounds.
  core::ControllerOptions controller_options;
  controller_options.snr_margin = config_.snr_margin;
  controller_options.pool = config_.pool;
  controller_options.demand = config_.demand;
  core::DynamicCapacityController controller(topology_, table, engine_,
                                             controller_options);

  // Device-backed mode: per-link transceivers plus the orchestrator.
  core::DeviceArray devices;
  if (dynamic && config_.device_backed)
    devices = core::make_device_array(topology_, table,
                                      config_.seed ^ 0xDEC1CEull);
  core::ReconfigurationOrchestrator::Options orchestration;
  orchestration.procedure = procedure;
  const core::ReconfigurationOrchestrator orchestrator(orchestration);

  // Static policies track binary link state themselves.
  graph::Graph static_topology = topology_;
  const Gbps static_rate = config_.policy == CapacityPolicy::kStatic
                               ? Gbps{100.0}
                               : config_.static_capacity;
  if (!dynamic) RWC_EXPECTS(table.has_rate(static_rate));
  std::vector<bool> static_up(edges, true);

  SimulationMetrics metrics;
  const double tick_hours = config_.te_interval / util::kHour;

  const auto ticks = static_cast<std::size_t>(config_.horizon /
                                              config_.te_interval);
  for (std::size_t tick = 0; tick < ticks; ++tick) {
    const Seconds now = static_cast<double>(tick) * config_.te_interval;
    // Demands at this instant.
    te::TrafficMatrix demands =
        config_.diurnal
            ? scale_matrix(base_demands, diurnal_factor(now))
            : base_demands;
    metrics.offered_gbps_hours +=
        te::total_demand(demands).value * tick_hours;
    ++metrics.te_rounds;

    // Per-edge SNR for this tick.
    std::vector<Db> snr(edges);
    for (std::size_t e = 0; e < edges; ++e)
      snr[e] = traces[e].at(std::min(tick, traces[e].size() - 1));

    double routed = 0.0;
    double lost = 0.0;
    std::size_t links_up = 0;

    if (dynamic) {
      const te::FlowAssignment previous = controller.last_assignment();
      if (config_.device_backed)
        for (std::size_t e = 0; e < edges; ++e)
          devices[e].set_link_snr(snr[e]);
      const auto report = controller.run_round(snr, demands);
      routed = report.total_routed.value;
      // Honest delivered account in estimated mode: TE routed the
      // ESTIMATED matrix; cap each OD's delivered at its TRUE offered
      // volume (docs/DEMAND.md).
      if (controller.demand_pipeline() != nullptr) {
        routed = 0.0;
        const auto& routings = report.plan.physical_assignment.routings;
        for (std::size_t j = 0; j < routings.size(); ++j) {
          const double truth = j < demands.size()
                                   ? demands[j].volume.value
                                   : routings[j].routed.value;
          routed += std::min(routings[j].routed.value, truth);
        }
      }
      metrics.upgrades += report.plan.upgrades.size();

      // Analytic account: each capacity change takes the link out for a
      // sampled duration; traffic newly assigned to it is lost meanwhile.
      auto account_change = [&](EdgeId edge) {
        const Seconds downtime =
            latency.sample_downtime(procedure, latency_rng);
        metrics.reconfig_downtime_hours += downtime / util::kHour;
        const double load =
            report.plan.physical_assignment
                .edge_load_gbps[static_cast<std::size_t>(edge.value)];
        lost += load *
                std::min(downtime, config_.te_interval) / util::kHour;
      };
      // Device-backed account: drive the link's transceiver and charge
      // the actual downtime; a failed lock loses the tick's traffic.
      auto device_change = [&](EdgeId edge, util::Gbps to) {
        auto& device = devices[static_cast<std::size_t>(edge.value)];
        if (to.value <= 0.0) {
          device.power_off();
          return;
        }
        if (!device.laser_on())
          metrics.reconfig_downtime_hours += device.power_on() / util::kHour;
        const auto result = device.change_modulation(to, procedure);
        metrics.reconfig_downtime_hours += result.downtime / util::kHour;
        const double load =
            report.plan.physical_assignment
                .edge_load_gbps[static_cast<std::size_t>(edge.value)];
        lost += load *
                std::min(result.downtime, config_.te_interval) /
                util::kHour;
        if (!result.success) {
          ++metrics.lock_failures;
          lost += load * tick_hours;
        }
      };
      auto apply_change = [&](EdgeId edge, util::Gbps to) {
        if (config_.device_backed)
          device_change(edge, to);
        else
          account_change(edge);
      };

      for (const auto& restoration : report.restorations) {
        ++metrics.restorations;
        apply_change(restoration.edge, restoration.to);
      }
      for (const auto& flap : report.reductions) {
        if (flap.to.value > 0.0) {
          ++metrics.link_flaps;
          apply_change(flap.edge, flap.to);
        } else {
          ++metrics.link_failures;
          if (config_.device_backed)
            devices[static_cast<std::size_t>(flap.edge.value)].power_off();
        }
      }
      if (config_.device_backed) {
        // Upgrades execute through the orchestrator: drain, parallel
        // modulation changes over MDIO, restore.
        const auto execution =
            orchestrator.execute(controller.current_topology(), previous,
                                 report.plan, devices);
        metrics.reconfig_downtime_hours +=
            execution.makespan / util::kHour;
        lost += execution.parked_gbps_seconds / util::kHour;
        if (!execution.success) {
          for (const auto& event : execution.timeline)
            if (event.kind ==
                core::OrchestratorEvent::Kind::kReconfigureFailed) {
              ++metrics.lock_failures;
              lost += report.plan.physical_assignment.edge_load_gbps
                          [static_cast<std::size_t>(event.edge.value)] *
                      tick_hours;
            }
        }
      } else {
        for (const auto& change : report.plan.upgrades)
          account_change(change.edge);
      }
      for (EdgeId edge : topology_.edge_ids())
        if (controller.configured_capacity(edge).value > 0.0) ++links_up;
    } else {
      // Static policy: binary up/down at the fixed rate's threshold.
      const Db threshold = table.threshold_for(static_rate);
      for (std::size_t e = 0; e < edges; ++e) {
        const bool up =
            snr[e] >= threshold + config_.snr_margin;
        if (!up && static_up[e]) ++metrics.link_failures;
        static_up[e] = up;
        if (up) ++links_up;
        static_topology.edge(EdgeId{static_cast<std::int32_t>(e)})
            .capacity = up ? static_rate : Gbps{0.0};
      }
      const auto assignment = engine_.solve(static_topology, demands);
      routed = assignment.total_routed.value;
    }

    metrics.delivered_gbps_hours +=
        std::max(0.0, routed * tick_hours - lost);
    metrics.availability += static_cast<double>(links_up) /
                            static_cast<double>(edges);
  }
  if (metrics.te_rounds > 0)
    metrics.availability /= static_cast<double>(metrics.te_rounds);
  return metrics;
}

std::vector<ScenarioResult> run_scenarios(const graph::Graph& topology,
                                          const te::TeAlgorithm& engine,
                                          const te::TrafficMatrix& base_demands,
                                          std::span<const Scenario> scenarios,
                                          exec::ThreadPool* pool) {
  exec::ThreadPool& effective =
      pool != nullptr ? *pool : exec::ThreadPool::global();
  return exec::parallel_map(
      effective, scenarios.size(), [&](std::size_t i) {
        WanSimulator simulator(topology, engine, scenarios[i].config);
        return ScenarioResult{scenarios[i].name,
                              simulator.run(base_demands)};
      });
}

}  // namespace rwc::sim
