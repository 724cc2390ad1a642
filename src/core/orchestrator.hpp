// Timed, device-backed execution of a reconfiguration plan.
//
// The controller decides WHAT to change; this orchestrator executes it the
// way an operator would, against the per-link BVT devices:
//   phase 1 (drain)       — the route removals of the rwc::update schedule,
//                           so no traffic rides a link while its
//                           modulation change would strand it;
//   phase 2 (reconfigure) — MDIO-driven modulation changes, in parallel
//                           across links (each samples its own downtime);
//   phase 3 (restore)     — the schedule's route additions onto the new
//                           capacities.
// The produced timeline quantifies the §3.1 question at network level: how
// long a capacity change takes end-to-end and how much traffic had to be
// parked, under the standard (laser-cycling) vs efficient procedure.
#pragma once

#include <string>
#include <vector>

#include "bvt/device.hpp"
#include "core/translate.hpp"
#include "te/demand.hpp"

namespace rwc::core {

struct OrchestratorEvent {
  enum class Kind {
    kDrainStep,
    kReconfigureStart,
    kReconfigureDone,
    kReconfigureFailed,
    kRestoreStep,
  };
  util::Seconds at = 0.0;  // offset from execution start
  Kind kind = Kind::kDrainStep;
  graph::EdgeId edge;  // valid for reconfigure events
  std::string description;
};

struct ExecutionReport {
  std::vector<OrchestratorEvent> timeline;
  /// End-to-end duration of the whole execution.
  util::Seconds makespan = 0.0;
  /// Traffic-time parked off reconfigured links: sum over changes of
  /// (previous traffic on the link) x (its reconfiguration downtime).
  double parked_gbps_seconds = 0.0;
  /// The update schedule was feasible and all modulation changes locked
  /// at their target rate.
  bool success = true;
};

/// Per-physical-edge BVT devices (indexed by EdgeId).
using DeviceArray = std::vector<bvt::BvtDevice>;

/// Builds one device per edge of `topology`, lasers on, SNR preset.
DeviceArray make_device_array(const graph::Graph& topology,
                              const optical::ModulationTable& table,
                              std::uint64_t seed,
                              util::Db initial_snr = util::Db{16.0});

class ReconfigurationOrchestrator {
 public:
  struct Options {
    bvt::Procedure procedure = bvt::Procedure::kEfficient;
    /// Latency of pushing one routing update step to the dataplane.
    util::Seconds routing_step_latency = 0.005;
  };

  explicit ReconfigurationOrchestrator(Options options) : options_(options) {}

  /// Executes `plan` against `devices`. `topology_after` must carry the
  /// post-plan capacities; `before` is the routing in effect beforehand.
  /// Drain and restore steps come from update::plan_schedule under this
  /// orchestrator's procedure, so kStandard also drains kept paths that
  /// cross a dark link. Devices of upgraded links are driven through
  /// change_modulation; an infeasible schedule or a lock failure marks the
  /// report unsuccessful (the link SNR could not sustain the chosen rate —
  /// the controller's margin should prevent this).
  ExecutionReport execute(const graph::Graph& topology_after,
                          const te::FlowAssignment& before,
                          const ReconfigurationPlan& plan,
                          DeviceArray& devices) const;

 private:
  Options options_;
};

}  // namespace rwc::core
