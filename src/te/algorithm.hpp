// The TE engine interface. Theorem 1's promise is that engines implementing
// this interface run UNMODIFIED on augmented topologies: they receive a
// Graph whose edges carry <capacity, cost, weight> and a TrafficMatrix, and
// return a FlowAssignment. Nothing here knows about SNR or fake links.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "te/demand.hpp"

namespace rwc::te {

/// How a sequential engine's solve used each edge, kept so that a later
/// trial on the same graph minus some edges can reuse every demand solved
/// before a removed edge first mattered (docs/SOLVERS.md §6).
struct SolveTrace {
  static constexpr std::uint32_t kNever =
      std::numeric_limits<std::uint32_t>::max();
  /// Per graph edge: the position, in the engine's demand order, of the
  /// first demand whose solve the edge could have influenced; kNever when
  /// none did. Empty when the engine keeps no trace.
  std::vector<std::uint32_t> first_won;
  /// Demand solves a trial copied from its base / ran itself.
  std::uint64_t demands_reused = 0;
  std::uint64_t demands_solved = 0;

  bool empty() const { return first_won.empty(); }
};

/// The solve a trial derives from: its output and trace on the base graph,
/// and where each base edge went in the trial graph (an invalid id when the
/// trial removed it). Kept edges keep their attributes and relative order,
/// and the trial graph has no other edges; the demands are the base's.
struct TrialBase {
  const FlowAssignment& assignment;
  const SolveTrace& trace;
  std::span<const graph::EdgeId> edge_map;
};

class TeAlgorithm {
 public:
  virtual ~TeAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Routes as much of `demands` as possible subject to edge capacities,
  /// preferring low-cost edges (engines differ in how strictly).
  virtual FlowAssignment solve(const graph::Graph& graph,
                               const TrafficMatrix& demands) const = 0;

  /// solve(), plus a trace into `trace` for engines that keep one. With
  /// `base` set the call is a trial that may reuse the base solve's
  /// unaffected prefix; the result must equal solve() on `graph` bit for
  /// bit. The default keeps no trace and just calls solve(), so a caller
  /// falls back to full solves for engines that do not override it.
  virtual FlowAssignment solve_traced(const graph::Graph& graph,
                                      const TrafficMatrix& demands,
                                      const TrialBase* /*base*/,
                                      SolveTrace& trace) const {
    trace = SolveTrace{};
    return solve(graph, demands);
  }
};

}  // namespace rwc::te
