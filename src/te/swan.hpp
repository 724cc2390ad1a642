// SWAN-style LP traffic engineering (Hong et al., SIGCOMM 2013):
// path-based multi-commodity flow over k preinstalled tunnels per demand,
// solved lexicographically — priority classes high to low, maximize
// throughput, then minimize total edge cost at that throughput (the pass
// that makes augmentation penalties effective), with optional approximate
// max-min fairness within a class via iterative LP water-filling.
//
// Stateless: every solve recomputes tunnels and solves each LP cold, so the
// result is a pure function of (graph, demands) and one engine may be shared
// by concurrent solvers (docs/SOLVERS.md, "SWAN solves cold").
#pragma once

#include "te/algorithm.hpp"

namespace rwc::te {

class SwanTe final : public TeAlgorithm {
 public:
  struct Options {
    std::size_t paths_per_demand = 4;
    bool max_min_fairness = false;
    /// Relative slack when fixing the throughput between the two passes.
    double throughput_slack = 1e-9;
  };

  SwanTe() : options_{} {}
  explicit SwanTe(Options options) : options_(options) {}

  std::string name() const override { return "swan"; }

  FlowAssignment solve(const graph::Graph& graph,
                       const TrafficMatrix& demands) const override;

 private:
  Options options_;
};

}  // namespace rwc::te
