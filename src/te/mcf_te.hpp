// Min-cost-flow TE: demands are routed sequentially (priority order, then
// input order) as min-cost flows against the capacities earlier demands
// left. This is the engine the augmentation theorem directly targets: on an
// augmented topology the min-cost route maximizes throughput while
// minimizing activation penalty for each demand in turn. Each call builds
// one residual network (arc pair i = edge i) and resets it to the remaining
// capacities before each demand (flow::ResidualNetwork::set_capacities), so
// every per-demand solve sees the network a fresh build would give.
//
// Warm starts: every per-demand solve is keyed by an exact fingerprint of
// its residual network (capacities after earlier demands, costs,
// terminals). Across controller rounds where little changed — the common
// steady state — most per-demand networks recur bit-identically and the
// min-cost solver replays its recorded augmenting paths instead of running
// Dijkstra per path. Replay is exact, so results are bit-identical to cold
// solves; on any change the fingerprint misses and the solve runs cold
// (docs/CONCURRENCY.md, "Warm starts"). Safe under concurrent solve()
// calls: the cache is thread-safe and only affects timing, never results.
//
// Trials: solve_traced() with a base reuses the routings of every demand
// solved before the first one in which an edge the trial removed won a
// relaxation — those solves are bit-identical on the trial graph — and
// solves only the rest, without touching the warm cache (docs/SOLVERS.md
// §6). The consolidation pass's one-upgrade-fewer trials are this case.
#pragma once

#include "flow/mincost.hpp"
#include "te/algorithm.hpp"
#include "util/env.hpp"

namespace rwc::te {

class McfTe final : public TeAlgorithm {
 public:
  struct Options {
    /// Record/replay per-demand min-cost solves (exact; on by default).
    bool warm_start = true;
    /// Max recordings kept (FIFO); ~one per (demand, topology state). Must
    /// cover a full round's demand count or cyclic FIFO thrash turns every
    /// repeat solve into a miss (docs/CONCURRENCY.md, "Warm starts").
    std::size_t warm_cache_entries = 8192;
    /// On an exact-fingerprint miss, look up a structurally matching
    /// recording and let the solver attempt a verified partial repair
    /// (docs/SOLVERS.md). Bit-identical to a cold solve by construction;
    /// RWC_PARTIAL_RESOLVE=0 flips the default off for bisection.
    bool partial_repair = util::env_flag("RWC_PARTIAL_RESOLVE", true);
  };

  McfTe() : McfTe(Options{}) {}
  explicit McfTe(Options options)
      : options_(options), warm_cache_(options.warm_cache_entries) {}

  std::string name() const override { return "mcf"; }

  FlowAssignment solve(const graph::Graph& graph,
                       const TrafficMatrix& demands) const override;

  /// Traced solve; a trial when `base` is set. While a fault plan is armed
  /// a trial runs as a full solve() and keeps no trace: `flow.mincost`
  /// faults key on network fingerprints, which a copied demand never
  /// computes on the trial graph.
  FlowAssignment solve_traced(const graph::Graph& graph,
                              const TrafficMatrix& demands,
                              const TrialBase* base,
                              SolveTrace& trace) const override;

  const Options& options() const { return options_; }

  /// The engine's warm-start store, exposed for checkpointing
  /// (rwc::replay persists or cold-resets it across restore). Mutating it
  /// only changes solve timing, never results.
  flow::WarmStartCache& warm_cache() const { return warm_cache_; }

 private:
  /// The one per-demand loop behind solve() and solve_traced(): traces
  /// into `trace` when non-null; with `base`, copies the reusable prefix
  /// and solves the rest without the warm cache.
  FlowAssignment run(const graph::Graph& graph, const TrafficMatrix& demands,
                     const TrialBase* base, SolveTrace* trace) const;

  Options options_;
  mutable flow::WarmStartCache warm_cache_;
};

}  // namespace rwc::te
