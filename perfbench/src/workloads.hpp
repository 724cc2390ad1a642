// The four benchmark workloads. Each drives the library only through its
// public entry points, times the calls it makes, and fills an Outcome:
// end-to-end values for an untraced run, per-layer values for a traced one.
#pragma once

#include "common.hpp"

namespace perfbench {

Outcome run_cold_round(const Options& options);
Outcome run_fleet(const Options& options);
Outcome run_closed_loop(const Options& options);
Outcome run_serve(const Options& options);

/// Per-layer values derived from whole-pass registry counter deltas, which
/// stay exact when the work ran in parallel. `rounds` normalizes counts.
void fill_solver_layers(Outcome& outcome, const CounterDelta& delta,
                        double rounds);

}  // namespace perfbench
