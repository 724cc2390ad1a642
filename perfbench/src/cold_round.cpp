// cold_round: the controller's worst-case round. Every instance is a fresh
// DynamicCapacityController (McfTe, cold engine caches) running its first
// run_round on a 16-18-node Waxman WAN whose every link sits in the
// walk/run SNR range, so every headroom link is variable and Algorithm-1
// consolidation does nearly all the work.
#include <memory>
#include <optional>

#include "exec/thread_pool.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Controller = rwc::core::DynamicCapacityController;

/// Rounds a run measures at least, whatever --seconds says.
constexpr std::size_t kMinRounds = 100;
/// Instances of the pinned-output check per pinned seed.
constexpr std::size_t kPinnedRounds = 3;

struct Instance {
  rwc::graph::Graph topology;
  rwc::te::TrafficMatrix demands;
  std::vector<rwc::util::Db> snr;
};

Instance make_instance(std::uint64_t seed, std::size_t id) {
  rwc::util::Rng rng = rwc::util::Rng::stream(seed, 0xc01d0000ull + id);
  Instance instance;
  // Sizes cycle through 16, 17, 18 so every run sees the same size mix.
  const int nodes = 16 + static_cast<int>(id % 3);
  instance.topology = rwc::sim::waxman(nodes, rng);
  rwc::sim::GravityParams gravity;
  gravity.total =
      rwc::util::Gbps{instance.topology.total_capacity().value * 0.5};
  instance.demands =
      rwc::sim::gravity_matrix(instance.topology, gravity, rng);
  // Both directions of a physical link share one SNR, drawn between the
  // 100 G (walk) and 200 G (run) thresholds plus the 0.5 dB margin.
  const std::size_t edges = instance.topology.edge_count();
  instance.snr.resize(edges);
  for (std::size_t e = 0; e + 1 < edges; e += 2) {
    const rwc::util::Db snr{rng.uniform(7.0, 16.0)};
    instance.snr[e] = snr;
    instance.snr[e + 1] = snr;
  }
  return instance;
}

struct RoundRecord {
  double seconds = 0.0;
  std::uint64_t signature = 0;
  Controller::RoundStats stats;
};

/// Constructs a fresh controller and runs its first round; checks the
/// routing fits the capacities the round configured. The record's time
/// covers both, so work moved from run_round into construction still
/// counts as part of the cold round.
RoundRecord run_one(const Instance& instance, rwc::exec::ThreadPool& pool,
                    Tracer& tracer, std::int64_t id, Outcome& outcome) {
  const rwc::te::McfTe engine;
  rwc::core::ControllerOptions options;
  options.pool = &pool;
  std::optional<Controller> controller;
  const Clock::time_point start = Clock::now();
  {
    const Tracer::Scope span = tracer.span("core.construct", id);
    controller.emplace(instance.topology,
                       rwc::optical::ModulationTable::standard(), engine,
                       options);
  }
  RoundRecord record;
  Controller::RoundReport report;
  {
    const Tracer::Scope span = tracer.span("core.run_round", id);
    report = controller->run_round(instance.snr, instance.demands);
  }
  record.seconds = seconds_since(start);
  record.stats = report.stats;
  record.signature = round_signature(*controller, report);
  bool valid = true;
  try {
    rwc::te::validate_assignment(controller->current_topology(),
                                 controller->last_assignment());
  } catch (const rwc::util::CheckError&) {
    valid = false;
  }
  outcome.check(valid, "round " + std::to_string(id) +
                           ": routing exceeds configured capacity");
  return record;
}

struct Pass {
  std::vector<RoundRecord> rounds;
  double seconds = 0.0;
};

/// Runs instances 0, 1, ... until `seconds` elapsed and at least
/// `min_rounds` ran, or exactly `exact_rounds` when that is non-zero.
Pass run_pass(std::vector<Instance>& instances, std::uint64_t seed,
              rwc::exec::ThreadPool& pool, Tracer& tracer, Outcome& outcome,
              double seconds, std::size_t min_rounds,
              std::size_t exact_rounds = 0, SetupSampler* setup = nullptr) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (exact_rounds > 0 ? i >= exact_rounds
                         : i >= min_rounds && seconds_since(start) >= seconds)
      break;
    if (i == instances.size()) instances.push_back(make_instance(seed, i));
    pass.rounds.push_back(run_one(instances[i], pool, tracer,
                                  static_cast<std::int64_t>(i), outcome));
    pass.seconds += pass.rounds.back().seconds;
    if (setup != nullptr) setup->poll(seconds_since(start));
  }
  return pass;
}

std::uint64_t chain_of(const Pass& pass) {
  std::uint64_t chain = 0x636f6c64ull;  // "cold"
  for (const RoundRecord& round : pass.rounds)
    chain = mix64(chain, round.signature);
  return chain;
}

std::uint64_t consolidation_trials(const Pass& pass) {
  std::uint64_t trials = 0;
  for (const RoundRecord& round : pass.rounds)
    trials += round.stats.evaluations - 1;
  return trials;
}

void check_pins(const Options& options, rwc::exec::ThreadPool& pool,
                Outcome& outcome) {
  Tracer off(false);
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    std::vector<Instance> instances;
    const Pass pass = run_pass(instances, seed, pool, off, outcome, 0.0, 0,
                               kPinnedRounds);
    outcome.check_pin(options, seed, "chain", chain_of(pass));
  }
}

/// `traced` is the serial traced pass; `parallel` ran the same instances
/// on a pool of `workers` and `parallel_delta` spans it.
void report_layers(const Pass& traced, const CounterDelta& traced_delta,
                   const Pass& parallel, const CounterDelta& parallel_delta,
                   Outcome& outcome) {
  const double n = static_cast<double>(traced.rounds.size());
  Controller::RoundStats sum;
  double evaluations = 0.0;
  for (const RoundRecord& round : traced.rounds) {
    sum.total_seconds += round.stats.total_seconds;
    sum.consolidate_seconds += round.stats.consolidate_seconds;
    sum.augment_seconds += round.stats.augment_seconds;
    sum.solve_seconds += round.stats.solve_seconds;
    sum.translate_seconds += round.stats.translate_seconds;
    sum.transition_seconds += round.stats.transition_seconds;
    evaluations += static_cast<double>(round.stats.evaluations);
  }
  double parallel_evaluations = 0.0;
  for (const RoundRecord& round : parallel.rounds)
    parallel_evaluations += static_cast<double>(round.stats.evaluations);

  outcome.set("core.run_round_s", sum.total_seconds / n);
  outcome.set("core.consolidate_s", sum.consolidate_seconds / n);
  outcome.set("core.consolidate_share",
              ratio(sum.consolidate_seconds, sum.total_seconds));
  outcome.set("core.evaluations", evaluations / n);
  outcome.set("core.eval_waste",
              1.0 - ratio(evaluations, parallel_evaluations));
  outcome.set("core.augment_s", sum.augment_seconds / n);
  outcome.set("core.translate_s", sum.translate_seconds / n);
  outcome.set("core.transition_s", sum.transition_seconds / n);
  outcome.set("te.solve_s", sum.solve_seconds / n);
  outcome.absent["core.dirty_fraction"] =
      "dirty links are tracked only by the incremental memo, off here";
  fill_solver_layers(outcome, traced_delta, n);
  outcome.absent["core.memo_hit_ratio"] =
      "a fresh controller's first round has no memo to hit";
  // Scheduling work happens only on the pool pass.
  outcome.set("exec.tasks",
              static_cast<double>(parallel_delta("exec.tasks")) / n);
  outcome.set("exec.steals",
              static_cast<double>(parallel_delta("exec.steals")) / n);
  outcome.note("exec counts and the evaluations behind eval_waste come from "
               "a pass on a pool of nproc - 1 workers");
  outcome.note(std::string("claim: consolidation >= 90% of run_round: ") +
               (ratio(sum.consolidate_seconds, sum.total_seconds) >= 0.9
                    ? "confirmed"
                    : "NOT confirmed"));
}

}  // namespace

Outcome run_cold_round(const Options& options) {
  Outcome outcome;
  // Measured rounds run serially: speculative waves synchronise per wave,
  // which makes pool timings swing with load from other tenants of a
  // shared machine. The traced run measures the pool separately.
  rwc::exec::ThreadPool serial(0);
  outcome.note("measured rounds run serially (pool of 0 workers)");

  const auto generate = [&](std::vector<Instance>& out) {
    out.clear();
    for (std::size_t i = 0; i < kMinRounds; ++i)
      out.push_back(make_instance(options.seed, i));
  };
  std::vector<Instance> instances;
  SetupSampler setup(options.seconds, [&] {
    std::vector<Instance> scratch;
    generate(scratch);
  });
  for (int i = 0; i < kSetupRepeats; ++i)
    setup.time([&] { generate(instances); });

  Tracer off(false);
  if (!options.trace) {
    const Pass pass = run_pass(instances, options.seed, serial, off, outcome,
                               options.seconds, kMinRounds, 0, &setup);
    std::vector<double> seconds;
    for (const RoundRecord& round : pass.rounds)
      seconds.push_back(round.seconds);
    outcome.set("rounds_per_s",
                static_cast<double>(pass.rounds.size()) / pass.seconds);
    outcome.set("latency_p50_ms", quantile(seconds, 0.5) * 1e3);
    outcome.set("latency_p90_ms", quantile(seconds, 0.9) * 1e3);
    const std::uint64_t trials = consolidation_trials(pass);
    outcome.check(trials > 0, "gate: zero consolidation trials ran");
    outcome.note("rounds: " + std::to_string(pass.rounds.size()) +
                 ", consolidation trials: " + std::to_string(trials));
  } else {
    // Untraced and traced serial passes over the same instances give the
    // tracing overhead; a pass on a pool gives the speculative waste and
    // must decide every round identically.
    const double third = options.seconds / 3.0;
    const Pass untraced = run_pass(instances, options.seed, serial, off,
                                   outcome, third, 1);
    const std::size_t n = untraced.rounds.size();
    Tracer tracer(true);
    CounterDelta traced_delta;
    const Pass traced = run_pass(instances, options.seed, serial, tracer,
                                 outcome, 0.0, 0, n);
    traced_delta.stop();
    const std::size_t workers = pool_workers(1);
    rwc::exec::ThreadPool pool(workers);
    CounterDelta parallel_delta;
    const Pass parallel = run_pass(instances, options.seed, pool, off,
                                   outcome, 0.0, 0, n);
    parallel_delta.stop();
    outcome.check(chain_of(parallel) == chain_of(traced),
                  "serial and pool-" + std::to_string(workers) +
                      " rounds disagree");
    outcome.check(consolidation_trials(traced) > 0,
                  "gate: zero consolidation trials ran");
    outcome.set("trace.overhead", traced.seconds / untraced.seconds - 1.0);
    report_layers(traced, traced_delta, parallel, parallel_delta, outcome);
    for (const auto& [layer, self] : tracer.self_seconds_by_layer())
      outcome.set(layer + ".self_s", self / static_cast<double>(n));
    if (!options.trace_path.empty() &&
        !tracer.write_chrome_trace(options.trace_path))
      outcome.fail("cannot write trace file " + options.trace_path);
  }
  check_pins(options, serial, outcome);
  outcome.setup_seconds = setup.median();
  return outcome;
}

}  // namespace perfbench
