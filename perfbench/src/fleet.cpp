// fleet: many small steady-state rounds. fleet::run_fleet in its default
// shape (8-12-node instances, 96 rounds, hysteresis, incremental memo and
// partial tier on, oracle demand, McfTe) is called on successive studies
// of kStudyInstances instances until the run's time is up. This is where
// the memo -> warm -> partial solver ladder, replay streaming and shard
// parallelism do their work, and consolidation does little.
#include <algorithm>
#include <string_view>

#include "exec/thread_pool.hpp"
#include "fleet/fleet.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Instances per run_fleet call: two per default shard.
constexpr std::size_t kStudyInstances = 16;
/// Instances whose chains the pool-1 cross-check recomputes.
constexpr std::size_t kCrossCheckInstances = 4;
/// Instances whose one-round runs make up set-up.
constexpr std::size_t kSetupInstances = 8;
/// Instances of the pinned fleet chain.
constexpr std::size_t kPinnedInstances = 8;

rwc::fleet::FleetConfig study_config(std::uint64_t seed,
                                     std::size_t instances,
                                     rwc::exec::ThreadPool& pool) {
  rwc::fleet::FleetConfig config;
  config.instances = instances;
  config.seed = seed;
  config.pool = &pool;
  return config;
}

std::uint64_t study_seed(std::uint64_t seed, std::size_t study) {
  return rwc::util::Rng::stream(seed, 0xf1ee7000ull + study).next_u64();
}

double histogram_sum(std::string_view name) {
  return rwc::obs::Registry::global().histogram(name).sum();
}

/// Serial run_instance pass (the traced shape): exact per-instance timing
/// and counters, since nothing else runs beside each instance.
struct SerialPass {
  std::vector<double> seconds;
  std::vector<std::uint64_t> chains;
  double rounds = 0.0;
  double link_rounds = 0.0;  ///< sum over instances of rounds * edges
};

SerialPass run_serial(const rwc::fleet::FleetConfig& config,
                      std::size_t count, double seconds, Tracer& tracer) {
  SerialPass pass;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; count > 0 ? i < count : true; ++i) {
    if (count == 0 && i > 0 && seconds_since(start) >= seconds) break;
    const Clock::time_point begin = Clock::now();
    rwc::fleet::InstanceResult result;
    {
      const Tracer::Scope span =
          tracer.span("fleet.run_instance", static_cast<std::int64_t>(i));
      result = rwc::fleet::run_instance(config, i);
    }
    pass.seconds.push_back(seconds_since(begin));
    pass.chains.push_back(result.signature_chain);
    pass.rounds += static_cast<double>(result.rounds);
    pass.link_rounds += static_cast<double>(result.rounds) *
                        static_cast<double>(result.link_nominal_gbps.size());
  }
  return pass;
}

/// The traced pass runs instances one by one on `serial`, which has no
/// workers: each instance's nested work (consolidation waves, replay chunk
/// refills) runs inline, as it does on a run_fleet worker, and nothing
/// runs beside it. The exec counts come from one study on `pool`, the
/// measured shape, as a whole-pass delta.
void run_traced(const Options& options, rwc::exec::ThreadPool& serial,
                rwc::exec::ThreadPool& pool, Outcome& outcome) {
  // run_instance only needs its id below the configured count; the pass
  // stops on time long before this many instances.
  const rwc::fleet::FleetConfig config =
      study_config(study_seed(options.seed, 0), 1 << 20, serial);
  Tracer off(false);
  const SerialPass untraced = run_serial(config, 0, options.seconds / 2, off);
  const std::size_t n = untraced.seconds.size();

  const CounterDelta delta;
  const char* stages[] = {"controller.round.seconds",
                          "controller.round.consolidate.seconds",
                          "controller.round.augment.seconds",
                          "controller.round.solve.seconds",
                          "controller.round.translate.seconds",
                          "controller.round.transition.seconds",
                          "solver.incremental_dirty_links"};
  std::vector<double> before;
  for (const char* stage : stages) before.push_back(histogram_sum(stage));
  Tracer tracer(true);
  const SerialPass traced = run_serial(config, n, 0.0, tracer);
  std::vector<double> sums;
  for (std::size_t s = 0; s < std::size(stages); ++s)
    sums.push_back(histogram_sum(stages[s]) - before[s]);

  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i)
    mismatches += traced.chains[i] != untraced.chains[i] ? 1 : 0;
  outcome.count(n, mismatches, "traced and untraced instance chains differ");

  const double rounds = traced.rounds;
  double traced_seconds = 0.0;
  double untraced_seconds = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    traced_seconds += traced.seconds[i];
    untraced_seconds += untraced.seconds[i];
  }
  outcome.set("trace.overhead", traced_seconds / untraced_seconds - 1.0);
  outcome.set("core.run_round_s", sums[0] / rounds);
  outcome.set("core.consolidate_s", sums[1] / rounds);
  outcome.set("core.consolidate_share", ratio(sums[1], sums[0]));
  outcome.set("core.augment_s", sums[2] / rounds);
  outcome.set("te.solve_s", sums[3] / rounds);
  outcome.set("core.translate_s", sums[4] / rounds);
  outcome.set("core.transition_s", sums[5] / rounds);
  outcome.set("core.dirty_fraction", sums[6] / traced.link_rounds);
  outcome.set("core.evaluations",
              static_cast<double>(delta("controller.evaluations")) / rounds);
  outcome.absent["core.eval_waste"] =
      "the traced fleet pass is serial, so no speculative wave runs";
  fill_solver_layers(outcome, delta, rounds);
  CounterDelta pool_delta;
  const rwc::fleet::FleetResult study = rwc::fleet::run_fleet(
      study_config(study_seed(options.seed, 0), kStudyInstances, pool));
  pool_delta.stop();
  const double study_rounds = static_cast<double>(study.total_rounds);
  outcome.set("exec.tasks",
              static_cast<double>(pool_delta("exec.tasks")) / study_rounds);
  outcome.set("exec.steals",
              static_cast<double>(pool_delta("exec.steals")) / study_rounds);
  outcome.note("exec counts come from one " +
               std::to_string(kStudyInstances) + "-instance run_fleet study "
               "on the measured pool");
  outcome.set("fleet.instance_p50_s", quantile(traced.seconds, 0.5));
  outcome.set("fleet.instance_max_s",
              *std::max_element(traced.seconds.begin(), traced.seconds.end()));
  for (const auto& [layer, self] : tracer.self_seconds_by_layer())
    outcome.set(layer + ".self_s", self / rounds);
  outcome.note("traced pass: fleet::run_instance called serially on a "
               "pool of 0 workers on " +
               std::to_string(n) + " instances (" +
               std::to_string(static_cast<std::uint64_t>(rounds)) +
               " rounds), so per-round registry deltas are exact");
  outcome.note("core stage timers are per-round means of summed evaluations");
  if (!options.trace_path.empty() &&
      !tracer.write_chrome_trace(options.trace_path))
    outcome.fail("cannot write trace file " + options.trace_path);
}

}  // namespace

Outcome run_fleet(const Options& options) {
  Outcome outcome;
  const std::size_t workers = pool_workers(1);
  rwc::exec::ThreadPool pool(workers);
  outcome.note("pool workers: " + std::to_string(workers));

  // Fleet instances generate their inputs inside run_instance; set-up is
  // what the first study does before its rounds, measured as one-round
  // runs of its first kSetupInstances instances.
  // Timed on a serial pool: a set-up lasts milliseconds, and pool
  // hand-offs at that scale mostly time the machine's other tenants.
  rwc::exec::ThreadPool serial(0);
  const auto one_round_instances = [&] {
    rwc::fleet::FleetConfig config =
        study_config(study_seed(options.seed, 0), kSetupInstances, serial);
    config.rounds = 1;
    for (std::size_t i = 0; i < kSetupInstances; ++i)
      rwc::fleet::run_instance(config, i);
  };
  SetupSampler setup(options.seconds, one_round_instances);
  for (int i = 0; i < kSetupRepeats; ++i) setup.time(one_round_instances);

  if (options.trace) {
    run_traced(options, serial, pool, outcome);
  } else {
    const CounterDelta delta;
    std::vector<double> call_seconds;
    double rounds = 0.0;
    std::uint64_t memo_hits = 0;
    std::vector<std::uint64_t> first_chains;
    const Clock::time_point start = Clock::now();
    for (std::size_t study = 0;
         study < 2 || seconds_since(start) < options.seconds; ++study) {
      const rwc::fleet::FleetConfig config = study_config(
          study_seed(options.seed, study), kStudyInstances, pool);
      const Clock::time_point begin = Clock::now();
      const rwc::fleet::FleetResult result = rwc::fleet::run_fleet(config);
      call_seconds.push_back(seconds_since(begin));
      rounds += static_cast<double>(result.total_rounds);
      memo_hits += result.incremental_hits;
      outcome.attempted += result.instances.size();
      if (study == 0)
        for (std::size_t i = 0; i < kCrossCheckInstances; ++i)
          first_chains.push_back(result.instances[i].signature_chain);
      setup.poll(seconds_since(start));
    }
    double total = 0.0;
    for (const double seconds : call_seconds) total += seconds;
    outcome.set("rounds_per_s", rounds / total);
    outcome.set("latency_p50_ms", quantile(call_seconds, 0.5) * 1e3);
    outcome.set("latency_p90_ms", quantile(call_seconds, 0.9) * 1e3);
    const std::uint64_t repairs = delta("solver.partial_repairs");
    outcome.check(memo_hits > 0, "gate: zero memo hits");
    outcome.check(repairs > 0, "gate: zero partial repairs");
    outcome.note("studies: " + std::to_string(call_seconds.size()) + " x " +
                 std::to_string(kStudyInstances) + " instances, memo hits " +
                 std::to_string(memo_hits) + ", partial repairs " +
                 std::to_string(repairs));

    // Shard and pool invariance: the first study's leading instances
    // recomputed on a serial pool must reproduce their slots.
    const rwc::fleet::FleetResult again = rwc::fleet::run_fleet(study_config(
        study_seed(options.seed, 0), kCrossCheckInstances, serial));
    for (std::size_t i = 0; i < kCrossCheckInstances; ++i)
      outcome.check(again.instances[i].signature_chain == first_chains[i],
                    "instance " + std::to_string(i) +
                        " differs between pool sizes");
  }

  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    const rwc::fleet::FleetResult pinned =
        rwc::fleet::run_fleet(study_config(seed, kPinnedInstances, pool));
    outcome.check_pin(options, seed, "fleet_chain", pinned.fleet_chain);
  }
  outcome.setup_seconds = setup.median();
  return outcome;
}

}  // namespace perfbench
