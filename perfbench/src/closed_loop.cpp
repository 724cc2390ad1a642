// closed_loop: the north-star loop on one fixed WAN, driven step by step
// through public calls, in episodes of kEpisodeRounds rounds: each episode
// is a fresh loop fed inputs derived from the seed and the episode number,
// so every run measures the same rounds of the loop's life whatever the
// machine's speed. Each round reads one SNR sample per link from
// telemetry trace cursors (dip rates raised so dips force walk and crawl),
// estimates demand from the previous round's dataplane counters, runs the
// controller (oracle mode, update stage on) on the estimate, builds the
// round's capacity timeline and runs the flowlet dataplane over it. Demand
// is a demand-aware elephant matrix whose elephants rotate every few rounds.
#include <algorithm>
#include <cmath>
#include <memory>

#include "dataplane/counters.hpp"
#include "dataplane/dataplane.hpp"
#include "dataplane/timeline.hpp"
#include "demand/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "optical/modulation.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/mcf_te.hpp"
#include "telemetry/snr_model.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Controller = rwc::core::DynamicCapacityController;

constexpr int kNodes = 14;
constexpr std::uint64_t kTopologySeed = 14;
constexpr double kDemandLoad = 0.25;
constexpr std::size_t kRotateEvery = 4;
/// Horizon the SNR traces are generated for.
constexpr std::size_t kMaxRounds = 8192;
/// Rounds of one episode. A loop's rounds grow slower as the dataplane's
/// queues and rate cuts build up (about 50 ms at the start, 130 ms by
/// round 30 on the 4-core reference machine), so a run of a fixed time
/// would measure later, slower rounds on a faster machine. Fixed-length
/// episodes keep the measured mix of rounds the same in every run, and
/// several episodes per run average over the inputs the seed draws.
constexpr std::size_t kEpisodeRounds = 32;
constexpr std::size_t kPinnedRounds = 12;
constexpr std::size_t kCrossCheckRounds = 3;
/// Rounds of the traced run's pool pass.
constexpr std::size_t kPoolRounds = 8;
/// Gap-oracle tolerances of dataplane::run_xcheck.
constexpr double kGapTolerance = 0.02;
constexpr double kMinAllocGbps = 1e-3;
constexpr double kTeIntervalSeconds = 900.0;

struct Inputs {
  rwc::graph::Graph topology;
  rwc::te::TrafficMatrix base_demands;
  std::uint64_t snr_seed = 0;
  std::uint64_t update_seed = 0;
};

/// Inputs of episode `episode` of a run with `seed`; episode 0 uses the
/// seed's own stream, which the pinned chains cover.
Inputs make_inputs(std::uint64_t seed, std::uint64_t episode = 0) {
  Inputs inputs;
  // One fixed WAN and base demand: the dataplane's work and the engine
  // caches' memory follow both (a run's round time and peak memory moved
  // by a quarter between demand matrices), so the seed varies what the
  // loop sees over time, the SNR traces and update timings, not which
  // network and traffic it runs.
  rwc::util::Rng network_rng =
      rwc::util::Rng::stream(kTopologySeed, 0x100b0000ull);
  inputs.topology = rwc::sim::waxman(kNodes, network_rng);
  rwc::sim::DemandAwareParams params;
  params.total = rwc::util::Gbps{inputs.topology.total_capacity().value *
                                 kDemandLoad};
  inputs.base_demands =
      rwc::sim::demand_aware_matrix(inputs.topology, params, network_rng);
  rwc::util::Rng rng =
      rwc::util::Rng::stream(seed, 0x100b0001ull + (episode << 16));
  inputs.snr_seed = rng.next_u64();
  inputs.update_seed = rng.next_u64();
  return inputs;
}

rwc::telemetry::SnrFleetGenerator::FleetParams snr_params(
    std::size_t edges) {
  rwc::telemetry::SnrFleetGenerator::FleetParams params;
  params.fiber_count = static_cast<int>(edges / 2);
  params.wavelengths_per_fiber = 2;
  params.interval = kTeIntervalSeconds;
  params.duration = static_cast<double>(kMaxRounds + 1) * kTeIntervalSeconds;
  // Dip rates far above the calibrated fleet so every episode of 32
  // 15-minute rounds sees walk and crawl. No fiber cuts: at a raised rate
  // one episode in ten saw a cut, whose dark link made the whole episode
  // slower, so the p90 round time flipped between runs on whether a run
  // drew one cut episode or two.
  params.model.fiber_shallow_rate_per_year = 300.0;
  params.model.lambda_shallow_rate_per_year = 100.0;
  params.model.fiber_deep_rate_per_year = 50.0;
  params.model.lambda_deep_rate_per_year = 20.0;
  params.model.fiber_cut_rate_per_year = 0.0;
  return params;
}

/// Per-round observations the traced run turns into per-layer metrics.
struct LoopTotals {
  std::size_t rounds = 0;
  double loop_seconds = 0.0;
  std::vector<double> round_seconds;
  Controller::RoundStats stats;  ///< sums over rounds
  double evaluations = 0.0;
  double update_rounds = 0.0;
  double update_moves = 0.0;
  std::uint64_t estimates = 0;
  std::uint64_t exact = 0;
  double residual = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t rate_cuts = 0;
  double injected = 0.0;
  double dropped = 0.0;
  double max_queue = 0.0;
  double routed_share = 0.0;  ///< sum of routed / handed-in volume
  std::uint64_t reductions = 0;  ///< SNR-forced walk/crawl flaps
};

class Loop {
 public:
  Loop(const Inputs& inputs, rwc::exec::ThreadPool& pool)
      : inputs_(inputs),
        generator_(snr_params(inputs.topology.edge_count()),
                   inputs.snr_seed),
        controller_(inputs.topology, rwc::optical::ModulationTable::standard(),
                    engine_, controller_options(inputs, pool)),
        sim_(inputs.topology, inputs.base_demands.size(),
             dataplane_config(pool)),
        pipeline_(inputs.topology.edge_count(), demand_config()) {
    const std::size_t edges = inputs.topology.edge_count();
    for (std::size_t e = 0; e < edges; ++e)
      cursors_.emplace_back(generator_, static_cast<int>(e / 2),
                            static_cast<int>(e % 2));
    snr_.resize(edges);
  }

  /// Runs one loop round; returns its wall time.
  double step(Tracer& tracer, Outcome& outcome, LoopTotals& totals) {
    const std::int64_t r = static_cast<std::int64_t>(round_);
    const Clock::time_point start = Clock::now();
    const Tracer::Scope round_span = tracer.span("loop.round", r);
    {
      const Tracer::Scope span = tracer.span("telemetry.cursor", r);
      float sample = 0.0f;
      for (std::size_t e = 0; e < cursors_.size(); ++e) {
        cursors_[e].next(std::span<float>(&sample, 1));
        snr_[e] = rwc::util::Db{static_cast<double>(sample)};
      }
    }
    const rwc::te::TrafficMatrix intent =
        rwc::sim::rotate_elephants(inputs_.base_demands, round_ / kRotateEvery);
    rwc::te::TrafficMatrix demands = intent;
    if (round_ > 0) {
      {
        const Tracer::Scope span = tracer.span("demand.counters", r);
        const rwc::demand::RoutingMatrix matrix =
            rwc::demand::build_routing_matrix(
                inputs_.topology.edge_count(), installed_, previous_);
        std::vector<double> volumes;
        for (const auto& routing : previous_.routings)
          volumes.push_back(routing.routed.value);
        const auto observations =
            rwc::dataplane::counter_observations(last_, matrix, volumes);
        pipeline_.push_replay(rwc::demand::counters_from_observations(
            matrix, volumes, observations,
            pipeline_.config().interval_seconds, round_));
      }
      const Tracer::Scope span = tracer.span("demand.round", r);
      rwc::demand::DemandPipeline::Result estimate =
          pipeline_.round(intent, previous_);
      ++totals.estimates;
      totals.exact += estimate.stats.exact ? 1 : 0;
      totals.residual += estimate.stats.residual;
      demands = std::move(estimate.demands);
    }

    const std::span<const rwc::util::Gbps> configured =
        controller_.configured_capacities();
    const std::vector<rwc::util::Gbps> before(configured.begin(),
                                              configured.end());
    Controller::RoundReport report;
    {
      const Tracer::Scope span = tracer.span("core.run_round", r);
      report = controller_.run_round(snr_, demands);
    }
    rwc::dataplane::CapacityTimeline timeline;
    {
      const Tracer::Scope span = tracer.span("dataplane.timeline", r);
      const rwc::update::UpdateSchedule* schedule =
          report.update.has_value() && report.update_valid ? &*report.update
                                                           : nullptr;
      timeline = rwc::dataplane::build_timeline(
          before, controller_.configured_capacities(), schedule,
          sim_.config().ticks_per_round, sim_.config().tick_seconds);
    }
    {
      const Tracer::Scope span = tracer.span("dataplane.run_round", r);
      last_ = sim_.run_round(controller_.last_assignment(), timeline);
    }
    const double seconds = seconds_since(start);

    check_oracle(outcome);
    chain_ = mix64(chain_, round_signature(controller_, report));
    chain_ = mix64(chain_, last_.signature);
    history_.push_back(chain_);
    accumulate(report, demands, totals);
    totals.round_seconds.push_back(seconds);
    totals.loop_seconds += seconds;
    ++totals.rounds;

    installed_ = std::move(demands);
    previous_ = controller_.last_assignment();
    ++round_;
    return seconds;
  }

  std::size_t round() const { return round_; }
  std::uint64_t chain() const { return chain_; }
  /// Chain after each completed round.
  const std::vector<std::uint64_t>& history() const { return history_; }
  std::uint64_t dataplane_state() const { return sim_.state_signature(); }

 private:
  static rwc::core::ControllerOptions controller_options(
      const Inputs& inputs, rwc::exec::ThreadPool& pool) {
    rwc::core::ControllerOptions options;
    options.pool = &pool;
    rwc::update::SchedulerConfig update;
    update.headroom = 0.1;
    update.seed = inputs.update_seed;
    options.update = update;
    return options;
  }

  static rwc::dataplane::DataplaneConfig dataplane_config(
      rwc::exec::ThreadPool& pool) {
    rwc::dataplane::DataplaneConfig config;
    config.pool = &pool;
    return config;
  }

  static rwc::demand::DemandConfig demand_config() {
    rwc::demand::DemandConfig config;
    config.source = rwc::demand::DemandSource::kEstimated;
    config.interval_seconds = kTeIntervalSeconds;
    return config;
  }

  /// The solver-vs-bytes gap oracle: goodput within the gap of the
  /// allocation, no capacity violation outside update windows, byte
  /// conservation.
  void check_oracle(Outcome& outcome) {
    const rwc::te::FlowAssignment& assignment = controller_.last_assignment();
    double shortfall = 0.0;
    double overshoot = 0.0;
    for (std::size_t i = 0; i < assignment.routings.size(); ++i) {
      const double alloc = assignment.routings[i].routed.value;
      if (alloc < kMinAllocGbps) continue;
      const double goodput = last_.od_goodput_gbps[i];
      shortfall = std::max(shortfall, (alloc - goodput) / alloc);
      overshoot = std::max(overshoot, (goodput - alloc) / alloc);
    }
    const std::string at = "round " + std::to_string(round_) + ": ";
    outcome.check(shortfall <= kGapTolerance,
                  at + "goodput shortfall " + std::to_string(shortfall));
    outcome.check(overshoot <= kGapTolerance,
                  at + "goodput overshoot " + std::to_string(overshoot));
    outcome.check(last_.capacity_violations == 0,
                  at + "capacity violated outside update windows");
    const double ledger =
        last_.delivered_bytes + last_.dropped_bytes + last_.inflight_bytes;
    outcome.check(std::abs(ledger - last_.injected_bytes) <=
                      last_.injected_bytes * 1e-9 + 1.0,
                  at + "byte conservation broken");
  }

  void accumulate(const Controller::RoundReport& report,
                  const rwc::te::TrafficMatrix& demands,
                  LoopTotals& totals) const {
    const Controller::RoundStats& s = report.stats;
    totals.stats.total_seconds += s.total_seconds;
    totals.stats.consolidate_seconds += s.consolidate_seconds;
    totals.stats.augment_seconds += s.augment_seconds;
    totals.stats.solve_seconds += s.solve_seconds;
    totals.stats.translate_seconds += s.translate_seconds;
    totals.stats.transition_seconds += s.transition_seconds;
    totals.stats.update_seconds += s.update_seconds;
    totals.evaluations += static_cast<double>(s.evaluations);
    totals.update_rounds += static_cast<double>(s.update_rounds);
    totals.update_moves += static_cast<double>(s.update_route_moves);
    totals.reductions += report.reductions.size();
    totals.migrations += last_.migrations;
    totals.rate_cuts += last_.rate_cuts;
    totals.injected += last_.injected_bytes;
    totals.dropped += last_.dropped_bytes;
    for (const rwc::dataplane::LinkRoundStats& link : last_.links)
      totals.max_queue = std::max(totals.max_queue, link.max_queued_bytes);
    double offered = 0.0;
    for (const rwc::te::Demand& demand : demands) offered += demand.volume.value;
    totals.routed_share += ratio(report.total_routed.value, offered);
  }

  const Inputs& inputs_;
  const rwc::te::McfTe engine_;
  rwc::telemetry::SnrFleetGenerator generator_;
  std::vector<rwc::telemetry::SnrTraceCursor> cursors_;
  Controller controller_;
  rwc::dataplane::DataplaneSim sim_;
  rwc::demand::DemandPipeline pipeline_;
  std::vector<rwc::util::Db> snr_;
  rwc::te::TrafficMatrix installed_;
  rwc::te::FlowAssignment previous_;
  rwc::dataplane::RoundResult last_;
  std::size_t round_ = 0;
  std::uint64_t chain_ = 0x6c6f6f70ull;  // "loop"
  std::vector<std::uint64_t> history_;
};

/// Runs `rounds` more rounds of `loop`, adding them to `totals`.
void run_loop(Loop& loop, Tracer& tracer, Outcome& outcome,
              LoopTotals& totals, std::size_t rounds,
              SetupSampler* setup = nullptr) {
  for (std::size_t i = 0; i < rounds; ++i) {
    loop.step(tracer, outcome, totals);
    if (setup != nullptr) setup->poll(totals.loop_seconds);
  }
}

/// Runs episodes 0, 1, ... of kEpisodeRounds rounds each until `seconds`
/// of loop time have passed (at least one episode), or exactly `episodes`
/// episodes when non-zero. Returns the episodes' final chains.
std::vector<std::uint64_t> run_episodes(const Options& options,
                                        rwc::exec::ThreadPool& pool,
                                        Tracer& tracer, Outcome& outcome,
                                        LoopTotals& totals, double seconds,
                                        std::size_t episodes,
                                        SetupSampler* setup = nullptr) {
  std::vector<std::uint64_t> chains;
  for (std::uint64_t e = 0;
       episodes > 0 ? e < episodes : e == 0 || totals.loop_seconds < seconds;
       ++e) {
    Inputs inputs;
    std::unique_ptr<Loop> loop;
    const auto construct = [&] {
      inputs = make_inputs(options.seed, e);
      loop = std::make_unique<Loop>(inputs, pool);
    };
    if (setup != nullptr)
      setup->time(construct);
    else
      construct();
    run_loop(*loop, tracer, outcome, totals, kEpisodeRounds, setup);
    chains.push_back(loop->chain());
  }
  return chains;
}

void report_layers(const LoopTotals& t, const Tracer& tracer,
                   const CounterDelta& delta, Outcome& outcome) {
  const double n = static_cast<double>(t.rounds);
  const double loop = tracer.total_seconds("loop.round");
  const double dataplane = tracer.total_seconds("dataplane.run_round");
  const double timeline = tracer.total_seconds("dataplane.timeline");
  outcome.set("telemetry.cursor_s",
              tracer.total_seconds("telemetry.cursor") / n);
  outcome.set("demand.counters_s",
              tracer.total_seconds("demand.counters") / n);
  outcome.set("demand.round_s", tracer.total_seconds("demand.round") / n);
  outcome.set("demand.exact_ratio", ratio(static_cast<double>(t.exact),
                                          static_cast<double>(t.estimates)));
  outcome.set("demand.residual",
              t.residual / static_cast<double>(std::max<std::uint64_t>(
                               t.estimates, 1)));
  outcome.set("core.run_round_s", tracer.total_seconds("core.run_round") / n);
  outcome.set("core.consolidate_s", t.stats.consolidate_seconds / n);
  outcome.set("core.consolidate_share",
              ratio(t.stats.consolidate_seconds, t.stats.total_seconds));
  outcome.set("core.evaluations", t.evaluations / n);
  outcome.set("core.augment_s", t.stats.augment_seconds / n);
  outcome.set("core.translate_s", t.stats.translate_seconds / n);
  outcome.set("core.transition_s", t.stats.transition_seconds / n);
  outcome.absent["core.dirty_fraction"] =
      "dirty links are tracked only by the incremental memo, off here";
  outcome.set("te.solve_s", t.stats.solve_seconds / n);
  outcome.absent["core.eval_waste"] = "measured rounds run serially";
  outcome.set("update.plan_s", t.stats.update_seconds / n);
  outcome.set("update.rounds", t.update_rounds / n);
  outcome.set("update.route_moves", t.update_moves / n);
  outcome.set("dataplane.run_round_s", dataplane / n);
  outcome.set("dataplane.timeline_s", timeline / n);
  outcome.set("dataplane.ticks_per_s",
              ratio(static_cast<double>(delta("dataplane.ticks")), dataplane));
  outcome.set("dataplane.migrations", static_cast<double>(t.migrations) / n);
  outcome.set("dataplane.rate_cuts", static_cast<double>(t.rate_cuts) / n);
  outcome.set("dataplane.drop_ratio", ratio(t.dropped, t.injected));
  outcome.set("dataplane.max_queue_bytes", t.max_queue);
  outcome.set("dataplane.round_share", ratio(dataplane + timeline, loop));
  fill_solver_layers(outcome, delta, n);
  for (const auto& [layer, self] : tracer.self_seconds_by_layer())
    outcome.set(layer + ".self_s", self / n);
  outcome.note("mean routed share of the handed-in demand: " +
               std::to_string(t.routed_share / n) + "; SNR-forced flaps: " +
               std::to_string(t.reductions));
  outcome.note(std::string("claim: dataplane >= 80% of a loop round: ") +
               (ratio(dataplane + timeline, loop) >= 0.8 ? "confirmed"
                                                         : "NOT confirmed"));
}

}  // namespace

Outcome run_closed_loop(const Options& options) {
  Outcome outcome;
  // Measured rounds run serially: the dataplane synchronises its pool
  // several times per tick, which makes pool timings swing with load from
  // other tenants of a shared machine. The pool pass below measures what
  // the pool costs.
  rwc::exec::ThreadPool serial(0);
  const std::size_t workers = pool_workers(1);
  rwc::exec::ThreadPool pool(workers);
  outcome.note("measured rounds run serially (pool of 0 workers); pool "
               "pass on " + std::to_string(workers) + " workers");

  const auto construct = [&] {
    const Inputs scratch = make_inputs(options.seed);
    const Loop discarded(scratch, serial);
  };
  SetupSampler setup(options.seconds, construct);
  for (int i = 0; i < kSetupRepeats; ++i) setup.time(construct);

  Tracer off(false);
  const CounterDelta delta;
  LoopTotals untraced;
  const std::vector<std::uint64_t> chains = run_episodes(
      options, serial, off, outcome, untraced,
      options.trace ? options.seconds / 2 : options.seconds, 0,
      options.trace ? nullptr : &setup);
  const std::size_t episodes = chains.size();
  if (!options.trace) {
    outcome.set("rounds_per_s",
                static_cast<double>(untraced.rounds) / untraced.loop_seconds);
    outcome.set("latency_p50_ms", quantile(untraced.round_seconds, 0.5) * 1e3);
    outcome.set("latency_p90_ms", quantile(untraced.round_seconds, 0.9) * 1e3);
    outcome.note("episodes: " + std::to_string(episodes) + " of " +
                 std::to_string(kEpisodeRounds) + " rounds");
  } else {
    Tracer tracer(true);
    const CounterDelta traced_delta;
    LoopTotals totals;
    const std::vector<std::uint64_t> traced_chains = run_episodes(
        options, serial, tracer, outcome, totals, 0.0, episodes);
    outcome.check(traced_chains == chains,
                  "traced and untraced loops disagree");
    outcome.set("trace.overhead",
                totals.loop_seconds / untraced.loop_seconds - 1.0);
    report_layers(totals, tracer, traced_delta, outcome);
    if (!options.trace_path.empty() &&
        !tracer.write_chrome_trace(options.trace_path))
      outcome.fail("cannot write trace file " + options.trace_path);
  }
  outcome.check(delta("dataplane.ticks") > 0, "gate: zero dataplane ticks");
  outcome.check(delta("demand.rounds") > 0, "gate: zero estimator rounds");

  // Pool pass: the first episode's leading rounds on the pool must
  // reproduce the serial chain; in a traced run their time against the
  // same serial rounds is the pool's slowdown.
  {
    const std::size_t rounds =
        options.trace ? kPoolRounds : kCrossCheckRounds;
    const Inputs inputs = make_inputs(options.seed);
    Loop serial_loop(inputs, serial);
    Loop pooled(inputs, pool);
    LoopTotals serial_totals;
    LoopTotals pool_totals;
    run_loop(serial_loop, off, outcome, serial_totals, rounds);
    run_loop(pooled, off, outcome, pool_totals, rounds);
    outcome.check(pooled.history() == serial_loop.history(),
                  "loop differs between pool sizes");
    if (options.trace)
      outcome.set("dataplane.pool_slowdown",
                  pool_totals.loop_seconds / serial_totals.loop_seconds);
  }
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    const Inputs pinned_inputs = make_inputs(seed);
    Loop pinned(pinned_inputs, serial);
    LoopTotals pinned_totals;
    run_loop(pinned, off, outcome, pinned_totals, kPinnedRounds);
    outcome.check_pin(options, seed, "chain", pinned.chain());
    outcome.check_pin(options, seed, "dataplane_state",
                      pinned.dataplane_state());
  }
  outcome.setup_seconds = setup.median();
  return outcome;
}

}  // namespace perfbench
