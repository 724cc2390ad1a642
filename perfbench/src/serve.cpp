// serve: the always-on service on a fixed 12-node WAN with the SWAN engine and
// the update stage on. One producer thread offers bursts of SNR and demand
// events on a fixed schedule, two reader threads take wait-free epoch
// snapshots in paced bursts, and the serving thread steps one round per
// burst, checkpointing in memory (checkpoint + replay encode/decode) every
// kCheckpointEvery rounds.
#include <algorithm>
#include <atomic>
#include <thread>

#include "exec/rcu.hpp"
#include "exec/thread_pool.hpp"
#include "replay/checkpoint.hpp"
#include "serve/service.hpp"
#include "sim/topology.hpp"
#include "sim/workload.hpp"
#include "te/swan.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using rwc::serve::IngestEvent;
using rwc::serve::IngestType;
using rwc::serve::PlanEpoch;
using rwc::serve::ServeService;

constexpr int kNodes = 12;
constexpr std::uint64_t kTopologySeed = 12;
/// Open-loop offer schedule: the producer offers one burst shaped like
/// bench/serve_loop's per-round batch (make_burst) every kBurstInterval.
/// The interval is twice the mean round time measured on a 4-core
/// reference machine with one burst every 14.3 ms, the ~70 rounds/s that
/// bench reports (about 75 rounds per second of serving there), so the
/// service runs at about half its capacity and a round mostly drains one
/// burst. A TE controller must finish a round well inside its interval,
/// and the headroom keeps queueing out of the publish lag when the
/// machine slows: near saturation batches grow with the round time and
/// the round time with the batch, amplifying every slowdown.
constexpr std::chrono::microseconds kBurstInterval{2'000'000 / 75};
constexpr std::uint64_t kCheckpointEvery = 16;
/// How long the serving thread and the producer sleep between polls.
constexpr std::chrono::microseconds kPoll{20};
/// Readers take snapshots in bursts of kReadBurst and pause kReadPause
/// between bursts, so they read beside the serving thread without each
/// holding a core: readers that paused only 200 us between bursts of 256
/// made the serving thread's rounds 15% slower or faster from run to run
/// of one seed.
constexpr std::uint64_t kReadBurst = 64;
constexpr std::chrono::microseconds kReadPause{1000};
/// Every read is timed; each reader keeps a uniform sample of at most
/// kReadSamples of them (reservoir sampling), so the memory they take does
/// not grow with the read rate.
constexpr std::size_t kReadSamples = std::size_t{1} << 16;
constexpr std::size_t kReaders = 2;
/// Threads the workload runs itself: serving, producer and readers.
constexpr std::size_t kOwnThreads = 2 + kReaders;
constexpr std::size_t kReplayRounds = 32;
/// Rounds a live run steps at least, whatever --seconds says: enough for
/// checkpoints and a full-length log-replay check.
constexpr std::size_t kMinRounds = kReplayRounds;
constexpr std::uint64_t kPinnedRounds = 12;

struct Inputs {
  rwc::graph::Graph topology;
  rwc::te::TrafficMatrix demands;
  std::uint64_t event_seed = 0;
  std::uint64_t service_seed = 0;
  /// Batch of the initial plan: one SNR sample per link.
  std::vector<IngestEvent> initial;
};

/// An SNR sample as bench/serve_loop draws them: 4-20 dB, so samples walk
/// links across the modulation ladder.
IngestEvent snr_event(rwc::util::Rng& rng, std::uint32_t link) {
  IngestEvent event;
  event.type = IngestType::kSnr;
  event.index = link;
  event.value = rng.uniform(4.0, 20.0);
  return event;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  // One fixed WAN and base demand: a round's SWAN LP cost follows both,
  // and the seed varies the event stream the service is fed, not which
  // network it serves.
  rwc::util::Rng network_rng =
      rwc::util::Rng::stream(kTopologySeed, 0x5e7e0000ull);
  inputs.topology = rwc::sim::waxman(kNodes, network_rng);
  rwc::sim::GravityParams gravity;
  gravity.total =
      rwc::util::Gbps{inputs.topology.total_capacity().value * 0.4};
  inputs.demands =
      rwc::sim::gravity_matrix(inputs.topology, gravity, network_rng);
  rwc::util::Rng rng = rwc::util::Rng::stream(seed, 0x5e7e0001ull);
  inputs.event_seed = rng.next_u64();
  inputs.service_seed = rng.next_u64();
  // The initial plan already sees every link at an SNR drawn like the
  // events', so the links' state is as mixed at the first burst as after
  // many; otherwise rounds would grow costlier as events reach more links.
  // Like the WAN, this starting state is the same for every seed.
  rwc::util::Rng initial_rng =
      rwc::util::Rng::stream(kTopologySeed, 0x5e7e0002ull);
  for (std::size_t e = 0; e < inputs.topology.edge_count(); ++e)
    inputs.initial.push_back(
        snr_event(initial_rng, static_cast<std::uint32_t>(e)));
  return inputs;
}

rwc::serve::ServeConfig serve_config(const Inputs& inputs,
                                     rwc::exec::ThreadPool& pool) {
  rwc::serve::ServeConfig config;
  config.seed = inputs.service_seed;
  config.hysteresis = rwc::core::HysteresisParams{};
  config.pool = &pool;
  rwc::update::SchedulerConfig update;
  update.headroom = 0.1;
  update.seed = inputs.service_seed;
  config.update = update;
  return config;
}

/// One burst of the offer schedule, shaped like bench/serve_loop's
/// per-round batch: SNR samples that walk links across the ladder and,
/// with probability 0.3, one demand update. A burst carries 4-16 SNR
/// samples where serve_loop's batch carries 1-6. A round that restores
/// capacity runs Algorithm-1 consolidation and takes 3-4 times as long as
/// one that does not; with 1-6 samples such rounds were 8-11% of them, so
/// the p90 round time fell in one mode or the other depending on the
/// seed (8.2 ms or 13.2 ms for the same code). With 4-16 they are ~19%,
/// and the p90 lies inside the consolidation mode.
/// serve_loop sets a demand to 0-60 Gbps; here an update moves the pair's
/// base gravity volume by up to 10% either way. With 0-60 Gbps the offered
/// load grew with every update over a run; with moves of up to 50% a pair
/// kept its level for ~440 bursts on average, so which pairs happened to
/// be high set the cost of whole runs and one seed's rounds ran 20%
/// slower than another's.
std::vector<IngestEvent> make_burst(rwc::util::Rng& rng,
                                    const Inputs& inputs) {
  std::vector<IngestEvent> burst;
  const std::int64_t snr_samples = rng.uniform_int(4, 16);
  for (std::int64_t i = 0; i < snr_samples; ++i)
    burst.push_back(snr_event(
        rng, static_cast<std::uint32_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(inputs.topology.edge_count()) -
                        1))));
  if (rng.bernoulli(0.3)) {
    IngestEvent event;
    event.type = IngestType::kDemand;
    event.index = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(inputs.demands.size()) - 1));
    event.value =
        inputs.demands[event.index].volume.value * rng.uniform(0.9, 1.1);
    burst.push_back(event);
  }
  return burst;
}

/// Burst b is offered at start + b * kBurstInterval.
using Schedule = std::vector<std::vector<IngestEvent>>;

Schedule make_schedule(const Inputs& inputs, double seconds) {
  rwc::util::Rng rng = rwc::util::Rng::stream(inputs.event_seed, 1);
  const std::size_t count = static_cast<std::size_t>(
      seconds * 1e6 / static_cast<double>(kBurstInterval.count()) * 1.5 +
      64);
  Schedule bursts;
  bursts.reserve(count);
  for (std::size_t b = 0; b < count; ++b)
    bursts.push_back(make_burst(rng, inputs));
  return bursts;
}

struct ReaderStats {
  std::uint64_t reads = 0;
  std::uint64_t torn = 0;
  std::uint64_t backwards = 0;
  std::vector<float> sample_ns;
};

void reader_loop(ServeService& service, const std::atomic<bool>& stop,
                 std::uint64_t id, ReaderStats& stats) {
  rwc::exec::RcuReader reader(service.rcu_domain());
  rwc::util::Rng rng = rwc::util::Rng::stream(0x7eadull, id);
  stats.sample_ns.reserve(kReadSamples);
  std::uint64_t last_epoch = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    if (stats.reads % kReadBurst == 0 && stats.reads > 0)
      std::this_thread::sleep_for(kReadPause);
    const Clock::time_point start = Clock::now();
    {
      const rwc::exec::RcuGuard<PlanEpoch> epoch(service.epoch_cell(),
                                                 reader);
      if (epoch) {
        if (!epoch->consistent()) ++stats.torn;
        if (epoch->epoch < last_epoch) ++stats.backwards;
        last_epoch = epoch->epoch;
      }
    }
    const float ns = static_cast<float>(
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count());
    if (stats.sample_ns.size() < kReadSamples) {
      stats.sample_ns.push_back(ns);
    } else {
      const std::uint64_t slot = static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(stats.reads)));
      if (slot < kReadSamples) stats.sample_ns[slot] = ns;
    }
    ++stats.reads;
  }
}

struct ProducerStats {
  std::size_t bursts = 0;
  std::vector<double> late_seconds;  ///< per burst
};

/// Offers burst b at start + b * kBurstInterval, but not before the round
/// serving burst b - 1 is published, until `stop`; `offered` counts the
/// bursts offered whole. Every round thus serves exactly one burst, and
/// its work is fixed by the schedule. When bursts could merge behind a
/// slow round, a slower machine also meant bigger batches and more
/// consolidation rounds: the p90 round time grew twice as fast as the
/// machine slowed.
void producer_loop(ServeService& service, const Schedule& schedule,
                   Clock::time_point start, const std::atomic<bool>& stop,
                   const std::atomic<std::size_t>& published,
                   std::atomic<std::size_t>& offered, ProducerStats& stats) {
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    const Clock::time_point due = start + kBurstInterval * b;
    std::this_thread::sleep_until(due);
    while (published.load(std::memory_order_acquire) < b &&
           !stop.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(kPoll);
    if (stop.load(std::memory_order_relaxed)) break;
    stats.late_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - due).count());
    for (const IngestEvent& event : schedule[b]) service.queue().offer(event);
    offered.store(b + 1, std::memory_order_release);
    ++stats.bursts;
  }
}

struct RunStats {
  std::size_t rounds = 0;
  double loop_seconds = 0.0;
  std::vector<double> lag_seconds;
  std::vector<double> step_seconds;
  /// Serving-thread time spent on rounds: steps, bookkeeping, checkpoints.
  double busy_seconds = 0.0;
  std::vector<std::uint64_t> chains;  ///< live chain after each log round
  double batch_events = 0.0;
  double queue_depth = 0.0;
  std::uint64_t checkpoints = 0;
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  double checkpoint_bytes = 0.0;
  double rcu_pending = 0.0;  ///< sum over rounds
  ReaderStats reads;
  ProducerStats producer;
  std::uint64_t offered = 0;
  std::uint64_t dropped = 0;
  rwc::core::DynamicCapacityController::RoundStats stats;  ///< sums
  double update_rounds = 0.0;
  double update_moves = 0.0;
  double evaluations = 0.0;
  /// Registry counters over the live loop only, stopped before the
  /// log-replay check runs.
  CounterDelta counters;
};

void checkpoint_round_trip(ServeService& service, Tracer& tracer,
                           std::int64_t round, RunStats& run,
                           Outcome& outcome) {
  rwc::replay::Checkpoint checkpoint;
  {
    const Tracer::Scope span = tracer.span("serve.checkpoint", round);
    checkpoint = service.checkpoint();
  }
  Clock::time_point start = Clock::now();
  std::vector<std::byte> bytes;
  {
    const Tracer::Scope span = tracer.span("replay.encode", round);
    bytes = rwc::replay::encode(checkpoint);
  }
  run.encode_seconds += seconds_since(start);
  start = Clock::now();
  rwc::replay::Checkpoint decoded;
  rwc::replay::Error error;
  {
    const Tracer::Scope span = tracer.span("replay.decode", round);
    error = rwc::replay::decode(bytes, decoded);
  }
  run.decode_seconds += seconds_since(start);
  run.checkpoint_bytes += static_cast<double>(bytes.size());
  ++run.checkpoints;
  outcome.check(error == rwc::replay::Error::kNone &&
                    decoded.signature_chain == checkpoint.signature_chain &&
                    decoded.round == checkpoint.round,
                "checkpoint round trip failed at round " +
                    std::to_string(round));
}

/// The live concurrent run: producer and readers against the serving
/// thread for `seconds`.
RunStats run_live(const Inputs& inputs,
                  const Schedule& schedule,
                  rwc::exec::ThreadPool& pool, double seconds, Tracer& tracer,
                  Outcome& outcome) {
  const rwc::te::SwanTe engine;
  ServeService service(inputs.topology, engine, inputs.demands,
                       serve_config(inputs, pool));
  // The initial plan, before traffic: readers find an epoch from the
  // start. It is log round 0, the batch of initial SNR samples.
  service.step(inputs.initial);
  RunStats run;
  run.chains.push_back(service.signature_chain());
  std::atomic<bool> stop{false};
  std::vector<ReaderStats> readers(kReaders);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r)
    threads.emplace_back(reader_loop, std::ref(service), std::cref(stop),
                         static_cast<std::uint64_t>(r), std::ref(readers[r]));
  std::vector<Clock::time_point> published;
  std::atomic<std::size_t> published_count{0};
  std::atomic<std::size_t> offered_bursts{0};
  const Clock::time_point start = Clock::now();
  threads.emplace_back(producer_loop, std::ref(service), std::cref(schedule),
                       start, std::cref(stop), std::cref(published_count),
                       std::ref(offered_bursts), std::ref(run.producer));

  // Epochs retired but not yet reclaimed, sampled after every publish.
  const rwc::obs::Counter& rcu_retired =
      rwc::obs::Registry::global().counter("exec.rcu.retired");
  const rwc::obs::Counter& rcu_reclaimed =
      rwc::obs::Registry::global().counter("exec.rcu.reclaimed");
  while (seconds_since(start) < seconds || published.size() < kMinRounds) {
    if (offered_bursts.load(std::memory_order_acquire) == published.size()) {
      std::this_thread::sleep_for(kPoll);
      continue;
    }
    const std::int64_t round = static_cast<std::int64_t>(service.round());
    run.queue_depth += static_cast<double>(service.queue().depth());
    const Clock::time_point begin = Clock::now();
    rwc::core::DynamicCapacityController::RoundReport report;
    {
      const Tracer::Scope span = tracer.span("serve.step", round);
      report = service.step();
    }
    const Clock::time_point now = Clock::now();
    published.push_back(now);
    published_count.store(published.size(), std::memory_order_release);
    run.step_seconds.push_back(
        std::chrono::duration<double>(now - begin).count());
    run.chains.push_back(service.signature_chain());
    run.rcu_pending += static_cast<double>(rcu_retired.value()) -
                       static_cast<double>(rcu_reclaimed.value());
    const auto& s = report.stats;
    run.stats.total_seconds += s.total_seconds;
    run.stats.consolidate_seconds += s.consolidate_seconds;
    run.stats.augment_seconds += s.augment_seconds;
    run.stats.solve_seconds += s.solve_seconds;
    run.stats.translate_seconds += s.translate_seconds;
    run.stats.transition_seconds += s.transition_seconds;
    run.stats.update_seconds += s.update_seconds;
    run.stats.dirty_fraction += s.dirty_fraction;
    run.update_rounds += static_cast<double>(s.update_rounds);
    run.update_moves += static_cast<double>(s.update_route_moves);
    run.evaluations += static_cast<double>(s.evaluations);
    if (service.round() % kCheckpointEvery == 0)
      checkpoint_round_trip(service, tracer, round, run, outcome);
    run.busy_seconds += seconds_since(begin);
  }
  run.loop_seconds = seconds_since(start);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  run.counters.stop();

  run.rounds = published.size();
  run.offered = service.queue().offered();
  run.dropped = service.queue().dropped();
  for (ReaderStats& stats : readers) {
    run.reads.reads += stats.reads;
    run.reads.torn += stats.torn;
    run.reads.backwards += stats.backwards;
    run.reads.sample_ns.insert(run.reads.sample_ns.end(),
                               stats.sample_ns.begin(), stats.sample_ns.end());
  }

  // The log holds the drained batches in offer order (one producer, FIFO
  // queue): event k of the schedule sits in the batch of log round r >= 1,
  // and that round's epoch became readable when the loop's r-th step()
  // returned (published[r - 1]).
  const rwc::serve::IngestLog& log = service.log();
  std::size_t b = 0;  // burst of the next logged event
  std::size_t i = 0;  // its position in the burst
  bool in_order = true;
  bool one_burst = true;
  for (std::size_t r = 1; r < log.rounds(); ++r) {
    run.batch_events += static_cast<double>(log.batch(r).size());
    one_burst &= r - 1 < schedule.size() &&
                 log.batch(r).size() == schedule[r - 1].size();
    for (const IngestEvent& event : log.batch(r)) {
      if (b < schedule.size() && i == schedule[b].size()) {
        ++b;
        i = 0;
      }
      if (b >= run.producer.bursts || !(event == schedule[b][i]))
        in_order = false;
      const Clock::time_point due = start + kBurstInterval * b;
      run.lag_seconds.push_back(
          std::chrono::duration<double>(published[r - 1] - due).count());
      ++i;
    }
  }
  outcome.check(in_order, "ingest log differs from the offered events");
  outcome.check(one_burst, "a round served other than exactly one burst");
  outcome.count(run.offered, run.dropped, "ingest events dropped");
  outcome.count(run.reads.reads, run.reads.torn, "torn epoch reads");
  outcome.count(0, run.reads.backwards, "epoch went backwards");
  outcome.check(run.reads.reads > 0, "gate: zero reads");
  outcome.check(run.checkpoints > 0, "gate: zero checkpoints");

  // Log replay: a fresh service fed the recorded batches reproduces the
  // live chain.
  rwc::exec::ThreadPool serial(0);
  const rwc::te::SwanTe replay_engine;
  ServeService replayed(inputs.topology, replay_engine, inputs.demands,
                        serve_config(inputs, serial));
  const std::size_t replay_rounds = std::min(kReplayRounds, log.rounds());
  for (std::size_t r = 0; r < replay_rounds; ++r) replayed.step(log.batch(r));
  outcome.check(replay_rounds > 0 &&
                    replayed.signature_chain() == run.chains[replay_rounds - 1],
                "log replay chain differs from the live chain");
  return run;
}

/// Deterministic per-round batches for the pinned chain.
std::uint64_t pinned_chain(std::uint64_t seed, rwc::exec::ThreadPool& pool) {
  const Inputs inputs = make_inputs(seed);
  const rwc::te::SwanTe engine;
  ServeService service(inputs.topology, engine, inputs.demands,
                       serve_config(inputs, pool));
  rwc::util::Rng rng = rwc::util::Rng::stream(inputs.event_seed, 2);
  for (std::uint64_t r = 0; r < kPinnedRounds; ++r)
    service.step(make_burst(rng, inputs));
  return service.signature_chain();
}

/// Quantile of whole-nanosecond read samples, interpolated inside the
/// clock tick: a sample reading v stands for [v - 0.5, v + 0.5), so ties
/// at the quantile resolve by rank instead of snapping to the tick.
double tick_quantile(std::vector<float> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size());
  const std::size_t at = std::min(static_cast<std::size_t>(rank),
                                  samples.size() - 1);
  const float value = samples[at];
  const auto [first, last] =
      std::equal_range(samples.begin(), samples.end(), value);
  const double below = static_cast<double>(first - samples.begin());
  const double equal = static_cast<double>(last - first);
  return static_cast<double>(value) - 0.5 + (rank - below) / equal;
}

void report_layers(const RunStats& run, const Tracer& tracer,
                   Outcome& outcome) {
  const double n = static_cast<double>(run.rounds);
  const double checkpoints =
      static_cast<double>(std::max<std::uint64_t>(run.checkpoints, 1));
  outcome.set("serve.step_s", tracer.total_seconds("serve.step") / n);
  outcome.set("serve.batch_events", run.batch_events / n);
  outcome.set("serve.queue_depth", run.queue_depth / n);
  outcome.set("serve.ingest_drop_ratio",
              ratio(static_cast<double>(run.dropped),
                    static_cast<double>(run.offered)));
  double late = 0.0;
  for (const double seconds : run.producer.late_seconds) late += seconds;
  outcome.set("serve.generator_late_ms",
              ratio(late, static_cast<double>(run.producer.late_seconds.size())) *
                  1e3);
  outcome.set("serve.publish_lag_p50_ms",
              quantile(run.lag_seconds, 0.5) * 1e3);
  outcome.set("serve.publish_lag_p99_ms",
              quantile(run.lag_seconds, 0.99) * 1e3);
  outcome.set("serve.read_p50_ns", tick_quantile(run.reads.sample_ns, 0.5));
  outcome.set("serve.read_p99_ns", tick_quantile(run.reads.sample_ns, 0.99));
  outcome.set("serve.reads_per_s",
              static_cast<double>(run.reads.reads) / run.loop_seconds);
  outcome.set("exec.rcu_pending", run.rcu_pending / n);
  outcome.set("replay.encode_s", run.encode_seconds / checkpoints);
  outcome.set("replay.decode_s", run.decode_seconds / checkpoints);
  outcome.set("replay.checkpoint_bytes", run.checkpoint_bytes / checkpoints);
  outcome.set("core.run_round_s", run.stats.total_seconds / n);
  outcome.set("core.consolidate_s", run.stats.consolidate_seconds / n);
  outcome.set("core.consolidate_share", ratio(run.stats.consolidate_seconds,
                                              run.stats.total_seconds));
  outcome.set("core.evaluations", run.evaluations / n);
  outcome.set("core.augment_s", run.stats.augment_seconds / n);
  outcome.set("core.translate_s", run.stats.translate_seconds / n);
  outcome.set("core.transition_s", run.stats.transition_seconds / n);
  outcome.set("core.dirty_fraction", run.stats.dirty_fraction / n);
  outcome.set("te.solve_s", run.stats.solve_seconds / n);
  outcome.absent["core.eval_waste"] = "the serve pool runs inline";
  outcome.set("update.plan_s", run.stats.update_seconds / n);
  outcome.set("update.rounds", run.update_rounds / n);
  outcome.set("update.route_moves", run.update_moves / n);
  fill_solver_layers(outcome, run.counters, n);
  for (const auto& [layer, self] : tracer.self_seconds_by_layer())
    outcome.set(layer + ".self_s", self / n);
  outcome.note("every read timed with steady_clock; quantiles over a "
               "uniform sample of " +
               std::to_string(run.reads.sample_ns.size()) + " of them");
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome outcome;
  const std::size_t workers = pool_workers(kOwnThreads);
  rwc::exec::ThreadPool pool(workers);
  outcome.note("pool workers: " + std::to_string(workers) + " beside " +
               std::to_string(kOwnThreads) +
               " benchmark threads (serving, producer, 2 readers)");

  Inputs inputs;
  Schedule schedule;
  const auto set_up = [&](Inputs& in, Schedule& bursts) {
    in = make_inputs(options.seed);
    bursts = make_schedule(in, options.seconds);
    const rwc::te::SwanTe engine;
    ServeService service(in.topology, engine, in.demands,
                         serve_config(in, pool));
    service.step(in.initial);
  };
  // The serving thread has no idle gap mid-run, so the extra set-up
  // samples come after the live run instead.
  SetupSampler setup(options.seconds, [&] {
    Inputs scratch_inputs;
    Schedule scratch_bursts;
    set_up(scratch_inputs, scratch_bursts);
  });
  for (int i = 0; i < kSetupRepeats; ++i)
    setup.time([&] { set_up(inputs, schedule); });

  Tracer off(false);
  if (!options.trace) {
    const RunStats run =
        run_live(inputs, schedule, pool, options.seconds, off, outcome);
    // The offer rate caps rounds per second of wall time while the
    // service keeps up, so throughput is rounds per second of serving.
    outcome.set("rounds_per_s",
                static_cast<double>(run.rounds) / run.busy_seconds);
    // A round's publish latency: from draining its batch until its epoch
    // is readable. The publish lag from an event's due time adds the wait
    // behind the round in progress, which grows with the machine's
    // slowdown several times over, so it is a per-layer metric.
    outcome.set("latency_p50_ms", quantile(run.step_seconds, 0.5) * 1e3);
    outcome.set("latency_p90_ms", quantile(run.step_seconds, 0.9) * 1e3);
    for (int i = 0; i < kSetupSpread; ++i) setup.repeat();
    outcome.note("rounds " + std::to_string(run.rounds) + ", events " +
                 std::to_string(run.lag_seconds.size()) + " (" +
                 std::to_string(run.batch_events /
                                static_cast<double>(run.rounds)) +
                 " per round), serving thread busy " +
                 std::to_string(run.busy_seconds / run.loop_seconds) +
                 " of the run, reads " +
                 std::to_string(run.reads.reads) + ", checkpoints " +
                 std::to_string(run.checkpoints));
  } else {
    const RunStats untraced =
        run_live(inputs, schedule, pool, options.seconds / 2, off, outcome);
    Tracer tracer(true);
    const RunStats traced =
        run_live(inputs, schedule, pool, options.seconds / 2, tracer, outcome);
    const auto mean_step = [](const RunStats& run) {
      double total = 0.0;
      for (const double seconds : run.step_seconds) total += seconds;
      return total / static_cast<double>(run.step_seconds.size());
    };
    outcome.set("trace.overhead", mean_step(traced) / mean_step(untraced) - 1.0);
    report_layers(traced, tracer, outcome);
    if (!options.trace_path.empty() &&
        !tracer.write_chrome_trace(options.trace_path))
      outcome.fail("cannot write trace file " + options.trace_path);
  }
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed})
    outcome.check_pin(options, seed, "replay_chain", pinned_chain(seed, pool));
  outcome.setup_seconds = setup.median();
  return outcome;
}

}  // namespace perfbench
