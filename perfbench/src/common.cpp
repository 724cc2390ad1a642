#include "common.hpp"
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::int64_t round)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = std::string(name);
  span.parent = tracer_.stack_.empty() ? -1 : tracer_.stack_.back();
  span.round = round;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(span));
  tracer_.stack_.push_back(index_);
  tracer_.spans_.back().start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  tracer_.stack_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    out[layer] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

double Tracer::total_seconds(std::string_view name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_)
    if (span.name == name) total += span.end_ns - span.start_ns;
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%" PRId64 ",\"round\":%" PRId64 "}}",
                  i == 0 ? "" : ",\n", span.name.c_str(),
                  span.name.substr(0, span.name.find('.')).c_str(),
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
                  span.parent, span.round);
    out << buffer;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void Outcome::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(why);
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Outcome::count(std::uint64_t attempts, std::uint64_t failures_seen,
                    const std::string& what) {
  attempted += attempts;
  if (failures_seen > 0) fail(what, failures_seen);
}

void Outcome::check_pin(const Options& options, std::uint64_t seed,
                        const std::string& what, std::uint64_t actual) {
  const std::string key =
      options.workload + "." + std::to_string(seed) + "." + what;
  computed_pins[key] = actual;
  if (options.print_pins) return;
  const auto it = options.pins.find(key);
  if (it == options.pins.end()) {
    ++attempted;
    fail("no pinned value for " + key);
    return;
  }
  check(it->second == actual,
        "pinned " + key + ": expected " + hex(it->second) + ", got " +
            hex(actual));
}

CounterDelta::Snapshot CounterDelta::snapshot() {
  Snapshot values;
  for (const auto& [name, counter] :
       rwc::obs::Registry::global().counters())
    values[name] = counter->value();
  return values;
}

CounterDelta::CounterDelta() : base_(snapshot()) {}

void CounterDelta::stop() { end_ = snapshot(); }

std::uint64_t CounterDelta::operator()(std::string_view name) const {
  const auto read = [&](const Snapshot& values) -> std::uint64_t {
    const auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  };
  const std::uint64_t end =
      end_ ? read(*end_)
           : rwc::obs::Registry::global().counter(name).value();
  return end - read(base_);
}

std::size_t core_count() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : cores;
}

std::size_t pool_workers(std::size_t own_threads) {
  const std::size_t cores = core_count();
  return cores > own_threads ? cores - own_threads : 0;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const std::size_t lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double frac = position - static_cast<double>(lower);
  return samples[lower] + (samples[upper] - samples[lower]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  return hash;
}

std::uint64_t mix_double(std::uint64_t hash, double value) {
  return mix64(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t round_signature(
    const rwc::core::DynamicCapacityController& controller,
    const rwc::core::DynamicCapacityController::RoundReport& report) {
  std::uint64_t hash = 0x726f756e64ull;  // "round"
  for (const rwc::util::Gbps capacity : controller.configured_capacities())
    hash = mix_double(hash, capacity.value);
  for (const auto* flaps : {&report.reductions, &report.restorations})
    for (const rwc::core::LinkFlap& flap : *flaps) {
      hash = mix64(hash, static_cast<std::uint64_t>(flap.edge.value));
      hash = mix_double(hash, flap.to.value);
    }
  for (const rwc::core::CapacityChange& change : report.plan.upgrades) {
    hash = mix64(hash, static_cast<std::uint64_t>(change.edge.value));
    hash = mix_double(hash, change.to.value);
  }
  for (const double load : controller.last_assignment().edge_load_gbps)
    hash = mix_double(hash, load);
  hash = mix_double(hash, report.total_routed.value);
  return mix_double(hash, report.total_penalty);
}

std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

void fill_solver_layers(Outcome& outcome, const CounterDelta& delta,
                        double rounds) {
  const auto d = [&](std::string_view name) {
    return static_cast<double>(delta(name));
  };
  const auto share = [&](const char* metric, double hits, double attempts,
                         const char* why) {
    if (attempts > 0.0)
      outcome.set(metric, hits / attempts);
    else
      outcome.absent[metric] = why;
  };
  outcome.set("flow.mincost_runs", d("flow.mincost.runs") / rounds);
  outcome.set("flow.mincost_paths", d("flow.mincost.paths") / rounds);
  share("flow.warm_hit_ratio", d("solver.warm_starts"),
        d("solver.warm_starts") + d("solver.partial_repairs") +
            d("solver.warm_misses"),
        "no warm-capable min-cost solve ran");
  share("flow.partial_repair_ratio", d("solver.partial_repairs"),
        d("solver.partial_repairs") + d("solver.partial_rollbacks"),
        "no partial repair was attempted");
  outcome.set("lp.simplex_iterations", d("lp.simplex.iterations") / rounds);
  const double reused =
      d("lp.basis_reuse_hits") + d("lp.basis_reuse_memo_hits");
  share("lp.basis_reuse_ratio", reused, reused + d("lp.basis_reuse_misses"),
        "no warm-capable simplex solve ran");
  share("graph.path_cache_hit_ratio", d("cache.path.hits"),
        d("cache.path.hits") + d("cache.path.misses"),
        "no tunnel lookup ran");
  share("core.memo_hit_ratio", d("solver.incremental_hits"),
        d("solver.incremental_hits") + d("solver.incremental_misses"),
        "the incremental memo is off on this workload");
  outcome.set("exec.tasks", d("exec.tasks") / rounds);
  outcome.set("exec.steals", d("exec.steals") / rounds);
  outcome.set("replay.chunk_refills", d("replay.chunk.refills") / rounds);
}

}  // namespace perfbench
