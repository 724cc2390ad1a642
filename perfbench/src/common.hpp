// Shared infrastructure of the repository benchmark: options, the result
// record every workload fills, the in-memory span tracer, registry deltas
// and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "obs/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seeds whose outputs are pinned in pins.json: the default seed and one
/// seed held out while the benchmark was written.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20171130;

/// Set-up runs this many times before the measured phase.
inline constexpr int kSetupRepeats = 5;
/// ...and kSetupBurst more times each time another 1/kSetupSpread of the
/// run has passed.
inline constexpr int kSetupSpread = 10;
inline constexpr int kSetupBurst = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Expected pinned values ("<workload>.<seed>.<what>" -> value).
  std::map<std::string, std::uint64_t> pins;
  /// Print the pinned values this build computes instead of checking them.
  bool print_pins = false;
  std::string trace_path;
};

/// One span of the traced run: a timed call made from benchmark code.
struct Span {
  std::string name;  ///< "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::int64_t round = -1;
};

/// In-memory span recorder. Disabled tracers record nothing. Spans nest by
/// scope on the thread that records them; only one thread may record.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::int64_t round);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  Scope span(std::string_view name, std::int64_t round = -1) {
    return Scope(*this, name, round);
  }

  /// Self time per layer in seconds: each span's duration minus the time
  /// its direct children cover, summed by the name's layer prefix.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Total duration of spans named `name`, in seconds.
  double total_seconds(std::string_view name) const;
  /// Writes the spans as Chrome trace-event JSON. Returns false on error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// Everything a workload reports. Metrics absent from `values` are printed
/// as 0 together with the reason in `absent`.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, double> values;
  std::map<std::string, std::string> absent;
  std::vector<std::string> notes;
  std::map<std::string, std::uint64_t> computed_pins;
  double setup_seconds = 0.0;

  void fail(const std::string& why, std::uint64_t count = 1);
  /// Counts one attempted check; a false `ok` is a failed operation.
  void check(bool ok, const std::string& what);
  /// Counts `failures` failed operations out of `attempts`.
  void count(std::uint64_t attempts, std::uint64_t failures,
             const std::string& what);
  void note(std::string line) { notes.push_back(std::move(line)); }
  void set(const std::string& name, double value) { values[name] = value; }
  /// Compares `actual` with the pin `<workload>.<seed>.<what>`.
  void check_pin(const Options& options, std::uint64_t seed,
                 const std::string& what, std::uint64_t actual);
};

/// Snapshot of registry counters; operator() reads the growth since, up to
/// now or, once stop() was called, up to that moment, so a delta can cover
/// one pass while later passes run before it is read.
class CounterDelta {
 public:
  CounterDelta();
  void stop();
  std::uint64_t operator()(std::string_view name) const;

 private:
  using Snapshot = std::map<std::string, std::uint64_t, std::less<>>;
  static Snapshot snapshot();

  Snapshot base_;
  std::optional<Snapshot> end_;
};

/// Worker threads to hand the library so that the benchmark's own threads
/// plus the pool stay within the machine's cores.
std::size_t pool_workers(std::size_t own_threads);
std::size_t core_count();

/// Nearest-rank-interpolated quantile of raw samples (q in [0, 1]).
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double ratio(double numerator, double denominator);

/// Times a workload's set-up several times over a run: kSetupRepeats
/// times before the measured phase, then kSetupBurst times whenever
/// poll() sees that another slice of the run has passed. A set-up takes
/// milliseconds, so samples spread over the run reflect the machine
/// across it rather than at one moment; setup_s is their median.
class SetupSampler {
 public:
  /// `repeat` re-runs the set-up into throwaway state.
  SetupSampler(double run_seconds, std::function<void()> repeat)
      : slice_(run_seconds / kSetupSpread), repeat_(std::move(repeat)) {}

  /// Times one run of `setup`.
  template <typename Fn>
  void time(Fn&& setup) {
    const Clock::time_point start = Clock::now();
    setup();
    samples_.push_back(seconds_since(start));
  }
  /// Times kSetupBurst throwaway re-runs of the set-up.
  void repeat() {
    for (int i = 0; i < kSetupBurst; ++i) time(repeat_);
  }
  /// Call between timed calls with the seconds since measuring began.
  void poll(double elapsed) {
    if (elapsed < next_) return;
    next_ = elapsed + slice_;
    repeat();
  }
  double median() const { return perfbench::median(samples_); }

 private:
  double slice_;
  double next_ = 0.0;
  std::function<void()> repeat_;
  std::vector<double> samples_;
};

double peak_rss_mb();

std::uint64_t mix64(std::uint64_t hash, std::uint64_t value);
std::uint64_t mix_double(std::uint64_t hash, double value);
/// Fold of everything a round decided: capacities after the round, the
/// SNR-forced flaps, the upgrades and the physical routing's edge loads.
std::uint64_t round_signature(
    const rwc::core::DynamicCapacityController& controller,
    const rwc::core::DynamicCapacityController::RoundReport& report);

std::string hex(std::uint64_t value);

}  // namespace perfbench
