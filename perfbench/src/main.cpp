// rwc_perfbench: runs one benchmark workload and prints its metrics.
//
//   rwc_perfbench --workload <cold_round|fleet|closed_loop|serve>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--pin <workload>.<seed>.<what>=<hex>]... [--print-pins]
//                 [--trace-file <path>] [--git-rev <rev>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run reports the
// end-to-end metrics; a traced run reports the per-layer metrics and
// writes its spans as a Chrome trace-event file. README.md in this
// directory lists every workload and metric.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <span>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the emitted names).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
    {"rounds_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.run_round_s", "s"},
    {"core.consolidate_s", "s"},
    {"core.consolidate_share", "ratio"},
    {"core.evaluations", "count"},
    {"core.eval_waste", "ratio"},
    {"core.augment_s", "s"},
    {"core.translate_s", "s"},
    {"core.transition_s", "s"},
    {"core.memo_hit_ratio", "ratio"},
    {"core.dirty_fraction", "ratio"},
    {"core.self_s", "s"},
    {"te.solve_s", "s"},
    {"flow.mincost_runs", "count"},
    {"flow.mincost_paths", "count"},
    {"flow.warm_hit_ratio", "ratio"},
    {"flow.partial_repair_ratio", "ratio"},
    {"lp.simplex_iterations", "count"},
    {"lp.basis_reuse_ratio", "ratio"},
    {"graph.path_cache_hit_ratio", "ratio"},
    {"demand.round_s", "s"},
    {"demand.counters_s", "s"},
    {"demand.exact_ratio", "ratio"},
    {"demand.residual", "Gbps"},
    {"demand.self_s", "s"},
    {"update.plan_s", "s"},
    {"update.rounds", "count"},
    {"update.route_moves", "count"},
    {"dataplane.run_round_s", "s"},
    {"dataplane.ticks_per_s", "1/s"},
    {"dataplane.timeline_s", "s"},
    {"dataplane.migrations", "count"},
    {"dataplane.rate_cuts", "count"},
    {"dataplane.drop_ratio", "ratio"},
    {"dataplane.max_queue_bytes", "B"},
    {"dataplane.round_share", "ratio"},
    {"dataplane.pool_slowdown", "ratio"},
    {"dataplane.self_s", "s"},
    {"telemetry.cursor_s", "s"},
    {"telemetry.self_s", "s"},
    {"serve.step_s", "s"},
    {"serve.batch_events", "count"},
    {"serve.queue_depth", "count"},
    {"serve.ingest_drop_ratio", "ratio"},
    {"serve.generator_late_ms", "ms"},
    {"serve.publish_lag_p50_ms", "ms"},
    {"serve.publish_lag_p99_ms", "ms"},
    {"serve.read_p50_ns", "ns"},
    {"serve.read_p99_ns", "ns"},
    {"serve.reads_per_s", "1/s"},
    {"serve.self_s", "s"},
    {"exec.rcu_pending", "count"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"replay.encode_s", "s"},
    {"replay.decode_s", "s"},
    {"replay.checkpoint_bytes", "B"},
    {"replay.chunk_refills", "count"},
    {"replay.self_s", "s"},
    {"fleet.instance_p50_s", "s"},
    {"fleet.instance_max_s", "s"},
    {"fleet.self_s", "s"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rwc_perfbench: %s\nusage: rwc_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, int base, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (end == text || *end != '\0') usage(what);
  return value;
}

struct Run {
  Options options;
  std::string git_rev = "unknown";
};

Run parse(int argc, char** argv) {
  Run run;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      run.options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      run.options.seed = parse_u64(value(), 10, "bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      const char* text = value();
      run.options.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(run.options.seconds > 0.0))
        usage("bad --seconds");
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
      run.options.trace = trace == "1";
    } else if (arg == "--pin") {
      const std::string pin = value();
      const std::size_t eq = pin.find('=');
      if (eq == std::string::npos) usage("--pin takes key=hex");
      run.options.pins[pin.substr(0, eq)] =
          parse_u64(pin.c_str() + eq + 1, 16, "bad --pin value");
    } else if (arg == "--print-pins") {
      run.options.print_pins = true;
    } else if (arg == "--trace-file") {
      run.options.trace_path = value();
    } else if (arg == "--git-rev") {
      run.git_rev = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return run;
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Run run = parse(argc, argv);
  const Options& options = run.options;

  Outcome outcome;
  try {
    if (options.workload == "cold_round") {
      outcome = run_cold_round(options);
    } else if (options.workload == "fleet") {
      outcome = run_fleet(options);
    } else if (options.workload == "closed_loop") {
      outcome = run_closed_loop(options);
    } else if (options.workload == "serve") {
      outcome = run_serve(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rwc_perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }

  if (options.print_pins) {
    for (const auto& [key, value] : outcome.computed_pins)
      std::printf("pin %s %s\n", key.c_str(), hex(value).c_str());
    return 0;
  }

  outcome.set("setup_s", outcome.setup_seconds);
  outcome.set("peak_rss_mb", peak_rss_mb());

  std::printf("meta: {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d, \"nproc\": %zu, "
              "\"build_type\": \"%s\", \"optimized\": %s, "
              "\"compiler\": \"%s\", \"git_rev\": \"%s\"}\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0, core_count(), PERFBENCH_BUILD_TYPE,
              optimized_build() ? "true" : "false", PERFBENCH_COMPILER,
              run.git_rev.c_str());
  if (!optimized_build())
    std::fprintf(stderr,
                 "rwc_perfbench: WARNING: not an optimised build; timings "
                 "are not comparable\n");
  for (const std::string& note : outcome.notes)
    std::printf("# %s\n", note.c_str());
  for (const std::string& failure : outcome.failures)
    std::printf("FAILED: %s\n", failure.c_str());

  const std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  bool first = true;
  std::string json_metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = outcome.values.find(spec.name);
    const double value = it == outcome.values.end() ? 0.0 : it->second;
    if (it == outcome.values.end()) {
      const auto why = outcome.absent.find(spec.name);
      std::printf("%-30s %18s %-6s (absent: %s)\n", spec.name, "0", spec.unit,
                  why == outcome.absent.end()
                      ? "layer not exercised by this workload"
                      : why->second.c_str());
    } else {
      std::printf("%-30s %18.6g %s\n", spec.name, value, spec.unit);
    }
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value, spec.unit);
    json_metrics += buffer;
    first = false;
  }
  if (options.trace && !options.trace_path.empty())
    std::printf("# trace file: %s\n", options.trace_path.c_str());

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              outcome.attempted > 0 ? outcome.attempted : 1, outcome.failed,
              json_metrics.c_str());
  return 0;
}
