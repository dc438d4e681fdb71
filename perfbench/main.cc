// prc_perfbench: runs one benchmark workload against the prc library's
// public API and prints its metrics.  The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  perfbench/README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "harness.h"
#include "stats.h"

namespace {

using namespace perfbench;

// The library's pool size: half the 4 cores the benchmark was tuned on,
// leaving room for the client thread.
constexpr std::size_t kThreads = 2;
// A run sets up at least kMinSetups times, and more while the setups add
// up to less than kMinSetupSeconds, so a cheap setup's median rests on
// many samples.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;
constexpr std::size_t kMaxSetups = 200;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

// Layer metrics read from the library's own counters and spans, common to
// every workload.  Counters were reset before the traced phase and the
// phase's excluded stretches are subtracted, so they count its measured
// operations alone.
void program_layer_metrics(Metrics& m, const TraceView& view,
                           const PhaseResult& phase) {
  const auto counter_double = [&](const std::string& name) {
    return static_cast<double>(counter_value(name) -
                               phase.excluded.count(name));
  };
  const auto ops = phase.ops;
  const double sales = counter_double("market.sales");
  m.set("market.sales", sales);

  m.set("iot.samples_transferred", counter_double("iot.samples_transferred"));
  m.set("iot.uplink_bytes", counter_double("iot.uplink_bytes"));
  m.set("iot.uplink_bytes_per_sample",
        ratio(counter_double("iot.uplink_bytes"),
              counter_double("iot.samples_transferred")));
  const double rounds = counter_double("iot.rounds");
  const double noop = counter_double("iot.rounds_noop");
  m.set("iot.rounds", rounds);
  m.set("iot.rounds_noop", noop);
  m.set("iot.noop_round_ratio", ratio(noop, rounds + noop));

  const double answers = counter_double("dp.answers");
  const double hits = counter_double("dp.plan_cache_hits");
  const double misses = counter_double("dp.plan_cache_misses");
  m.set("dp.answers", answers);
  m.set("dp.plan_cache_hits", hits);
  m.set("dp.plan_cache_misses", misses);
  m.set("dp.plan_cache_hit_ratio", ratio(hits, hits + misses));
  m.set("dp.grid_evaluations", counter_double("dp.grid_evaluations"));
  m.set("dp.grid_evaluations_per_answer",
        ratio(counter_double("dp.grid_evaluations"), answers));
  m.set("dp.refine_iterations", counter_double("dp.refine_iterations"));
  m.set("dp.refine_iterations_per_answer",
        ratio(counter_double("dp.refine_iterations"), answers));
  m.set("dp.optimize_us", ratio(view.total_self_us("dp.optimize"), sales));
  m.set("dp.answer_self_us", ratio(view.total_self_us("dp.answer"), sales));

  const double quote_hits = counter_double("pricing.quote_cache_hits");
  const double quote_misses = counter_double("pricing.quote_cache_misses");
  m.set("pricing.quote_cache_hits", quote_hits);
  m.set("pricing.quote_cache_misses", quote_misses);
  m.set("pricing.quote_cache_hit_ratio",
        ratio(quote_hits, quote_hits + quote_misses));

  m.set("market.sell_self_us",
        ratio(view.total_self_us("market.sell"), sales));
  m.set("market.wal.records", counter_double("market.wal_records"));
  m.set("market.wal.bytes", counter_double("market.wal_bytes"));
  m.set("market.wal.bytes_per_sale",
        ratio(counter_double("market.wal_bytes"), sales));

  const auto layers = view.layer_self_us();
  for (const char* layer : {"iot", "estimator", "dp", "pricing", "market"}) {
    const auto it = layers.find(layer);
    m.set(std::string(layer) + ".self_us_per_op",
          ratio(it == layers.end() ? 0.0 : it->second,
                static_cast<double>(ops)));
  }
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "collect_stream") {
    return make_collect_stream(options);
  }
  if (options.workload == "market_warm") return make_market_warm(options);
  if (options.workload == "market_durable") {
    return make_market_durable(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (collect_stream, market_warm, "
                              "market_durable)");
}

Options parse_options(int argc, char** argv) {
  prc::ArgParser parser(argv[0], "prc benchmark: one workload, one run");
  parser.option("workload", "collect_stream | market_warm | market_durable")
      .option("seed", "workload seed (default 1)")
      .option("seconds", "timed phase length in seconds (default 36)")
      .option("trace", "0: end-to-end metrics; 1: traced per-layer run")
      .option("ops", "fixed operation count instead of --seconds")
      .option("scratch-dir", "directory for written files (default "
                             ".bench_build/tmp)");
  if (!parser.parse(argc, argv)) std::exit(0);
  Options options;
  options.workload = parser.get_or("workload", "");
  options.seed = parser.get_uint("seed", options.seed);
  options.seconds = parser.get_double("seconds", options.seconds);
  const auto trace = parser.get_uint("trace", 0);
  if (trace > 1) throw std::invalid_argument("--trace takes 0 or 1");
  options.trace = trace == 1;
  options.ops = parser.get_uint("ops", 0);
  options.scratch_dir = parser.get_or("scratch-dir", options.scratch_dir);
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

int run(const Options& options) {
  prc::parallel::set_thread_count(kThreads);
  auto& tracer = prc::trace::Tracer::instance();
  tracer.set_enabled(false);
  auto workload = make_workload(options);

  std::vector<double> setup_s;
  const auto setups_begin = now_ns();
  while (setup_s.size() < kMinSetups ||
         (static_cast<double>(now_ns() - setups_begin) / 1e9 <
              kMinSetupSeconds &&
          setup_s.size() < kMaxSetups)) {
    const auto t0 = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::size_t max_ops = options.ops != 0
                                  ? options.ops
                                  : std::numeric_limits<std::size_t>::max();
  const auto bounded_deadline = [&](double seconds) {
    return options.ops != 0
               ? std::numeric_limits<std::int64_t>::max()
               : now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  };

  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed;
  };

  std::cout << "# workload " << options.workload << " seed " << options.seed
            << " threads " << kThreads << " trace "
            << (options.trace ? 1 : 0) << "\n";
  const auto setup_q = quartiles(setup_s);
  std::cout << "# setup_s over " << setup_s.size() << " setups: median "
            << setup_q.median << " q1 " << setup_q.q1 << " q3 " << setup_q.q3
            << "\n";

  std::string metrics_json;
  if (!options.trace) {
    const auto phase = workload->run(bounded_deadline(options.seconds),
                                     max_ops);
    account(phase);
    workload->verify(checks);
    Metrics m(Metrics::Kind::kEndToEnd);
    m.set("setup_s", median(setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    workload->end_to_end(m);
    std::cout << workload->summary() << m.to_text();
    checks.expect(m.all_finite(), "a metric is not finite");
    metrics_json = m.to_json();
  } else {
    // Untraced phase: half the run, bounded by time.
    const auto u0 = now_ns();
    const auto untraced = workload->run(bounded_deadline(options.seconds / 2),
                                        max_ops);
    const double untraced_s = static_cast<double>(now_ns() - u0) / 1e9;
    account(untraced);
    workload->verify(checks);

    // Traced phase: a fresh setup, then exactly as many operations.  The
    // tracer is off during the setup, so its allocations do not interleave
    // with the state the phase then walks.  The ring holds 64 spans per
    // operation, more than an operation and its share of the pass rebuilds
    // record, so nothing may be dropped.
    workload->setup();
    prc::telemetry::Telemetry::registry().reset();
    tracer.clear();
    tracer.set_capacity((untraced.ops + 1) * 64);
    tracer.set_enabled(true);
    const auto t0 = now_ns();
    const auto traced = workload->run(std::numeric_limits<std::int64_t>::max(),
                                      untraced.ops);
    const auto t1 = now_ns();
    tracer.set_enabled(false);
    account(traced);
    workload->verify(checks);
    checks.expect(traced.ops == untraced.ops,
                  "traced phase did not repeat the untraced operations");

    const auto dropped = tracer.dropped();
    checks.expect(dropped == 0, "tracer dropped spans");
    const TraceView view(tracer.snapshot(), t0, t1,
                         traced.excluded.intervals());
    Metrics m(Metrics::Kind::kPerLayer);
    program_layer_metrics(m, view, traced);
    workload->per_layer(m, view);
    const double traced_s = static_cast<double>(t1 - t0) / 1e9;
    m.set("trace.overhead_ratio", ratio(traced_s, untraced_s) - 1.0);
    m.set("trace.covered_ratio", view.covered_ratio());
    m.set("trace.spans", static_cast<double>(view.span_count()));
    m.set("trace.spans_dropped", static_cast<double>(dropped));
    std::cout << view.layer_table("timed phase")
              << "# untraced " << untraced_s << " s, traced " << traced_s
              << " s over " << traced.ops << " operations\n"
              << workload->summary() << m.to_text();
    checks.expect(m.all_finite(), "a metric is not finite");
    metrics_json = m.to_json();
  }

  attempted += checks.performed();
  failed += checks.failures();
  for (const auto& message : checks.messages()) {
    std::cout << "# check failed: " << message << "\n";
  }
  std::cout << "# failed_share " << failed_share(attempted, failed) << " ("
            << failed << " of " << attempted << ")\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "prc_perfbench: " << e.what() << "\n";
    return 2;
  }
}
