// Shared helpers for the experiment binaries.
//
// Every binary reproduces one paper figure/table, runs with no arguments on
// the synthetic CityPulse-like dataset, and accepts:
//   --csv <path>            use a real CityPulse export instead of the
//                           generator
//   --trials <n>            trials per configuration (default per-binary)
//   --seed <n>              master seed
//   --output-csv            also print machine-readable CSV after the table
//   --telemetry-json <path> write the run's TelemetrySnapshot as JSON
//                           (default <binary>.telemetry.json); a Prometheus
//                           exposition twin is written next to it with the
//                           .json suffix replaced by .prom
//   --no-telemetry          skip the snapshot export (both files)
//   --threads <n>           worker threads for the parallel sections
//                           (default: PRC_THREADS env or 1; results are
//                           bit-identical for every value)
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/parallel.h"
#include "common/prometheus.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/citypulse.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "iot/network.h"
#include "query/range_query.h"

namespace prc::bench {

struct Options {
  std::optional<std::string> csv_path;
  std::size_t trials = 0;  // 0 = binary default
  std::uint64_t seed = 20140801;
  bool output_csv = false;
  /// Where emit() writes the run's TelemetrySnapshot; empty = disabled.
  std::string telemetry_json_path;
  /// Worker threads the run was configured with (parallel::thread_count()
  /// after --threads was applied).
  std::size_t threads = 1;
  /// Sensor node count override; 0 = the binary's default scenario.
  std::size_t nodes = 0;
  /// Write-ahead log path for the durability-overhead mode (consumed by
  /// market_session; empty = WAL disabled, the default run is untouched).
  std::string wal_path;
  /// When set, market_session serves /metrics and /healthz on this port for
  /// the lifetime of the run (0 = pick an ephemeral port and print it;
  /// nullopt = no HTTP server, the default).
  std::optional<std::uint16_t> metrics_port;
  /// Set by parse_options; emit() turns it into bench.wall_clock_us so the
  /// snapshot carries the run's end-to-end wall time next to its counters.
  std::chrono::steady_clock::time_point start_time;
};

inline Options parse_options(int argc, char** argv) {
  ArgParser parser(argv[0],
                   "prc experiment binary (see DESIGN.md for the index)");
  parser.option("csv", "run on a real CityPulse CSV export")
      .option("trials", "trials per configuration (0 = binary default)")
      .option("seed", "master seed")
      .flag("output-csv", "also print machine-readable CSV")
      .option("telemetry-json",
              "telemetry snapshot path (default <binary>.telemetry.json)")
      .flag("no-telemetry", "skip the telemetry snapshot export")
      .option("threads",
              "worker threads for parallel sections (default: PRC_THREADS "
              "env or 1)")
      .option("nodes", "sensor node count (0 = binary default)")
      .option("wal",
              "write-ahead log path: adds a durability-overhead comparison "
              "(market_session only; default runs are unaffected)")
      .option("metrics-port",
              "serve /metrics and /healthz on this port for the run's "
              "lifetime (market_session only; 0 = ephemeral)");
  try {
    if (!parser.parse(argc, argv)) std::exit(0);  // --help
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n" << parser.help();
    std::exit(2);
  }
  Options options;
  options.start_time = std::chrono::steady_clock::now();
  if (const auto threads = parser.get_uint("threads", 0); threads > 0) {
    parallel::set_thread_count(static_cast<std::size_t>(threads));
  }
  options.threads = parallel::thread_count();
  options.nodes = static_cast<std::size_t>(parser.get_uint("nodes", 0));
  if (const auto wal = parser.get("wal")) options.wal_path = *wal;
  if (parser.get("metrics-port")) {
    options.metrics_port =
        static_cast<std::uint16_t>(parser.get_uint("metrics-port", 0));
  }
  options.csv_path = parser.get("csv");
  options.trials = static_cast<std::size_t>(parser.get_uint("trials", 0));
  options.seed = parser.get_uint("seed", options.seed);
  options.output_csv = parser.has("output-csv");
  if (!parser.has("no-telemetry")) {
    if (const auto path = parser.get("telemetry-json")) {
      options.telemetry_json_path = *path;
    } else {
      // Default: <binary>.telemetry.json next to the working directory.
      std::string program = argv[0];
      const auto slash = program.find_last_of('/');
      if (slash != std::string::npos) program = program.substr(slash + 1);
      options.telemetry_json_path = program + ".telemetry.json";
    }
  }
  return options;
}

/// Loads the evaluation dataset: a real export when --csv was given,
/// otherwise the paper-shaped synthetic generator.
inline std::vector<data::AirQualityRecord> load_records(
    const Options& options) {
  PRC_TIMED_SPAN("bench.load_records");
  if (options.csv_path) {
    std::cout << "# dataset: " << *options.csv_path << "\n";
    return data::read_records_csv(*options.csv_path);
  }
  data::CityPulseConfig config;
  config.seed = options.seed;
  std::cout << "# dataset: synthetic CityPulse-like ("
            << config.record_count << " records, seed " << config.seed
            << ")\n";
  return data::CityPulseGenerator(config).generate();
}

/// Builds a k-node flat network holding one column's values.
inline iot::FlatNetwork make_network(const data::Column& column,
                                     std::size_t nodes, std::uint64_t seed) {
  PRC_TIMED_SPAN("bench.make_network");
  Rng rng(seed);
  auto node_data = data::partition_values(
      column.values(), nodes, data::PartitionStrategy::kRoundRobin, rng);
  iot::NetworkConfig config;
  config.seed = seed + 1;
  return iot::FlatNetwork(std::move(node_data), config);
}

/// |estimate - truth| / truth; the measure the paper's figures plot.
/// Returns 0 for truth == 0 and estimate == 0, infinity if only truth is 0.
inline double relative_error(double estimate, double truth) {
  if (truth == 0.0) {
    return estimate == 0.0 ? 0.0
                           : std::numeric_limits<double>::infinity();
  }
  return std::abs(estimate - truth) / truth;
}

inline void emit(const TextTable& table, const Options& options) {
  std::cout << table.to_string();
  if (options.output_csv) {
    std::cout << "\n# CSV\n" << table.to_csv();
  }
  if (!options.telemetry_json_path.empty()) {
    // Stamp the run shape into the snapshot so scripts/bench_compare.py can
    // compare like with like: wall-clock is informational (machines and
    // thread counts differ), the counters are the exact contract.
    const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - options.start_time);
    telemetry::gauge("bench.wall_clock_us")
        .set(static_cast<double>(wall.count()));
    telemetry::gauge("bench.threads")
        .set(static_cast<double>(options.threads));
    // Gauge, not counter: trace.spans_dropped must stay outside the
    // bit-exact counter contract bench_compare.py gates.
    trace::publish_telemetry();
    const auto snapshot = telemetry::Telemetry::registry().snapshot();
    std::ofstream out(options.telemetry_json_path);
    out << snapshot.to_json() << "\n";
    if (out) {
      std::cout << "# telemetry: " << options.telemetry_json_path << " ("
                << snapshot.metric_count() << " metrics)\n";
    } else {
      std::cerr << "# telemetry: cannot write "
                << options.telemetry_json_path << "\n";
    }
    // The same snapshot in Prometheus exposition format, next to the JSON
    // (<name>.telemetry.json -> <name>.telemetry.prom), so bench artifacts
    // are greppable with standard scrape tooling.  bench_compare.py skips
    // .prom files; the JSON stays the comparison format.
    std::string prom_path = options.telemetry_json_path;
    const std::string json_suffix = ".json";
    if (prom_path.size() >= json_suffix.size() &&
        prom_path.compare(prom_path.size() - json_suffix.size(),
                          json_suffix.size(), json_suffix) == 0) {
      prom_path.resize(prom_path.size() - json_suffix.size());
    }
    prom_path += ".prom";
    std::ofstream prom_out(prom_path);
    prom_out << telemetry::prometheus::render(snapshot);
    if (prom_out) {
      std::cout << "# telemetry: " << prom_path << " (exposition 0.0.4)\n";
    } else {
      std::cerr << "# telemetry: cannot write " << prom_path << "\n";
    }
  }
}

}  // namespace prc::bench
