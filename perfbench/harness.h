// The benchmark harness: options, timing, output checks, the metric tables
// every run prints, and the view over a traced phase's spans.
//
// A run sets its workload up several times (setup_s is the median), then
// measures one timed phase.  A traced run (--trace 1) measures two phases
// over identical operation sequences: an untraced one bounded by half the
// run time, and a traced one that repeats exactly as many operations on a
// fresh setup, so the wall-time ratio of the two is the tracing overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 36.0;
  bool trace = false;
  /// Fixed operation count for the timed phase; 0 = bounded by `seconds`.
  std::size_t ops = 0;
  /// Directory for files a workload writes (market_durable's WAL).
  std::string scratch_dir = ".bench_build/tmp";
};

/// Every workload's fleet size, and the paper's record count (the CityPulse
/// export's 17,568 records).
inline constexpr std::size_t kNodes = 64;
inline constexpr std::size_t kPaperRecords = 17568;

/// Steady-clock time on the tracer's time base, so bench timestamps and
/// span records compare directly.
inline std::int64_t now_ns() {
  return prc::trace::Tracer::instance().now_ns();
}

inline double ms_since(std::int64_t begin_ns) {
  return static_cast<double>(now_ns() - begin_ns) / 1e6;
}

/// The ozone column of `record_count` generated CityPulse records.
std::vector<double> generate_ozone(std::size_t record_count,
                                   std::uint64_t seed);

/// End-of-phase output checks.  Each check counts as one attempted
/// operation and, when it fails, as a failed one; the first few messages
/// are kept for the report.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  /// Adds another set's counts and messages to this one.
  void merge(const Checks& other);
  std::uint64_t performed() const noexcept { return performed_; }
  std::uint64_t failures() const noexcept { return failures_; }
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t performed_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Metric values restricted to the names declared in harness.cc (the same
/// names BENCHMARK.json lists); unset metrics print as 0.
class Metrics {
 public:
  enum class Kind { kEndToEnd, kPerLayer };
  explicit Metrics(Kind kind);
  /// Throws std::logic_error for a name the table does not declare.
  void set(const std::string& name, double value);
  /// "name value unit" lines for the human-readable report.
  std::string to_text() const;
  /// The JSON object {"name": {"value": v, "unit": u}, ...}.
  std::string to_json() const;
  /// True when every value is finite.
  bool all_finite() const;

 private:
  struct Entry {
    std::string unit;
    double value = 0.0;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// Stretches of a timed phase that are not measured operations: a pass's
/// rebuild and its book checks.  Per-layer metrics leave out the spans that
/// start inside them, their time, and the counter increments made during
/// them.
class Exclusions {
 public:
  /// Excludes the scope's lifetime.
  class Scope {
   public:
    explicit Scope(Exclusions& owner);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Exclusions& owner_;
    std::int64_t begin_ns_;
    std::vector<std::pair<std::string, std::uint64_t>> counters_;
  };

  const std::vector<Interval>& intervals() const noexcept {
    return intervals_;
  }
  /// Increments of a telemetry counter made inside the excluded stretches.
  std::uint64_t count(const std::string& counter) const;

 private:
  std::vector<Interval> intervals_;
  std::map<std::string, std::uint64_t> counts_;
};

/// The spans of a traced phase and their self times.
class TraceView {
 public:
  /// Takes the tracer's completed spans that started in [begin_ns, end_ns)
  /// outside the excluded intervals.
  TraceView(std::vector<prc::trace::SpanRecord> spans, std::int64_t begin_ns,
            std::int64_t end_ns, std::vector<Interval> excluded);

  /// Durations (us) of every span with this name.
  std::vector<double> durations_us(const std::string& name) const;
  /// Summed self time (us) of every span with this name.
  double total_self_us(const std::string& name) const;
  /// Share of the phase's measured time covered by at least one span.
  double covered_ratio() const;
  std::size_t span_count() const noexcept { return spans_.size(); }
  /// Summed self time (us) per layer, keyed by layer name.
  std::map<std::string, double> layer_self_us() const;
  /// Per-layer self-time table, with each layer's share of the phase.
  std::string layer_table(const std::string& title) const;

 private:
  /// Measured time: the phase minus its excluded intervals.
  std::int64_t measured_ns() const;

  std::vector<prc::trace::SpanRecord> spans_;
  std::vector<std::int64_t> self_ns_;
  std::int64_t begin_ns_;
  std::int64_t end_ns_;
  std::vector<Interval> excluded_;
};

/// Decides at each pass boundary whether a run starts another pass: only
/// when a pass as long as the last one would end by the deadline, so a run
/// ends where a pass ends and does not overrun its time.
class PassClock {
 public:
  explicit PassClock(std::int64_t deadline_ns)
      : deadline_ns_(deadline_ns), pass_start_ns_(now_ns()) {}

  /// Whether another pass fits; when it does, it starts now.
  bool next_pass_fits() {
    const std::int64_t now = now_ns();
    if (now + (now - pass_start_ns_) > deadline_ns_) return false;
    pass_start_ns_ = now;
    return true;
  }

 private:
  std::int64_t deadline_ns_;
  std::int64_t pass_start_ns_;
};

/// What one timed phase did.
struct PhaseResult {
  /// Operations completed (epochs or buyer visits); the traced phase
  /// repeats exactly this many.
  std::size_t ops = 0;
  /// Operations attempted and those that failed (an exception, an
  /// unexpected refusal, or a failed per-operation output check).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Pass rebuilds and book checks inside the phase.
  Exclusions excluded;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds fresh state from the seed, replacing the previous state, and
  /// records the setup layers' times.
  virtual void setup() = 0;
  /// Runs the timed operations until `deadline_ns` (tracer time base) or
  /// `max_ops`, whichever comes first.
  virtual PhaseResult run(std::int64_t deadline_ns, std::size_t max_ops) = 0;
  /// End-of-phase output checks on the state the last run left.
  virtual void verify(Checks& checks) = 0;
  /// End-to-end metrics of the last run (setup_s and peak_rss_mb are the
  /// harness's).
  virtual void end_to_end(Metrics& metrics) const = 0;
  /// Per-layer metrics of the last (traced) run.
  virtual void per_layer(Metrics& metrics, const TraceView& trace) const = 0;
  /// The workload's own metric names (sale_p50_us, collect_epoch_p90_ms,
  /// ...) with their values, for the text report.
  virtual std::string summary() const = 0;
};

std::unique_ptr<Workload> make_collect_stream(const Options& options);
std::unique_ptr<Workload> make_market_warm(const Options& options);
std::unique_ptr<Workload> make_market_durable(const Options& options);

/// Telemetry counter value by name.
std::uint64_t counter_value(const std::string& name);

/// Median of the recorded setup-layer times (ms), 0 when none.
double median_ms(const std::vector<double>& samples_ms);

}  // namespace perfbench
