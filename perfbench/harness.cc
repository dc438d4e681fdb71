#include "harness.h"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/telemetry.h"
#include "data/citypulse.h"
#include "stats.h"

namespace perfbench {
namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json; run.py checks the printed names
// against it.
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_us", "us"},
    {"op_tail_us", "us"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricDecl kPerLayer[] = {
    // Setup layers (median over the run's setups).
    {"data.generate_ms", "ms"},
    {"data.partition_ms", "ms"},
    {"iot.build_ms", "ms"},
    // Collection layers: per-epoch medians of the bench spans.
    {"iot.append_ms", "ms"},
    {"iot.refresh_ms", "ms"},
    {"iot.topup_ms", "ms"},
    {"estimator.batch_us", "us"},
    {"iot.samples_transferred", "count"},
    {"iot.uplink_bytes", "bytes"},
    {"iot.uplink_bytes_per_sample", "bytes/sample"},
    {"iot.resynced_nodes", "count"},
    {"iot.cached_samples", "count"},
    {"iot.rounds", "count"},
    {"iot.rounds_noop", "count"},
    {"iot.noop_round_ratio", "ratio"},
    // dp: self time per completed sale, and planner work with its bases.
    {"dp.optimize_us", "us/sale"},
    {"dp.answer_self_us", "us/sale"},
    {"dp.answers", "count"},
    {"dp.plan_cache_hits", "count"},
    {"dp.plan_cache_misses", "count"},
    {"dp.plan_cache_hit_ratio", "ratio"},
    {"dp.grid_evaluations", "count"},
    {"dp.grid_evaluations_per_answer", "ratio"},
    {"dp.refine_iterations", "count"},
    {"dp.refine_iterations_per_answer", "ratio"},
    // pricing
    {"pricing.quote_us_p50", "us"},
    {"pricing.quote_us_p99", "us"},
    {"pricing.best_attack_us", "us"},
    {"pricing.quote_cache_hits", "count"},
    {"pricing.quote_cache_misses", "count"},
    {"pricing.quote_cache_hit_ratio", "ratio"},
    {"pricing.attacks", "count"},
    {"pricing.attack_quotes", "count"},
    {"pricing.quotes_per_attack", "ratio"},
    // market
    {"market.sell_self_us", "us/sale"},
    {"market.sell_drift", "ratio"},
    {"market.sales", "count"},
    {"market.refused", "count"},
    {"market.refused_ratio", "ratio"},
    {"market.ledger_transactions", "count"},
    {"market.audit_events", "count"},
    {"market.wal.records", "count"},
    {"market.wal.bytes", "bytes"},
    {"market.wal.bytes_per_sale", "bytes/sale"},
    // Self time of each layer per timed operation (epoch or buyer visit).
    {"iot.self_us_per_op", "us/op"},
    {"estimator.self_us_per_op", "us/op"},
    {"dp.self_us_per_op", "us/op"},
    {"pricing.self_us_per_op", "us/op"},
    {"market.self_us_per_op", "us/op"},
    // common: the tracer itself.
    {"trace.overhead_ratio", "ratio"},
    {"trace.covered_ratio", "ratio"},
    {"trace.spans", "count"},
    {"trace.spans_dropped", "count"},
};

// Bench-side spans wrap one public call each; their self time is the call
// boundary of the layer they enter.
const std::unordered_map<std::string, std::string>& bench_span_layers() {
  static const std::unordered_map<std::string, std::string> layers = {
      {"bench.setup.generate", "data"},
      {"bench.setup.partition", "data"},
      {"bench.setup.build", "iot"},
      {"bench.setup.collect", "iot"},
      {"bench.setup.broker", "market"},
      {"bench.setup.warmup", "market"},
      {"bench.collect.append", "iot"},
      {"bench.collect.refresh", "iot"},
      {"bench.collect.topup", "iot"},
      {"bench.collect.estimate", "estimator"},
      {"bench.market.quote", "pricing"},
      {"bench.market.best_attack", "pricing"},
      {"bench.market.sell", "market"},
      {"bench.market.acquire", "market"},
  };
  return layers;
}

// The library layer a span's time belongs to: program spans by their
// prefix, bench-side spans by the layer of the public call they wrap.
std::string layer_of(const std::string& span_name) {
  const auto& bench = bench_span_layers();
  if (const auto it = bench.find(span_name); it != bench.end()) {
    return it->second;
  }
  const auto dot = span_name.find('.');
  return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

// All the digits of a double.
std::string format_number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  ++performed_;
  if (ok) return;
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Checks::merge(const Checks& other) {
  performed_ += other.performed_;
  failures_ += other.failures_;
  for (const auto& message : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(message);
  }
}

Metrics::Metrics(Kind kind) {
  auto add = [this](const auto& table) {
    for (const auto& decl : table) {
      order_.emplace_back(decl.name);
      entries_[decl.name] = Entry{decl.unit, 0.0};
    }
  };
  if (kind == Kind::kEndToEnd) {
    add(kEndToEnd);
  } else {
    add(kPerLayer);
  }
}

void Metrics::set(const std::string& name, double value) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::logic_error("undeclared metric " + name);
  }
  it->second.value = value;
}

std::string Metrics::to_text() const {
  std::ostringstream out;
  for (const auto& name : order_) {
    const auto& entry = entries_.at(name);
    out << std::left << std::setw(34) << name << ' '
        << format_number(entry.value) << ' ' << entry.unit << '\n';
  }
  return out.str();
}

std::string Metrics::to_json() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& name : order_) {
    const auto& entry = entries_.at(name);
    if (!first) out << ", ";
    first = false;
    out << '"' << name << "\": {\"value\": " << format_number(entry.value)
        << ", \"unit\": \"" << entry.unit << "\"}";
  }
  out << '}';
  return out.str();
}

bool Metrics::all_finite() const {
  for (const auto& [name, entry] : entries_) {
    if (!std::isfinite(entry.value)) return false;
  }
  return true;
}

Exclusions::Scope::Scope(Exclusions& owner)
    : owner_(owner),
      begin_ns_(now_ns()),
      counters_(prc::telemetry::Telemetry::registry().snapshot().counters) {}

Exclusions::Scope::~Scope() {
  owner_.intervals_.push_back({begin_ns_, now_ns()});
  // Both snapshots list counters sorted by name; a counter created inside
  // the scope counts from zero.
  const auto after = prc::telemetry::Telemetry::registry().snapshot().counters;
  auto before = counters_.begin();
  for (const auto& [name, value] : after) {
    while (before != counters_.end() && before->first < name) ++before;
    const bool seen = before != counters_.end() && before->first == name;
    owner_.counts_[name] += value - (seen ? before->second : 0);
  }
}

std::uint64_t Exclusions::count(const std::string& counter) const {
  const auto it = counts_.find(counter);
  return it == counts_.end() ? 0 : it->second;
}

TraceView::TraceView(std::vector<prc::trace::SpanRecord> spans,
                     std::int64_t begin_ns, std::int64_t end_ns,
                     std::vector<Interval> excluded)
    : begin_ns_(begin_ns), end_ns_(end_ns), excluded_(std::move(excluded)) {
  const auto is_excluded = [this](std::int64_t t) {
    for (const auto& iv : excluded_) {
      if (t >= iv.begin && t < iv.end) return true;
    }
    return false;
  };
  for (auto& span : spans) {
    if (span.start_ns >= begin_ns && span.start_ns < end_ns &&
        !is_excluded(span.start_ns)) {
      spans_.push_back(std::move(span));
    }
  }
  std::vector<SpanTiming> timings;
  timings.reserve(spans_.size());
  for (const auto& s : spans_) {
    timings.push_back({s.id, s.parent_id, s.start_ns, s.duration_ns});
  }
  self_ns_ = self_times(timings);
}

std::vector<double> TraceView::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.duration_ns) / 1e3);
  }
  return out;
}

double TraceView::total_self_us(const std::string& name) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += self_ns_[i];
  }
  return static_cast<double>(total) / 1e3;
}

std::int64_t TraceView::measured_ns() const {
  return end_ns_ - begin_ns_ - union_length(excluded_, begin_ns_, end_ns_);
}

double TraceView::covered_ratio() const {
  if (measured_ns() <= 0) return 0.0;
  std::vector<Interval> intervals;
  intervals.reserve(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent_id == 0) {
      intervals.push_back({s.start_ns, s.start_ns + s.duration_ns});
    }
  }
  return static_cast<double>(union_length(intervals, begin_ns_, end_ns_)) /
         static_cast<double>(measured_ns());
}

std::map<std::string, double> TraceView::layer_self_us() const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += static_cast<double>(self_ns_[i]) / 1e3;
  }
  return out;
}

std::string TraceView::layer_table(const std::string& title) const {
  const double phase_us = static_cast<double>(measured_ns()) / 1e3;
  std::ostringstream out;
  out << "# " << title << ": self time by layer over "
      << std::fixed << std::setprecision(1) << phase_us / 1e3 << " ms, "
      << spans_.size() << " spans\n";
  out << "#   " << std::left << std::setw(10) << "layer" << std::right
      << std::setw(14) << "self_ms" << std::setw(10) << "share" << '\n';
  double covered_us = 0.0;
  for (const auto& [layer, self_us] : layer_self_us()) {
    covered_us += self_us;
    out << "#   " << std::left << std::setw(10) << layer << std::right
        << std::setw(14) << std::setprecision(3) << self_us / 1e3
        << std::setw(9) << std::setprecision(1)
        << (phase_us > 0.0 ? 100.0 * self_us / phase_us : 0.0) << "%\n";
  }
  const double outside_us = std::max(0.0, phase_us - covered_us);
  out << "#   " << std::left << std::setw(10) << "(no span)" << std::right
      << std::setw(14) << std::setprecision(3) << outside_us / 1e3
      << std::setw(9) << std::setprecision(1)
      << (phase_us > 0.0 ? 100.0 * outside_us / phase_us : 0.0) << "%\n";
  return out.str();
}

std::vector<double> generate_ozone(std::size_t record_count,
                                   std::uint64_t seed) {
  PRC_TRACE_SPAN("bench.setup.generate");
  prc::data::CityPulseConfig config;
  config.record_count = record_count;
  config.seed = seed;
  const auto records = prc::data::CityPulseGenerator(config).generate();
  std::vector<double> values;
  values.reserve(records.size());
  for (const auto& r : records) {
    values.push_back(r.value(prc::data::AirQualityIndex::kOzone));
  }
  return values;
}

std::uint64_t counter_value(const std::string& name) {
  return prc::telemetry::counter(name).value();
}

double median_ms(const std::vector<double>& samples_ms) {
  return samples_ms.empty() ? 0.0 : median(samples_ms);
}

}  // namespace perfbench
