// Lightweight span tracer: where does a query's wall-time go?
//
//   PRC_TRACE_SPAN("dp.optimize");
//
// opens an RAII span named after the operation; PRC_TIMED_SPAN("dp.optimize")
// also records the scope's duration into the "dp.optimize_duration_us"
// histogram, from the same two clock reads.  Nested spans (same thread)
// record their parent's id and depth, so a full sale traces as
//   market.sell -> dp.answer -> { iot.round, dp.optimize }.
// Completed spans land in a bounded ring buffer (oldest dropped first);
// Tracer::flame_text() renders the buffer as an indented, flamegraph-style
// text dump and prc_query --trace prints it after a run.  The tracer starts
// disabled, so a process that never reads the ring pays nothing for it;
// prc_query turns it on for --trace / --trace-json.  The duration
// histograms of PRC_TIMED_SPAN are fed either way.
//
// Clocks are std::chrono::steady_clock; span names must be string literals
// (or otherwise outlive the span).  Only operation NAMES and durations are
// recorded — never data values — so traces obey the same privacy-safety
// rule as the metrics registry.
//
// Thread-safety: the ring buffer is mutex-protected; the parent stack is
// thread-local (parent/child links never cross threads); ids come from one
// atomic counter.  TSan-clean by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "common/thread_annotations.h"

namespace prc::trace {

/// One completed span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = no parent (root span)
  std::uint32_t depth = 0;      ///< nesting level on its thread (root = 0)
  std::uint32_t tid = 0;        ///< small per-process thread id (1-based)
  std::string name;
  std::int64_t start_ns = 0;  ///< steady-clock offset from the tracer epoch
  std::int64_t duration_ns = 0;
};

class Tracer {
 public:
  /// The process-wide tracer (disabled until set_enabled(true), capacity
  /// 4096 spans).
  static Tracer& instance();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Resizes the ring buffer (drops oldest spans if shrinking).
  void set_capacity(std::size_t capacity);

  /// Completed spans in completion order (children before their parents).
  std::vector<SpanRecord> snapshot() const;

  /// Spans evicted from the ring since the last clear().
  std::uint64_t dropped() const;

  /// Flamegraph-style text: one line per span in start order, indented two
  /// spaces per nesting level, with millisecond durations.  When spans were
  /// evicted, the header carries the count and an explicit warning line so
  /// truncated flamegraphs can never pass as complete.
  std::string flame_text() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}) loadable by Perfetto
  /// and chrome://tracing: one "X" (complete) event per span with
  /// microsecond ts/dur, the span's thread id, and id/parent_id/depth in
  /// args, so cross-thread nesting renders exactly as recorded.  Only
  /// operation names and durations are exported — the same privacy-safety
  /// rule as flame_text().
  std::string to_chrome_json() const;

  void clear();

  // Internal API used by ScopedSpan.
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void record(SpanRecord span);
  std::int64_t now_ns() const;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  // enabled_ is a sampling on/off latch (spans racing a toggle may or
  // may not record — both legal); next_id_ is a relaxed unique-id
  // fountain, uniqueness needs atomicity, not ordering.
  std::atomic<bool> enabled_{false};      // lint:allow atomic
  std::atomic<std::uint64_t> next_id_{0};  // lint:allow atomic
  std::int64_t epoch_ns_ = 0;
  mutable std::mutex mutex_;
  std::size_t capacity_ PRC_GUARDED_BY(mutex_) = 4096;
  std::deque<SpanRecord> ring_ PRC_GUARDED_BY(mutex_);
  std::uint64_t dropped_ PRC_GUARDED_BY(mutex_) = 0;
};

/// RAII span handle; see PRC_TRACE_SPAN and PRC_TIMED_SPAN.
class ScopedSpan {
 public:
  /// With a `duration_us` sink, the scope's elapsed microseconds land there
  /// on exit whether or not the tracer is enabled; the ring gets the span
  /// only while it is.  Both read the same start and end clock samples.
  explicit ScopedSpan(const char* name,
                      telemetry::Histogram* duration_us = nullptr);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  std::uint64_t id() const noexcept { return id_; }

 private:
  const char* name_;
  telemetry::Histogram* duration_us_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint32_t depth_ = 0;
  std::int64_t start_ns_ = 0;
  bool active_ = false;  ///< the span goes to the ring
};

/// Publishes tracer-ring statistics into the metrics registry: sets the
/// `trace.spans_dropped` gauge from Tracer::dropped().  Export paths
/// (prc_query, bench emit, the /metrics endpoint) call this right before
/// snapshotting so silent span eviction is always visible to operators.
/// A gauge (set, not incremented) keeps bench counter baselines untouched.
void publish_telemetry();

}  // namespace prc::trace

#define PRC_TRACE_CONCAT_INNER(a, b) a##b
#define PRC_TRACE_CONCAT(a, b) PRC_TRACE_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define PRC_TRACE_SPAN(name) \
  ::prc::trace::ScopedSpan PRC_TRACE_CONCAT(prc_trace_span_, __LINE__)(name)

/// A span that also records its duration into the `<name>_duration_us`
/// histogram, looked up once per site.  `name` must be a string literal.
#define PRC_TIMED_SPAN(name)                                           \
  static ::prc::telemetry::Histogram& PRC_TRACE_CONCAT(                \
      prc_span_duration_, __LINE__) =                                  \
      ::prc::telemetry::histogram(name "_duration_us");                \
  ::prc::trace::ScopedSpan PRC_TRACE_CONCAT(prc_trace_span_, __LINE__)( \
      name, &PRC_TRACE_CONCAT(prc_span_duration_, __LINE__))
