// Span tracer: nesting (parent/child/depth), completion ordering, ring
// eviction, enable/disable, the flamegraph text dump, and timed spans.

#include "common/trace.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/telemetry.h"

namespace prc::trace {
namespace {

// The tracer under test is the process-wide singleton, so every test
// restores a clean slate first.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(true);
    Tracer::instance().set_capacity(4096);
    Tracer::instance().clear();
  }
};

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  const auto it = std::find_if(
      spans.begin(), spans.end(),
      [&](const SpanRecord& span) { return span.name == name; });
  return it == spans.end() ? nullptr : &*it;
}

TEST_F(TraceTest, RecordsNestedSpansWithParentLinks) {
  {
    PRC_TRACE_SPAN("outer");
    {
      PRC_TRACE_SPAN("middle");
      { PRC_TRACE_SPAN("inner"); }
    }
  }
  const auto spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const auto* outer = find_span(spans, "outer");
  const auto* middle = find_span(spans, "middle");
  const auto* inner = find_span(spans, "inner");
  ASSERT_TRUE(outer && middle && inner);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(middle->parent_id, outer->id);
  EXPECT_EQ(middle->depth, 1u);
  EXPECT_EQ(inner->parent_id, middle->id);
  EXPECT_EQ(inner->depth, 2u);
  // Children complete before their parents (RAII unwinding order).
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[2].name, "outer");
  // A child starts no earlier and ends no later than its parent.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->duration_ns,
            outer->start_ns + outer->duration_ns);
}

TEST_F(TraceTest, SiblingsShareTheParent) {
  {
    PRC_TRACE_SPAN("parent");
    { PRC_TRACE_SPAN("first"); }
    { PRC_TRACE_SPAN("second"); }
  }
  const auto spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const auto* parent = find_span(spans, "parent");
  const auto* first = find_span(spans, "first");
  const auto* second = find_span(spans, "second");
  ASSERT_TRUE(parent && first && second);
  EXPECT_EQ(first->parent_id, parent->id);
  EXPECT_EQ(second->parent_id, parent->id);
  EXPECT_EQ(first->depth, 1u);
  EXPECT_EQ(second->depth, 1u);
  EXPECT_LE(first->start_ns, second->start_ns);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::instance().set_enabled(false);
  { PRC_TRACE_SPAN("invisible"); }
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
  Tracer::instance().set_enabled(true);
}

TEST_F(TraceTest, RingEvictsOldestAndCountsDrops) {
  Tracer::instance().set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    PRC_TRACE_SPAN("span");
  }
  const auto spans = Tracer::instance().snapshot();
  EXPECT_EQ(spans.size(), 4u);
  EXPECT_EQ(Tracer::instance().dropped(), 6u);
  // The survivors are the most recent ids.
  std::uint64_t max_id = 0;
  for (const auto& span : spans) max_id = std::max(max_id, span.id);
  for (const auto& span : spans) EXPECT_GT(span.id + 4, max_id);
}

TEST_F(TraceTest, FlameTextIndentsByDepth) {
  {
    PRC_TRACE_SPAN("market.sell");
    {
      PRC_TRACE_SPAN("dp.answer");
      { PRC_TRACE_SPAN("iot.round"); }
    }
  }
  const std::string text = Tracer::instance().flame_text();
  EXPECT_NE(text.find("# trace (3 spans)"), std::string::npos);
  EXPECT_NE(text.find("\nmarket.sell"), std::string::npos);
  EXPECT_NE(text.find("\n  dp.answer"), std::string::npos);
  EXPECT_NE(text.find("\n    iot.round"), std::string::npos);
  // Start order: the parent line precedes its children.
  EXPECT_LT(text.find("market.sell"), text.find("dp.answer"));
  EXPECT_LT(text.find("dp.answer"), text.find("iot.round"));
}

TEST_F(TraceTest, ThreadsNestIndependently) {
  // Parent/child links are thread-local: spans on two threads must both be
  // roots even when their lifetimes overlap.  Run under TSan in CI.
  std::thread a([] {
    PRC_TRACE_SPAN("thread.a");
    { PRC_TRACE_SPAN("thread.a.child"); }
  });
  std::thread b([] {
    PRC_TRACE_SPAN("thread.b");
    { PRC_TRACE_SPAN("thread.b.child"); }
  });
  a.join();
  b.join();
  const auto spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 4u);
  const auto* root_a = find_span(spans, "thread.a");
  const auto* root_b = find_span(spans, "thread.b");
  const auto* child_a = find_span(spans, "thread.a.child");
  ASSERT_TRUE(root_a && root_b && child_a);
  EXPECT_EQ(root_a->depth, 0u);
  EXPECT_EQ(root_b->depth, 0u);
  EXPECT_EQ(child_a->parent_id, root_a->id);
}

TEST_F(TraceTest, ClearResetsSpansAndDropCount) {
  Tracer::instance().set_capacity(1);
  { PRC_TRACE_SPAN("one"); }
  { PRC_TRACE_SPAN("two"); }
  EXPECT_EQ(Tracer::instance().dropped(), 1u);
  Tracer::instance().clear();
  EXPECT_TRUE(Tracer::instance().snapshot().empty());
  EXPECT_EQ(Tracer::instance().dropped(), 0u);
}

TEST_F(TraceTest, TimedSpanRecordsElapsedMicroseconds) {
  telemetry::Telemetry registry;
  auto& hist = registry.histogram("timer.us");

  // Tracer off: exactly one histogram sample per scope, nothing in the ring.
  Tracer::instance().set_enabled(false);
  { ScopedSpan span("timed", &hist); }
  auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
  EXPECT_LT(snap.max, 1e6);  // an empty scope takes far less than a second
  EXPECT_TRUE(Tracer::instance().snapshot().empty());

  // Tracer on: the sample is the ring record's own duration, so the span
  // and the histogram share one clock pair.
  Tracer::instance().set_enabled(true);
  hist.reset();
  { ScopedSpan span("timed", &hist); }
  snap = hist.snapshot();
  const auto spans = Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, static_cast<double>(spans[0].duration_ns) / 1000.0);
}

TEST_F(TraceTest, TimedSpanMacroFeedsTheDurationHistogram) {
  auto& hist = telemetry::histogram("trace_test.scope_duration_us");
  const auto before = hist.snapshot().count;
  for (int i = 0; i < 3; ++i) {
    PRC_TIMED_SPAN("trace_test.scope");
  }
  EXPECT_EQ(hist.snapshot().count, before + 3);
  const auto spans = Tracer::instance().snapshot();
  EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                          [](const SpanRecord& span) {
                            return span.name == "trace_test.scope";
                          }),
            3);
}

}  // namespace
}  // namespace prc::trace
