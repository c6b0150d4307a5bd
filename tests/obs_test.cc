// Unit tests for the observability layer: JSON emission, the metrics
// registry and its instruments, and the span collector's Chrome trace-event
// export.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace radical {
namespace obs {
namespace {

// --- JsonWriter ----------------------------------------------------------------

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("radical");
  w.Key("runs");
  w.BeginArray();
  w.Int(1);
  w.Int(-2);
  w.Uint(3);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("nothing");
  w.Null();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"radical\",\"runs\":[1,-2,3],"
            "\"nested\":{\"ok\":true,\"nothing\":null}}");
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NumbersAreLocaleFreeAndFinite) {
  EXPECT_EQ(JsonNumber(12.5), "12.500");
  EXPECT_EQ(JsonNumber(12.5, 1), "12.5");
  // NaN / infinity are not valid JSON; they render as zero.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "0.000");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity(), 0), "0");
}

// --- MetricsRegistry -----------------------------------------------------------

TEST(MetricsRegistryTest, CountersAreStableAndCreateOnFirstUse) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("fabric.wan.messages_sent");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(reg.GetCounter("fabric.wan.messages_sent"), c);
  EXPECT_EQ(reg.CounterValue("fabric.wan.messages_sent"), 5u);
  EXPECT_EQ(reg.CounterValue("never.created"), 0u);
}

TEST(MetricsRegistryTest, CallbackGaugeReadsAtSnapshotTime) {
  MetricsRegistry reg;
  int64_t level = 7;
  reg.AddCallbackGauge("cache.CA.items", [&level] { return level; });
  EXPECT_EQ(reg.GaugeValue("cache.CA.items"), 7);
  level = 42;
  EXPECT_EQ(reg.GaugeValue("cache.CA.items"), 42);
}

TEST(MetricsRegistryTest, UniqueScopeNamePreventsAliasing) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.UniqueScopeName("lvi_server"), "lvi_server");
  EXPECT_EQ(reg.UniqueScopeName("lvi_server"), "lvi_server#2");
  EXPECT_EQ(reg.UniqueScopeName("lvi_server"), "lvi_server#3");
  EXPECT_EQ(reg.UniqueScopeName("fabric.wan"), "fabric.wan");
}

TEST(MetricsRegistryTest, CountersWithPrefixStripsThePrefix) {
  MetricsRegistry reg;
  reg.GetCounter("runtime.CA.speculations")->Increment(3);
  reg.GetCounter("runtime.CA.replies")->Increment(2);
  reg.GetCounter("runtime.JP.replies")->Increment(9);
  const auto ca = reg.CountersWithPrefix("runtime.CA.");
  ASSERT_EQ(ca.size(), 2u);
  EXPECT_EQ(ca.at("speculations"), 3u);
  EXPECT_EQ(ca.at("replies"), 2u);
}

TEST(MetricsScopeTest, BehavesLikeTheLegacyCounters) {
  MetricsRegistry reg;
  MetricsScope scope(&reg, "lvi_server");
  scope.Increment("validate_success", 3);
  scope.Increment("validate_failure");
  EXPECT_EQ(scope.Get("validate_success"), 3u);
  EXPECT_EQ(scope.Get("missing"), 0u);
  EXPECT_NEAR(scope.RatioOf("validate_success", "validate_failure"), 0.75, 1e-9);
  const auto all = scope.all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("validate_success"), 3u);
  // The qualified name is visible registry-wide.
  EXPECT_EQ(reg.CounterValue("lvi_server.validate_success"), 3u);
  // A default-constructed scope is inert, not a crash.
  const MetricsScope empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_EQ(empty.Get("x"), 0u);
  EXPECT_DOUBLE_EQ(empty.RatioOf("x", "y"), 0.0);
}

// Copies of a scope share its name memo and resolve to the registry's one
// instrument per name, whichever copy resolved the name first.
TEST(MetricsScopeTest, CopiesBumpTheSameCounter) {
  MetricsRegistry reg;
  MetricsScope scope(&reg, "runtime.CA");
  const MetricsScope early_copy = scope;
  scope.Increment("validated_speculative");
  MetricsScope late_copy = scope;
  late_copy.Increment("validated_speculative", 2);
  MetricsScope(early_copy).Increment("validated_speculative");
  EXPECT_EQ(reg.CounterValue("runtime.CA.validated_speculative"), 4u);
  EXPECT_EQ(scope.counter("validated_speculative"), late_copy.counter("validated_speculative"));
  EXPECT_EQ(scope.Get("validated_speculative"), 4u);
  // A separately constructed scope on the same prefix shares the instrument
  // too (its memo is its own, the registry's counter is not).
  MetricsScope(&reg, "runtime.CA").Increment("validated_speculative");
  EXPECT_EQ(early_copy.Get("validated_speculative"), 5u);
}

// Instruments are still created on first use: a name the scope has never
// incremented appears in no snapshot, and reading it creates nothing.
TEST(MetricsScopeTest, NeverIncrementedNamesStayInvisible) {
  MetricsRegistry reg;
  MetricsScope scope(&reg, "runtime.CA");
  const MetricsScope copy = scope;
  EXPECT_EQ(copy.Get("session_requests"), 0u);
  EXPECT_EQ(scope.RatioOf("session_requests", "session_stale_upgrade"), 0.0);
  EXPECT_EQ(reg.SnapshotJson().find("session_"), std::string::npos);
  EXPECT_TRUE(reg.CountersWithPrefix("runtime.CA.").empty());
  scope.Increment("replies");
  EXPECT_EQ(reg.SnapshotJson().find("session_"), std::string::npos);
  const auto counters = reg.CountersWithPrefix("runtime.CA.");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters.at("replies"), 1u);
}

// Names built at run time (the LVI server's "shed_" + stage) count under
// their full text, each in its own counter.
TEST(MetricsScopeTest, DynamicNamesCount) {
  MetricsRegistry reg;
  MetricsScope scope(&reg, "lvi_server");
  for (const char* stage : {"validation", "admission", "validation"}) {
    scope.Increment(std::string("shed_") + stage);
  }
  EXPECT_EQ(scope.Get("shed_validation"), 2u);
  EXPECT_EQ(scope.Get("shed_admission"), 1u);
  EXPECT_EQ(reg.CounterValue("lvi_server.shed_validation"), 2u);
}

// Gauges resolve through the same memo: one instrument per name.
TEST(MetricsScopeTest, GaugeHandlesAreStableAcrossCopies) {
  MetricsRegistry reg;
  MetricsScope scope(&reg, "lvi_server");
  scope.gauge("queue_depth")->Set(3);
  const MetricsScope copy = scope;
  copy.gauge("queue_depth")->Add(2);
  EXPECT_EQ(scope.gauge("queue_depth"), copy.gauge("queue_depth"));
  EXPECT_EQ(reg.GaugeValue("lvi_server.queue_depth"), 5);
}

TEST(LatencyHistogramTest, ExactStatsAndPercentiles) {
  MetricsRegistry reg;
  LatencyHistogram* h = reg.GetHistogram("runtime.CA.e2e_latency");
  for (int i = 1; i <= 100; ++i) {
    h->Record(Millis(i));
  }
  EXPECT_EQ(h->count(), 100u);
  EXPECT_EQ(h->sum(), Millis(5050));
  EXPECT_NEAR(h->MeanMs(), 50.5, 1e-9);
  // 100 samples fit the reservoir, so percentiles are exact.
  EXPECT_NEAR(h->PercentileMs(0), 1.0, 1e-9);
  EXPECT_NEAR(h->PercentileMs(100), 100.0, 1e-9);
  EXPECT_NEAR(h->PercentileMs(50), 50.5, 0.01);
  // Empty histogram mirrors LatencySampler: percentile 0.0, not UB.
  LatencyHistogram* empty = reg.GetHistogram("empty");
  EXPECT_DOUBLE_EQ(empty->PercentileMs(50), 0.0);
  EXPECT_EQ(empty->Summarize().count, 0u);
}

TEST(LatencyHistogramTest, ReservoirIsBoundedAndDeterministic) {
  auto fill = [] {
    MetricsRegistry reg;
    LatencyHistogram* h = reg.GetHistogram("hist", /*reservoir_capacity=*/64);
    for (int i = 0; i < 10000; ++i) {
      h->Record(Micros(i * 17));
    }
    EXPECT_EQ(h->reservoir_size(), 64u);
    EXPECT_EQ(h->count(), 10000u);
    return reg.SnapshotJson();
  };
  // Same name ⇒ same reservoir seed ⇒ byte-identical export.
  EXPECT_EQ(fill(), fill());
}

TEST(MetricsRegistryTest, SnapshotJsonIsWellFormedAndOrdered) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Increment();
  reg.GetCounter("a.count")->Increment(2);
  reg.GetGauge("g.level")->Set(-3);
  reg.AddCallbackGauge("cb.level", [] { return int64_t{11}; });
  reg.GetHistogram("h.lat")->Record(Millis(5));
  const std::string json = reg.SnapshotJson();
  // Name-ordered counters: "a.count" before "b.count".
  const size_t a = json.find("\"a.count\"");
  const size_t b = json.find("\"b.count\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(json.find("\"g.level\":-3"), std::string::npos);
  EXPECT_NE(json.find("\"cb.level\":11"), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
  // Text dump mentions every instrument too.
  const std::string text = reg.SnapshotText();
  EXPECT_NE(text.find("a.count"), std::string::npos);
  EXPECT_NE(text.find("h.lat"), std::string::npos);
}

// --- SpanCollector -------------------------------------------------------------

TEST(SpanCollectorTest, ChromeTraceShape) {
  SpanCollector spans;
  spans.Add(Span{"request", "runtime", SpanTrack::kClient, 7, Millis(10), Millis(5),
                 {{"function", "read_post"}, {"speculated", "true"}}});
  spans.Add(Span{"server.validate", "lvi_server", SpanTrack::kServer, 7, Millis(12),
                 Millis(1), {}});
  const std::string json = spans.ToChromeTraceJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Process-name metadata for the tracks.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // The complete event: X phase, µs timestamps, lane as tid.
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":10000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5000"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"function\":\"read_post\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server.validate\""), std::string::npos);
  EXPECT_EQ(spans.size(), 2u);
  spans.Clear();
  EXPECT_EQ(spans.size(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace radical
